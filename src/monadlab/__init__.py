"""monadlab: exact calculus for special monads on projective space.

Build, validate and analyze three-term complexes O(-1)^v -> O^w -> O(1)^v'
on P^n, 2 <= n <= monad.MAX_N, in exact arithmetic (Q or F_p):
twist-cohomology tables, restriction to lines and splitting types on every
such P^n; Chern invariants, regularity classification via degeneracy loci,
admissibility and stability checks and seeded jumping-line statistics over
finite fields on P2 and P3.
"""

from .cohomology import (
    AdmissibilityReport,
    CohomologyTable,
    DualVanishingReport,
    StabilityReport,
    admissibility_check,
    admissibility_violations,
    chi_line_bundle,
    cohomology_table,
    dual_vanishing_check,
    stability_report,
    twist_cohomology,
)
from .errors import (
    AlphaDegenerateError,
    MonadDecodeError,
    MonadLabError,
    NotLocallyFreeError,
    NotRepresentableError,
    ReconstructionError,
    RetryExhaustedError,
    ShapeMismatchError,
)
from .exactlin import (
    DEFAULT_PRIME,
    QQ,
    Certificate,
    DenseMatrix,
    GF,
    LinearFormMatrix,
    MonomialBasis,
    PrimeField,
    RationalField,
    certify,
    compose_check,
    field_from_name,
    forms_matrix,
    kernel_basis,
    monomial_basis,
    mult_map,
    rank,
)
from .lines_scan import (
    CodimEvidenceReport,
    ScanReport,
    TrivialSplittingReport,
    UniformityReport,
    codim_evidence,
    jumping_scan,
    sample_line,
    trivial_splitting_test,
    uniformity_evidence,
)
from .monad import (
    ChernData,
    SpecialMonad,
    ValidationReport,
    decode,
    direct_sum,
    dualize,
    encode,
    example_monad,
    invariants,
    random_monad,
    special_monad_exists,
    to_prime_field,
    trivial_monad,
    validate,
)
from .pencil import (
    Line,
    PencilComplex,
    SplittingType,
    dual_pencil,
    line_status,
    p1_cohomology,
    restrict,
    splitting_type,
)
from .pointwise import (
    ClassificationReport,
    DegeneracyResult,
    classify,
    degeneracy_dim,
)

__version__ = "0.1.0"
