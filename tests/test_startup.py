"""Start-up footprint and the contracts of the record classes.

The records (reports, proofs, lines) are plain __slots__ classes whose
constructors _record.Record compiles from their slots, so importing the
CLI loads neither dataclasses nor the inspect, ast, dis and tokenize
modules it pulls in.  These tests pin that, the public names of the
package, each record's constructor signature, and the equality,
iteration and defaults that callers use.
"""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import monadlab
from monadlab import (
    QQ,
    Certificate,
    ChernData,
    ClassificationReport,
    CohomologyTable,
    DegeneracyResult,
    Line,
    ScanReport,
    SplittingType,
    StabilityReport,
    TrivialSplittingReport,
    ValidationReport,
)
from monadlab.monad import CheckResult
from monadlab.pencil import LineStatus

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

PUBLIC = """
    AdmissibilityReport CohomologyTable DualVanishingReport StabilityReport
    admissibility_check admissibility_violations chi_line_bundle cohomology_table
    dual_vanishing_check stability_report twist_cohomology
    AlphaDegenerateError MonadDecodeError MonadLabError NotLocallyFreeError
    NotRepresentableError ReconstructionError RetryExhaustedError ShapeMismatchError
    DEFAULT_PRIME QQ Certificate DenseMatrix GF LinearFormMatrix MonomialBasis PrimeField
    RationalField certify compose_check field_from_name forms_matrix kernel_basis
    monomial_basis mult_map rank
    CodimEvidenceReport ScanReport TrivialSplittingReport UniformityReport codim_evidence
    jumping_scan sample_line trivial_splitting_test uniformity_evidence
    ChernData SpecialMonad ValidationReport decode direct_sum dualize encode example_monad
    invariants random_monad special_monad_exists to_prime_field trivial_monad validate
    Line PencilComplex SplittingType dual_pencil line_status p1_cohomology restrict
    splitting_type
    ClassificationReport DegeneracyResult classify degeneracy_dim
""".split()

RECORDS = """
    AdmissibilityReport CohomologyTable DualVanishingReport StabilityReport
    Certificate MonomialBasis CodimEvidenceReport ScanReport TrivialSplittingReport
    UniformityReport ChernData ValidationReport Line SplittingType ClassificationReport
    DegeneracyResult
""".split()


def test_the_cli_imports_no_dataclass_machinery():
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    code = ("import sys, monadlab.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=SRC)
    # -S: no site hooks, so only monadlab's own imports count
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_every_public_name_still_imports():
    assert [name for name in PUBLIC if not hasattr(monadlab, name)] == []


def test_records_are_slotted():
    from monadlab.exactlin import RankProof
    from monadlab.lines_scan import LineOutcome
    classes = [getattr(monadlab, name) for name in RECORDS]
    classes += [RankProof, LineOutcome, CheckResult, LineStatus]
    assert len(classes) == 20
    for cls in classes:
        assert "__slots__" in vars(cls) and "__dict__" not in dir(cls), cls.__name__


def test_line_equality_and_hash_ignore_minors():
    a = Line(QQ, ((1, 0, 0, 0), (0, 1, 0, 0)), (1, 0, 0, 0, 0, 0))
    b = Line(QQ, ((1, 0, 0, 0), (0, 1, 0, 0)), ("not", "the", "minors"))
    c = Line(QQ, ((1, 0, 0, 0), (0, 0, 1, 0)), (1, 0, 0, 0, 0, 0))
    assert a == b and hash(a) == hash(b) and len({a, b, c}) == 2
    assert a != c and a != a.points
    assert Line.from_points(QQ, [1, 0, 0, 0], [0, 1, 0, 0]) == a


def test_certificate_equality():
    assert Certificate(True, False) == Certificate(True, False)
    assert Certificate(True, False) != Certificate(False, True)
    assert Certificate(True, False).dual() == Certificate(False, True)
    assert hash(Certificate(True, True)) == hash(Certificate(True, True))
    assert Certificate(True, True) != (True, True)


def test_splitting_type_iterates_its_parts():
    parts = SplittingType((1, 0, -1))
    assert list(parts) == [1, 0, -1] and str(parts) == "(1, 0, -1)"
    assert parts.dims == {} and parts.dims is not SplittingType((0, 0)).dims
    assert not parts.is_trivial and SplittingType((0, 0), {0: (2, 0)}).is_trivial


def test_keyword_and_default_constructions():
    inv = ChernData(rank=2, c1=0, ch2=Fraction(-1), c2=1)
    assert (inv.ch3, inv.c3) == (None, None)
    check = CheckResult("composition", True)
    assert check.to_json_obj() == {"name": "composition", "passed": True,
                                   "confidence": "exact", "detail": "", "witness": None}
    report = ValidationReport(check, check, check, False)
    assert report.overall and report.notes == []
    assert report.notes is not ValidationReport(check, check, check, False).notes
    deg = DegeneracyResult("empty", None, {"kind": "onto_rank"})
    assert (deg.witness, deg.locus_basis, deg.note) == (None, None, "")
    cls = ClassificationReport("locally_free", deg)
    assert cls.warnings == [] and cls.display == "LocallyFree (exact)"
    stab = StabilityReport(2, 0, None, "yes", "yes", "c1 = 0, h0 = 0")
    assert list(stab.to_json_obj()) == ["rank", "h0", "h0_dual", "semistable", "stable",
                                        "criterion", "notes"]
    assert stab.notes == []
    assert LineStatus(True).to_json_obj() == {"clean": True, "note": ""}
    assert LineStatus(False, degenerate_map="left").degenerate_map == "left"
    scan = ScanReport("id", "Fp:7", 7, 4, 0, 1, 0, {(1, -1): 1, (0, 0): 3}, [])
    assert scan.outcomes == [] and scan.fraction == 0.25
    trivial = TrivialSplittingReport("id", "Q", 1, 0, True, None, {(0, 0): 1}, 0)
    assert trivial.note == ""
    table = CohomologyTable(3, -1, 0, [[0, 0], [1, 0], [0, 0], [0, 0]])
    assert table.column(-1) == (0, 1, 0, 0) and table.euler(-1) == -1


# each record's constructor parameters, in order, with their defaults
SIGNATURES = {
    "CohomologyTable": "ambient_n k_min k_max rows",
    "AdmissibilityReport": "ambient_n k_min k_max violations",
    "StabilityReport": "rank h0 h0_dual semistable stable criterion notes=None",
    "DualVanishingReport": "k_min k_max values violations",
    "ChernData": "rank c1 ch2 c2 ch3=None c3=None",
    "CheckResult": "name passed detail='' witness=None",
    "ValidationReport": "composition beta_surjective alpha_injective rank_zero notes=None",
    "DegeneracyResult": "kind dim method witness=None locus_basis=None note=''",
    "ClassificationReport": "level degeneracy warnings=None",
    "LineOutcome": "index line status splitting",
    "ScanReport": ("monad_id field_name prime samples seed jumping degenerate spectrum "
                   "witnesses outcomes=None"),
    "TrivialSplittingReport": ("monad_id field_name samples seed certified witness "
                               "spectrum degenerate note=''"),
    "CodimEvidenceReport": "monad_id rows exponent exponent_stderr tolerance verdict",
    "UniformityReport": ("monad_id field_name samples seed refuted witness spectrum "
                         "degenerate notes"),
    "Line": "field points minors",
    "LineStatus": "clean note='' degenerate_map=''",
    "SplittingType": "parts dims=None",
    "RankProof": "full rank target shape over",
    "Certificate": "left right",
    "MonomialBasis": "m d exponents",
}


def test_record_constructors_keep_their_signatures():
    import inspect
    from monadlab import exactlin, lines_scan, monad as monad_mod, pencil
    from monadlab._record import Record
    modules = (monadlab, exactlin, lines_scan, monad_mod, pencil)
    for name, want in SIGNATURES.items():
        cls = next(getattr(m, name) for m in modules if hasattr(m, name))
        assert issubclass(cls, Record), name
        params = inspect.signature(cls).parameters.values()
        got = " ".join(p.name if p.default is p.empty else f"{p.name}={p.default!r}"
                       for p in params)
        assert got == want, name
    # a list or dict default is fresh for every instance
    fresh = [(StabilityReport, 6, "notes"), (ValidationReport, 4, "notes"),
             (ClassificationReport, 2, "warnings"), (ScanReport, 9, "outcomes"),
             (SplittingType, 1, "dims")]
    for cls, given, field in fresh:
        a, b = cls(*range(given)), cls(*range(given))
        assert getattr(a, field) == getattr(b, field) and not getattr(a, field)
        assert getattr(a, field) is not getattr(b, field), cls.__name__
        assert getattr(cls(*range(given), "kept"), field) == "kept"


def test_a_record_refuses_defaults_that_are_not_its_last_fields():
    from monadlab._record import Record
    with pytest.raises(KeyError):
        type("Bad", (Record,), {"__slots__": ("a", "b"), "defaults": {"a": None}})
    Point = type("Point", (Record,), {"__slots__": ("x", "y"), "defaults": {"y": 0}})
    assert (Point(1).x, Point(1).y, Point(y=2, x=3).y) == (1, 0, 2)
