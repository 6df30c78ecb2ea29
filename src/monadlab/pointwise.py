"""Regularity classification from the degeneracy locus of the left map.

The cohomology sheaf of a validated monad is classified by the dimension
of the locus where the left map drops below full column rank:

    empty locus        -> locally free
    dimension <= n - 3 -> reflexive        (a finite locus on P3)
    dimension <= n - 2 -> torsion-free     (a curve on P3, points on P2)
    anything larger    -> coherent only

(Okonek-Schneider-Spindler, ch. II).  The level names are given on P2 and
P3 only; classify refuses a larger n.

When the short side of the matrix is a single column or row the locus is
a linear subspace and the dimension is exact.  Otherwise each level is
decided by one rank: the matrix is injective at every point of a linear
subspace iff its transpose, restricted there, is onto at every point
(exactlin.onto_everywhere).  All of P^n is decided first, so an empty
locus takes one rank.  Otherwise the scan restricts to random subspaces
P^e for e = 0, 1, ..., n-1, rational over the matrix's own field.  A slice
that misses the locus proves exactly that the locus has dimension < n - e;
a level whose random slices all meet it suggests dimension >= n - e, a
Monte-Carlo lower bound.  An empty or finite locus is exact and larger
loci are Monte-Carlo.
"""

from __future__ import annotations

from . import monad as monad_mod
from ._seeds import rng_for
from .exactlin import (
    DEFAULT_PRIME,
    DenseMatrix,
    LinearFormMatrix,
    linear_locus,
    onto_everywhere,
)

MAX_SLICES = 10 ** 4

LEVELS = ("locally_free", "reflexive", "torsion_free", "coherent_only")

_DISPLAY = {
    "locally_free": "LocallyFree",
    "reflexive": "Reflexive",
    "torsion_free": "TorsionFree",
    "coherent_only": "CoherentOnly",
}


class DegeneracyBudget:
    """Effort knobs for the slice scan; immutable."""

    __slots__ = ("prime", "slices", "seed")
    def __init__(self, prime: int = DEFAULT_PRIME, slices: int = 50, seed: int = 0):
        self.prime = prime       # modulus of the rank certificates over Q
        self.slices = slices     # random slices per level before it counts as met
        self.seed = seed


class DegeneracyResult:
    __slots__ = ("kind", "dim", "method", "witness", "locus_basis", "note")
    def __init__(self, kind: str, dim: int | None, method: dict, witness: list[str] | None = None,
                 locus_basis: list[list[str]] | None = None, note: str = ""):
        self.kind = kind         # "empty" | "dim"
        self.dim = dim
        self.method = method
        self.witness = witness
        self.locus_basis = locus_basis
        self.note = note

    @property
    def exact(self) -> bool:
        return self.method.get("kind") in ("exact_linear", "onto_rank")

    def to_json_obj(self):
        return {name: getattr(self, name) for name in self.__slots__}


def _exact_linear(L: LinearFormMatrix) -> DegeneracyResult:
    """Single-column (or row) case: the locus is a projective linear subspace."""
    n = L.nvars - 1
    basis = linear_locus(L)
    r = n + 1 - len(basis)
    method = {"kind": "exact_linear"}
    if r == n + 1:
        return DegeneracyResult("empty", None, method)
    fmt = monad_mod.fmt_point
    return DegeneracyResult(
        "dim", n - r, method,
        witness=fmt(L.field, basis[0]),
        locus_basis=[fmt(L.field, b) for b in basis],
        note=f"common zero locus of {L.nrows} linear forms, coefficient rank {r}",
    )


def _random_span(rng, field, nvars: int, count: int):
    """Rows of `count` random points spanning a P^(count-1)."""
    while True:
        rows = [monad_mod.random_point(rng, field, nvars) for _ in range(count)]
        if DenseMatrix(field, count, nvars, rows).rank() == count:
            return rows


def _slice(T: LinearFormMatrix, span) -> LinearFormMatrix:
    """The transpose of T restricted to the subspace spanned by `span`."""
    return LinearFormMatrix(T.field, T.ncols, T.nrows, len(span),
                            [T.at(pt).transpose() for pt in span])


def degeneracy_dim(L: LinearFormMatrix,
                   budget: DegeneracyBudget | None = None) -> DegeneracyResult:
    """Dimension of the locus where L drops below full (short-side) rank.

    Exact when the short side is at most 1.  Otherwise the whole of P^n
    is tried first: if the transpose passes exactlin.onto_everywhere there,
    the locus is empty, exactly, and no slice is needed.  If not, one loop
    over slice dimensions e = 0, ..., n-1: at level e, up to `slices`
    random P^e are tried, and the first whose restriction passes
    onto_everywhere rules out dimension >= n - e exactly.  The first level
    where every slice meets the locus gives dim = n - e; if no level does,
    the failed proof on P^n gives dimension 0, exactly.  Dimensions above 0
    are Monte-Carlo lower bounds under an exact upper bound.  A budget of
    fewer than 1 or more than MAX_SLICES slices is refused before any rank.
    """
    budget = budget or DegeneracyBudget()
    if budget.slices < 1:
        raise ValueError(f"need at least one slice per level, got {budget.slices}")
    if budget.slices > MAX_SLICES:
        raise ValueError(f"slice count {budget.slices} exceeds the cap {MAX_SLICES}")
    T = L if L.nrows >= L.ncols else L.transpose()
    full = T.ncols
    if full == 0:
        return DegeneracyResult("empty", None, {"kind": "exact_linear"},
                                note="no rank condition for an empty matrix")
    if full == 1:
        return _exact_linear(T)

    n = T.nvars - 1
    field = T.field
    prime = field.p if field.kind == "Fp" else budget.prime
    whole = onto_everywhere(T.transpose(), prime)
    whole_method = _method("onto_rank", prime, budget.slices, n, whole)
    if whole.full:
        return DegeneracyResult("empty", None, whole_method,
                                note=f"full rank at every point: {whole}")
    rng = rng_for("degeneracy", budget.seed)
    for e in range(n):
        for _ in range(budget.slices):
            proof = onto_everywhere(_slice(T, _random_span(rng, field, n + 1, e + 1)),
                                    prime)
            if proof.full:
                break
        else:
            return DegeneracyResult(
                "dim", n - e, _method("slice_scan", prime, budget.slices, e, proof),
                note=(f"all {budget.slices} random P^{e} slices meet the "
                      f"locus, the last with {proof}"))
    return DegeneracyResult("dim", 0, whole_method,
                            note=f"the locus is not empty: {whole}")


def _method(kind: str, prime: int, slices: int, level: int, proof) -> dict:
    """The proof of a slice verdict: slice level, matrix shape, rank, field."""
    return {"kind": kind, "prime": prime, "slices": slices, "level": level,
            "shape": list(proof.shape), "rank": proof.rank, "over": proof.over}


class ClassificationReport:
    __slots__ = ("level", "degeneracy", "confidence", "warnings")
    def __init__(self, level: str, degeneracy: DegeneracyResult, confidence: str,
                 warnings: list[str] | None = None):
        self.level = level               # one of LEVELS
        self.degeneracy = degeneracy
        self.confidence = confidence     # "exact" | "monte_carlo"
        self.warnings = [] if warnings is None else warnings

    @property
    def display(self) -> str:
        return f"{_DISPLAY[self.level]} ({self.confidence})"

    def to_json_obj(self):
        return {
            "level": _DISPLAY[self.level],
            "confidence": self.confidence,
            "degeneracy": self.degeneracy.to_json_obj(),
            "warnings": self.warnings,
        }


def classify(M, budget: DegeneracyBudget | None = None) -> ClassificationReport:
    """Regularity level of the cohomology sheaf from the left-map degeneracy.

    An empty locus is locally free; a locus of dimension <= n - 3 is
    reflexive and one of dimension <= n - 2 torsion-free.  So on P2 a
    reflexive sheaf is already locally free, and a finite locus reports
    torsion-free.  Refused on P^n for n > 3, where the levels are not named.
    """
    n = M.ambient_n
    if n > 3:
        raise ValueError(f"the regularity levels are named on P2 and P3, not P{n}")
    deg = degeneracy_dim(M.alpha, budget)
    confidence = "exact" if deg.exact else "monte_carlo"
    level = ("locally_free" if deg.kind == "empty"
             else "reflexive" if deg.dim <= n - 3
             else "torsion_free" if deg.dim <= n - 2
             else "coherent_only")
    warnings = []
    if n == 3 and level == "reflexive":
        inv = monad_mod.invariants(M)
        if inv.rank == 2 and inv.c3 == 0:
            warnings.append(
                "rank 2 with c3 = 0 cannot be reflexive without being locally "
                f"free; the {confidence} degeneracy verdict is suspect"
            )
    return ClassificationReport(level, deg, confidence, warnings)
