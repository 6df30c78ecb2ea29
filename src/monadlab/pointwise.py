"""Localized evaluation and regularity classification.

The cohomology sheaf of a validated monad is classified by the dimension
of the locus where the left map drops below full column rank:

    empty locus      -> locally free
    finite locus     -> reflexive          (P3)
    curve            -> torsion-free       (P3)
    anything larger  -> coherent only

When the short side of the matrix is a single column or row the locus is
a linear subspace and the dimension is exact.  Otherwise it is estimated
by random linear slices over finite fields: a generic slice of codimension
d meets the locus exactly when the locus has dimension >= d.  A line slice
is decided over the algebraic closure by one rank: the matrix stays
injective at every point of the line iff its transpose is onto there
(exactlin.onto_on_line).  Slice verdicts are Monte-Carlo and are never
upgraded to exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import monad as monad_mod
from ._seeds import rng_for
from .errors import MonadLabError, ShapeMismatchError
from .exactlin import (
    DEFAULT_PRIME,
    DenseMatrix,
    LinearFormMatrix,
    PrimeField,
    onto_on_line,
)

LEVELS = ("locally_free", "reflexive", "torsion_free", "coherent_only")

_DISPLAY = {
    "locally_free": "LocallyFree",
    "reflexive": "Reflexive",
    "torsion_free": "TorsionFree",
    "coherent_only": "CoherentOnly",
}


def evaluate(L: LinearFormMatrix, point) -> DenseMatrix:
    """Evaluate a matrix of linear forms at a point (not all coordinates 0)."""
    if len(point) != L.nvars:
        raise ShapeMismatchError(f"point needs {L.nvars} coordinates")
    pt = [L.field.coerce(x) for x in point]
    if all(x == 0 for x in pt):
        raise ValueError("cannot evaluate at the zero vector")
    return L.at(pt)


@dataclass(frozen=True)
class DegeneracyBudget:
    """Effort knobs for the finite-field slice scan."""

    prime: int = DEFAULT_PRIME     # point and pencil slices
    slices: int = 50               # random slices per dimension level
    enum_prime: int = 31           # slices that must be enumerated pointwise
    max_enum: int = 2_000_000      # refuse enumerations beyond this
    seed: int = 0


@dataclass
class DegeneracyResult:
    kind: str                      # "empty" | "dim" | "unknown"
    dim: int | None
    method: dict
    witness: list[str] | None = None
    locus_basis: list[list[str]] | None = None
    note: str = ""

    @property
    def exact(self) -> bool:
        return self.method.get("kind") == "exact_linear"

    def to_json_obj(self):
        return {
            "kind": self.kind,
            "dim": self.dim,
            "method": self.method,
            "witness": self.witness,
            "locus_basis": self.locus_basis,
            "note": self.note,
        }


def _fmt_vec(field, vec):
    return [field.fmt(x) for x in vec]


def _exact_linear(L: LinearFormMatrix) -> DegeneracyResult:
    """Single-column (or row) case: the locus is a projective linear subspace."""
    n = L.nvars - 1
    forms = [L.entry_form(i, 0) for i in range(L.nrows)]
    coeff = DenseMatrix(L.field, len(forms), L.nvars,
                        [[L.field.coerce(c) for c in f] for f in forms])
    r = coeff.rank()
    method = {"kind": "exact_linear"}
    if r == n + 1:
        return DegeneracyResult("empty", None, method)
    kern = coeff.right_kernel()
    basis = [[kern.data[i][c] for i in range(n + 1)] for c in range(kern.ncols)]
    return DegeneracyResult(
        "dim", n - r, method,
        witness=_fmt_vec(L.field, basis[0]),
        locus_basis=[_fmt_vec(L.field, b) for b in basis],
        note=f"common zero locus of {L.nrows} linear forms, coefficient rank {r}",
    )


def _reduce(L: LinearFormMatrix, p: int) -> LinearFormMatrix:
    if L.field.kind == "Fp":
        if L.field.p != p:
            raise MonadLabError(f"matrix already lives over {L.field.name}")
        return L
    try:
        return L.to_field(PrimeField(p))
    except ZeroDivisionError as exc:
        raise MonadLabError(
            f"cannot reduce mod {p}: {exc}; pick a different scan prime") from exc


def _rand_subspace(rng, p: int, nvars: int, dim_plus_1: int, field):
    """Rows spanning a projective subspace of dimension dim_plus_1 - 1."""
    while True:
        rows = [[rng.randrange(p) for _ in range(nvars)] for _ in range(dim_plus_1)]
        if DenseMatrix(field, dim_plus_1, nvars, rows).rank() == dim_plus_1:
            return rows


def degeneracy_dim(L: LinearFormMatrix, full_rank: int | None = None,
                   budget: DegeneracyBudget | None = None) -> DegeneracyResult:
    """Dimension of the locus where L drops below full (short-side) rank.

    Exact when the short side is at most 1; otherwise a finite-field slice
    scan, descending from codimension-0 candidates: the first level whose
    random slice meets the locus (over the algebraic closure for point and
    pencil slices, over F_q for enumerated slices) gives the dimension.
    """
    budget = budget or DegeneracyBudget()
    if budget.slices < 1:
        raise ValueError(f"need at least one slice per level, got {budget.slices}")
    T = L if L.nrows >= L.ncols else L.transpose()
    full = T.ncols
    if full_rank is not None and full_rank != full:
        raise ValueError(f"full_rank must be the short side {full}, got {full_rank}")
    if full == 0:
        return DegeneracyResult("empty", None, {"kind": "exact_linear"},
                                note="no rank condition for an empty matrix")
    if full == 1:
        return _exact_linear(T)

    n = T.nvars - 1
    Tp = _reduce(T, budget.prime if T.field.kind == "Q" else T.field.p)
    p = Tp.field.p
    enum_p = budget.enum_prime if T.field.kind == "Q" else T.field.p
    method = {
        "kind": "finite_field_scan",
        "prime": p,
        "enum_prime": enum_p,
        "slices": budget.slices,
    }
    refused = False
    for d in range(n, -1, -1):
        e = n - d  # projective dimension of the slice
        if e == 0:
            rng = rng_for("degeneracy-pt", budget.seed, d)
            for _ in range(budget.slices):
                pt = monad_mod.random_point(rng, Tp.field, n + 1)
                if Tp.at(pt).rank() < full and monad_mod.lift_drops_rank(T, pt, full):
                    return DegeneracyResult(
                        "dim", d, method, witness=_fmt_vec(Tp.field, pt),
                        note=f"rank drop at a random point over F_{p}")
        elif e == 1:
            rng = rng_for("degeneracy-line", budget.seed, d)
            for _ in range(budget.slices):
                span = _rand_subspace(rng, p, n + 1, 2, Tp.field)
                # T restricted to the line is injective at every point iff
                # its transpose O^nrows -> O(1)^full is onto at every point
                slice_t = LinearFormMatrix(Tp.field, full, T.nrows, 2,
                                           [Tp.at(pt).transpose() for pt in span])
                if not onto_on_line(slice_t):
                    return DegeneracyResult(
                        "dim", d, method,
                        note=f"maximal minors on a random line over F_{p} share "
                             "a root over the algebraic closure")
        else:
            npoints = (enum_p ** (e + 1) - 1) // (enum_p - 1)
            nslices = 1 if e == n else budget.slices
            if npoints * nslices > budget.max_enum:
                refused = True
                continue
            try:
                Tq = _reduce(T, enum_p)
            except MonadLabError:
                refused = True
                continue
            qq = Tq.field.p
            if e == n:
                # last resort: is the locus nonempty at all?  All larger
                # dimensions were already ruled out, so any surviving point
                # means a finite locus.
                for pt in monad_mod.projective_points(qq, n + 1):
                    if Tq.at(pt).rank() < full and monad_mod.lift_drops_rank(T, pt, full):
                        return DegeneracyResult(
                            "dim", d, method, witness=_fmt_vec(Tq.field, pt),
                            note=f"rank drop found by full enumeration over F_{qq}")
                continue
            # A single rational point of the locus lands on a random slice
            # with probability ~1/q even when the dimension is too small, so
            # an isolated hit must not decide the level: demand hits on a
            # fixed fraction of the slices.
            rng = rng_for("degeneracy-enum", budget.seed, d)
            reps = list(monad_mod.projective_points(qq, e + 1))
            needed = max(2, nslices // 5)
            hits = 0
            witness = None
            for s in range(nslices):
                if hits + (nslices - s) < needed:
                    break
                span = _rand_subspace(rng, qq, n + 1, e + 1, Tq.field)
                for rep in reps:
                    pt = [0] * (n + 1)
                    for c, row in zip(rep, span):
                        if c:
                            for t in range(n + 1):
                                pt[t] = (pt[t] + c * row[t]) % qq
                    if Tq.at(pt).rank() < full and monad_mod.lift_drops_rank(T, pt, full):
                        hits += 1
                        witness = pt
                        break
                if hits >= needed:
                    return DegeneracyResult(
                        "dim", d, method, witness=_fmt_vec(Tq.field, witness),
                        note=f"{hits} of {s + 1} random slices over F_{qq} "
                             "met the locus")
    if refused:
        return DegeneracyResult("unknown", None, method,
                                note="some slice levels exceeded the enumeration cap")
    return DegeneracyResult("empty", None, method,
                            note="no slice met the locus")


@dataclass
class ClassificationReport:
    level: str                     # one of LEVELS
    degeneracy: DegeneracyResult
    confidence: str                # "exact" | "monte_carlo" | "unknown"
    warnings: list[str] = dc_field(default_factory=list)

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

    On P3: empty locus -> locally free, points -> reflexive, a curve ->
    torsion-free.  On P2 a reflexive sheaf is already locally free, so a
    finite locus reports torsion-free.
    """
    n = M.ambient_n
    deg = degeneracy_dim(M.alpha, None, budget)
    if deg.kind == "unknown":
        confidence = "unknown"
        level = "coherent_only"
    else:
        confidence = "exact" if deg.exact else "monte_carlo"
        if deg.kind == "empty":
            level = "locally_free"
        elif n == 3:
            level = {0: "reflexive", 1: "torsion_free"}.get(deg.dim, "coherent_only")
        else:
            level = "torsion_free" if deg.dim == 0 else "coherent_only"
    warnings = []
    if n == 3 and level == "reflexive":
        inv = monad_mod.invariants(M)
        if inv.rank == 2 and inv.c3 == 0:
            warnings.append(
                "rank 2 with c3 = 0 cannot be reflexive without being locally "
                f"free; the {confidence} degeneracy verdict is suspect"
            )
    return ClassificationReport(level, deg, confidence, warnings)
