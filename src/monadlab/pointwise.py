"""Regularity classification from the degeneracy locus of the left map.

The cohomology sheaf of a validated monad is classified by the dimension
of the locus where the left map drops below full column rank:

    empty locus        -> locally free
    dimension <= n - 3 -> reflexive        (a finite locus on P3)
    dimension <= n - 2 -> torsion-free     (a curve on P3, points on P2)
    anything larger    -> coherent only

(Okonek-Schneider-Spindler, ch. II).  The level names are given on P2 and
P3 only; classify refuses a larger n.

Every dimension is exact.  Let T be the tall side of the matrix, with r
columns, and S the locus on P^n where T drops rank.  When r is 1 the
locus is a linear subspace (linear_locus).  Otherwise each statement is
one rank:

- S is empty iff T is injective at every point, that is iff its
  transpose is onto at every point (exactlin.onto_everywhere);
- dim S = n iff T is not injective as a sheaf map
  (exactlin.generically_injective);
- for 1 <= d <= n - 1, dim S >= d is decided by a count of hyperplane
  sections, below, each section tested the same way one dimension down;
  at d = 0 the test is the first statement.

The count.  S is cut out by the r x r minors of T, forms of degree r.  By
refined Bezout (Fulton, Intersection Theory, Ex. 8.4.6; Heintz 1983, TCS
24) a locus of dimension <= d - 1 cut out by forms of degree r has at most
r^(n-d+1) components of dimension d - 1.  Take the hyperplanes
H_t = {sum_i t^i x_i = 0}, t = 0, 1, 2, ...  By Vandermonde, any n + 1 of
their normal vectors are independent, so no n + 1 of them share a point,
and a component lies in at most n of them.  Let N_d = n * r^(n-d+1) + 1.

- If dim S >= d, every hyperplane meets a component of dimension >= d in
  dimension >= d - 1 (the dimension theorem), so every section S & H_t has
  dimension >= d - 1.
- If dim S <= d - 1, at most n * r^(n-d+1) < N_d of the H_t contain a
  component of dimension d - 1, and any other H_t cuts S in dimension
  <= d - 2.

So dim S >= d iff S & H_t has dimension >= d - 1 for t = 0, ..., N_d - 1.
H_t is a P^(n-1), with coordinates x_1, ..., x_n, on which T restricts to
a matrix of linear forms whose locus is S & H_t; the same rule applies
there with its own count.  Levels are tried from d = n - 1 down: the first
that is met is the dimension, and the first section that falls short of a
level rules it out, so a level that is not met costs about one proof.  If
no level is met, the failed proof on all of P^n gives dimension 0.

Over F_p there are only p hyperplanes H_t.  A short section rules a level
out at any p, but a level met by every one of them is proven only when
p >= N_d; below that the locus is refused with a ValueError naming p and
N_d.  Over Q the ranks are taken mod 32003 first and over Q when they
fall short (exactlin._rank_proof), so every verdict is exact.

When every section meets, level d takes N_d sections of N_(d-1) sections
of ... one proof each, about r^(d(n-d+1)) proofs: r^4 on P3, r^2 on P2.
That worst case, summed over the levels, is computed from (n, r) and
checked against MAX_SLICE_PROOFS after the proof on all of P^n fails and
before any slice proof, so on P3 a locus is classified for r <= 4 (1810
proofs at worst, r = 5 would take 4252) and on P2 for r <= 31 (1923).
"""

from __future__ import annotations

from . import monad as monad_mod
from ._record import Record
from .exactlin import (
    DEFAULT_PRIME,
    LinearFormMatrix,
    generically_injective,
    linear_locus,
    onto_everywhere,
)

# most slice proofs one degeneracy_dim may need, from (n, r) alone
MAX_SLICE_PROOFS = 2000

LEVELS = ("locally_free", "reflexive", "torsion_free", "coherent_only")

_DISPLAY = {
    "locally_free": "LocallyFree",
    "reflexive": "Reflexive",
    "torsion_free": "TorsionFree",
    "coherent_only": "CoherentOnly",
}


class DegeneracyResult(Record):
    # kind: "empty" | "dim"
    __slots__ = ("kind", "dim", "method", "witness", "locus_basis", "note")
    defaults = {"witness": None, "locus_basis": None, "note": ""}

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


def _hyperplanes(n: int, r: int, d: int) -> int:
    """N_d: sections of P^n that decide whether a locus of r x r minors has dim >= d."""
    return n * r ** (n - d + 1) + 1


def _worst_proofs(n: int, r: int, d: int) -> int:
    """Slice proofs of the test "dim >= d" on P^n when every section meets."""
    return 1 if d == 0 else _hyperplanes(n, r, d) * _worst_proofs(n - 1, r, d - 1)


def _section(T: LinearFormMatrix, t: int) -> LinearFormMatrix:
    """T on H_t = {sum_i t^i x_i = 0}, in its basis e_i - t^i e_0, i = 1, ..., m."""
    basis = [[-t ** i] + [int(j == i) for j in range(1, T.nvars)] for i in range(1, T.nvars)]
    return LinearFormMatrix(T.field, T.nrows, T.ncols, T.nvars - 1, [T.at(b) for b in basis])


def _meets(T: LinearFormMatrix, d: int, proofs: list) -> bool | None:
    """Whether the locus of T on P^m (m = T.nvars - 1) has dimension >= d, for 0 <= d < m.

    True or False, or None when F_p has too few hyperplanes to tell.
    Every rank proof taken is appended to `proofs`.
    """
    if d == 0:
        proofs.append(onto_everywhere(T.transpose()))
        return not proofs[-1].full
    count = _hyperplanes(T.nvars - 1, T.ncols, d)
    known = T.field.kind != "Fp" or count <= T.field.p
    for t in range(count if known else T.field.p):
        meets = _meets(_section(T, t), d - 1, proofs)
        if meets is False:
            return False
        known = known and meets
    return True if known else None


def degeneracy_dim(L: LinearFormMatrix) -> DegeneracyResult:
    """Dimension of the locus where L drops below full (short-side) rank.

    Exact at every dimension (module docstring).  The method records the
    modulus of the rank proofs: the field's own prime over F_p, else
    DEFAULT_PRIME.  Raises ValueError when the count needs more than
    MAX_SLICE_PROOFS slice proofs, or more hyperplanes than F_p has.
    """
    T = L if L.nrows >= L.ncols else L.transpose()
    r = T.ncols
    if r == 0:
        return DegeneracyResult("empty", None, {"kind": "exact_linear"},
                                note="no rank condition for an empty matrix")
    if r == 1:
        return _exact_linear(T)

    n = T.nvars - 1
    prime = T.field.p if T.field.kind == "Fp" else DEFAULT_PRIME
    whole = onto_everywhere(T.transpose())
    whole_method = _method("onto_rank", prime, whole, level=n)
    if whole.full:
        return DegeneracyResult("empty", None, whole_method,
                                note=f"full rank at every point: {whole}")
    generic = generically_injective(T)
    if not generic.full:
        return DegeneracyResult("dim", n, _method("generic_rank", prime, generic),
                                note=f"rank drop at a general point: {generic}")
    worst = sum(_worst_proofs(n, r, d) for d in range(1, n))
    if worst > MAX_SLICE_PROOFS:
        raise ValueError(f"deciding the locus of a rank-{r} matrix on P{n} may take "
                         f"{worst} slice proofs, over the cap {MAX_SLICE_PROOFS}")
    proofs = []
    for d in range(n - 1, 0, -1):
        meets = _meets(T, d, proofs)
        count = _hyperplanes(n, r, d)
        if meets is None:
            raise ValueError(f"over F_{prime} only {prime} hyperplanes H_t exist, and "
                             f"deciding dimension >= {d} on P{n} takes N_{d} = {count}")
        if meets:
            method = _method("hyperplane_count", prime, proofs[-1],
                             hyperplanes=count, proofs=len(proofs))
            return DegeneracyResult(
                "dim", d, method,
                note=(f"all {count} hyperplane sections H_t meet the locus in "
                      f"dimension >= {d - 1}, the last with {proofs[-1]}"))
    return DegeneracyResult("dim", 0, whole_method,
                            note=(f"the locus is not empty: {whole}; no curve, by "
                                  f"{len(proofs)} slice proofs"))


def _method(kind: str, prime: int, proof, **extra) -> dict:
    """The proof of a verdict: matrix shape, rank, field."""
    return {"kind": kind, "prime": prime, **extra, "shape": list(proof.shape),
            "rank": proof.rank, "over": proof.over}


class ClassificationReport(Record):
    # level: one of LEVELS
    __slots__ = ("level", "degeneracy", "warnings")
    defaults = {"warnings": list}
    confidence = "exact"                 # every degeneracy dimension is proven

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


def classify(M) -> ClassificationReport:
    """Regularity level of the cohomology sheaf from the left-map degeneracy.

    An empty locus is locally free; a locus of dimension <= n - 3 is
    reflexive and one of dimension <= n - 2 torsion-free.  So on P2 a
    reflexive sheaf is already locally free, and a finite locus reports
    torsion-free.  Refused on P^n for n > 3, where the levels are not named.
    """
    n = M.ambient_n
    if n > 3:
        raise ValueError(f"the regularity levels are named on P2 and P3, not P{n}")
    deg = degeneracy_dim(M.alpha)
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
                "free; the exact degeneracy verdict is suspect"
            )
    return ClassificationReport(level, deg, warnings)
