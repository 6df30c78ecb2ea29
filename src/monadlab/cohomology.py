"""Exact twist cohomology of the cohomology sheaf of a special monad.

Let E be the middle cohomology of O(-1)^v -> O^w -> O(1)^v' on P^n,
n >= 1, and write S_d for the degree-d piece of the coordinate ring.
The hypercohomology spectral sequence of the twisted monad has
E_1^{p,q} = H^q of its p-th term, nonzero only in rows q = 0 and q = n,
because line bundles on P^n have no middle cohomology.  Every h^p(E(k))
is then a rank computation on four multiplication maps:

    a_k : V (x) S_{k-1} -> W (x) S_k        (sections of the left map)
    b_k : W (x) S_k     -> V'(x) S_{k+1}    (sections of the right map)

together with their transposes in the dual degrees j = -k-n-1 (by Serre
duality the top cohomology of O(d) is dual to S_{-d-n-1}).  With
j = -k-n-1:

    h^0     = dim ker b_k - rank a_k
    h^1     = v'|S_{k+1}| - rank b_k
    h^{n-1} = v|S_{j+1}| - rank a*_j
    h^n     = (w|S_j| - rank a*_j) - rank b*_{j-1}

and every other h^p is 0.  On P2 the two middle contributions add up in
h^1.  On P1 they fall into h^0 and h^1, and the sequence has one
differential between nonzero terms, d_2 : H^1(O(-2))^v -> H^0(O)^v' at
k = -1, whose matrix is B_t A_s (Okonek-Schneider-Spindler, ch. II); its
rank is subtracted from both h^0 and h^1.  complex_cohomology is that one
formula for every n.

Most of those ranks are known in closed form once the complex is known
to be a monad.  A caller vouches for that by passing the complex's
exactlin.Certificate, and passes one only after it has shown all three
monad conditions: B*A = 0 (exactlin.certify), B onto at every point
(cert.right) and A injective as a sheaf map (cert.left, or a separate
proof).  Then, with H^0 left exact and onto_everywhere's theorem:

    rank a_k       = v|S_{k-1}|   for every k     (A injective as a sheaf map)
    rank b*_{j-1}  = v'|S_{j-1}|  for every j     (B^T injective as a sheaf map)
    rank b_k       = v'|S_{k+1}|  for k >= v'-1   (B onto at every point)
    rank a*_j      = v|S_{j+1}|   for j >= v-1    (A^T onto at every point,
                                                   only when cert.left holds)

cohomology_table certifies once per table (exactlin.certify).  It refuses
a complex whose B proof fails: B is then not onto at some point, so the
complex is not a monad (a bad reduction mod p, say).  When the A^T proof
fails, as for a sheaf that is not locally free, it decides as validate
does whether A is injective as a sheaf map (full column rank at one
seeded point, else exactlin.generically_injective) and refuses a left map
that is not.  pencil.p1_cohomology passes the certificate of a clean line,
which holds both proofs.  twist_cohomology is one column of a table.
A map out of a zero space has rank 0 with or without a certificate, and is
never built: a_k for k <= 0, b_k for k < 0, a*_j for j < 0 and b*_{j-1}
for j <= 0.  With a certificate only these are eliminated: b_k for
0 <= k < v'-1, a*_j for 0 <= j < v-1, a*_j for every j >= 0 when the A^T
proof fails (the negative twists of torsion-free and reflexive sheaves),
and the P1 d_2.  complex_cohomology called without a certificate
eliminates every rank of a map between nonzero spaces;
tests/test_closed_forms.py compares the closed forms with an oracle that
eliminates all four ranks, empty maps included.

The sections of the dual sheaf E^v = Hom(E, O) need no second monad.  By
Serre duality on P^n, which holds for every coherent sheaf (Hartshorne,
III.7.1), Hom(E(-k-n-1), O(-n-1)) is dual to H^n(E(-k-n-1)), so
h^0(E^v(k)) = h^n(E(-k-n-1)): stability_report and dual_vanishing_check
read it from E's own table.

The Euler characteristic identity is asserted on every call, and
cohomology_table adds h^1(E(-1)) = v' and h^{n-1}(E(-n)) = v; a
failure signals an engine defect, never a property of the input.  Where a
closed form stands in for a rank, the Euler identity partly restates it
and checks less; the comparison with the all-ranks path carries the rest
of that check.
"""

from __future__ import annotations

from math import comb

from .errors import MonadLabError
from .exactlin import Certificate, LinearFormMatrix, certify, monomial_count, mult_map
from .monad import SpecialMonad, _check_alpha_injective, invariants

DEFAULT_WINDOW = (-6, 2)
MAX_TWISTS = 10 ** 4
MAX_CELLS = 10 ** 7      # largest eliminated matrix of a table: up to about 4 s and 160 MiB


def chi_line_bundle(n: int, d: int) -> int:
    """Euler characteristic of O(d) on P^n: C(d+n, n) as a polynomial in d."""
    return comb(d + n, n) if d >= 0 else (-1) ** n * comb(-d - 1, n)


def complex_cohomology(A: LinearFormMatrix, B: LinearFormMatrix, k: int,
                       cert: Certificate | None = None) -> tuple[int, ...]:
    """(h^0, ..., h^n) of the middle cohomology of O(k-1)^v -> O(k)^w -> O(k+1)^v'.

    n = A.nvars - 1 is any n >= 1.  Exact, provided A is injective as a
    sheaf map, B surjective at every point and B*A = 0: the caller checks
    these.  Only the d_2 of P^1 at k = -1 is a differential between nonzero
    terms; the negativity and Euler checks catch any other engine defect.

    cert is the complex's exactlin.Certificate, passed only by a caller
    that has shown all three conditions.  With it, a_k and b*_{j-1} are
    taken in closed form at every twist, b_k from k = v'-1 on, and a*_j
    from j = v-1 on when cert.left holds (module docstring).  A map out of
    a zero space S_d, d < 0, has rank 0 and is never built.  Without a
    certificate every rank of a map between nonzero spaces is eliminated.
    """
    n = A.nvars - 1
    v, w, vp = A.ncols, A.nrows, B.nrows
    S = lambda d: monomial_count(n + 1, d)
    j = -k - n - 1

    # a map out of S_d = 0, d < 0, has rank 0 and is never built
    rank_a = v * S(k - 1) if cert or k <= 0 else mult_map(A, k - 1).rank()
    rank_b = (vp * S(k + 1) if cert and k >= vp - 1
              else 0 if k < 0 else mult_map(B, k).rank())
    rank_at = (v * S(j + 1) if cert and cert.left and j >= v - 1
               else 0 if j < 0 else mult_map(A.transpose(), j).rank())
    rank_bt = vp * S(j - 1) if cert or j <= 0 else mult_map(B.transpose(), j - 1).rank()
    # E_2 terms E(p, q), p in {-1, 0, 1}, q in {0, n}, placed by total degree
    # p + q.  The two left out, E(-1, 0) = ker a_k and E(1, n) = ker b*_{j-1},
    # vanish for a monad; the first can be nonzero only for k >= 1 and the
    # second only for k <= -n-2, never at the same twist, so either one
    # alone breaks the Euler identity below.
    out = [0] * (n + 1)
    out[0] += (w * S(k) - rank_b) - rank_a              # E(0, 0)
    out[1] += vp * S(k + 1) - rank_b                    # E(1, 0)
    out[n - 1] += v * S(j + 1) - rank_at                # E(-1, n)
    out[n] += (w * S(j) - rank_at) - rank_bt            # E(0, n)
    if n == 1 and k == -1:
        # d_2 : H^1(O(-2))^v -> H^0(O)^v' lifts 1/(st) through the t chart:
        # B * (A_s / t) = B_t A_s, since B_s A_s = 0
        rank_d2 = B.coeffs[1].matmul(A.coeffs[0]).rank()
        out[0] -= rank_d2
        out[1] -= rank_d2
    out = tuple(out)

    if any(h < 0 for h in out):
        raise MonadLabError(f"negative cohomology dimension at twist {k}: {out}")
    euler = sum((-1) ** p * h for p, h in enumerate(out))
    expected = (w * chi_line_bundle(n, k) - v * chi_line_bundle(n, k - 1)
                - vp * chi_line_bundle(n, k + 1))
    if euler != expected:
        raise MonadLabError(
            f"Euler characteristic mismatch at twist {k}: got {euler}, "
            f"expected {expected}")
    return out


def _twist_column(M: SpecialMonad, k: int, cert: Certificate) -> tuple[int, ...]:
    out = complex_cohomology(M.alpha, M.beta, k, cert)
    n = M.ambient_n
    if k == -1 and out[1] != M.v_prime:
        raise MonadLabError(f"h^1(E(-1)) = {out[1]} != v' = {M.v_prime}")
    if k == -n and out[n - 1] != M.v:
        raise MonadLabError(f"h^{n - 1}(E({k})) = {out[n - 1]} != v = {M.v}")
    return out


class CohomologyTable:
    """h^p(E(k)) over a twist window; rows indexed by p, columns by k."""

    __slots__ = ("ambient_n", "k_min", "k_max", "rows")
    def __init__(self, ambient_n: int, k_min: int, k_max: int, rows: list[list[int]]):
        self.ambient_n = ambient_n
        self.k_min = k_min
        self.k_max = k_max
        self.rows = rows

    def entry(self, p: int, k: int) -> int:
        if not (self.k_min <= k <= self.k_max and 0 <= p <= self.ambient_n):
            raise KeyError(f"(p, k) = ({p}, {k}) outside the table")
        return self.rows[p][k - self.k_min]

    def column(self, k: int) -> tuple[int, ...]:
        return tuple(self.rows[p][k - self.k_min] for p in range(self.ambient_n + 1))

    def euler(self, k: int) -> int:
        return sum((-1) ** p * h for p, h in enumerate(self.column(k)))

    def add(self, other: "CohomologyTable") -> "CohomologyTable":
        if (self.ambient_n, self.k_min, self.k_max) != (other.ambient_n, other.k_min, other.k_max):
            raise ValueError("tables must share ambient space and window")
        rows = [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return CohomologyTable(self.ambient_n, self.k_min, self.k_max, rows)

    def to_json_obj(self):
        return {
            "ambient_n": self.ambient_n,
            "k_min": self.k_min,
            "k_max": self.k_max,
            "h": self.rows,
        }

    def to_csv(self) -> str:
        header = "p," + ",".join(str(k) for k in range(self.k_min, self.k_max + 1))
        lines = [header]
        for p, row in enumerate(self.rows):
            lines.append(f"{p}," + ",".join(str(h) for h in row))
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        ks = list(range(self.k_min, self.k_max + 1))
        lines = ["| p\\k | " + " | ".join(str(k) for k in ks) + " |",
                 "|" + "---|" * (len(ks) + 1)]
        for p, row in enumerate(self.rows):
            lines.append(f"| {p} | " + " | ".join(str(h) for h in row) + " |")
        return "\n".join(lines) + "\n"


def cohomology_table(M: SpecialMonad, k_min: int, k_max: int) -> CohomologyTable:
    """Exact table of twist cohomology on [k_min, k_max].

    The monad is certified once per table (exactlin.certify): the composite
    is checked and both onto_everywhere proofs are taken; see the module
    docstring for the ranks the certificate fixes.  A right map that is not
    onto at every point, or a left map that is not injective as a sheaf
    map, is refused, since the complex is then not a monad.  An empty
    window, one wider than MAX_TWISTS, a proof of more than MAX_CELLS cells
    or, when the A^T proof fails, an a*_j of more than MAX_CELLS cells (the
    largest at k_min) is refused before any twist's rank.
    """
    if k_min > k_max:
        raise ValueError("empty twist window")
    if k_max - k_min + 1 > MAX_TWISTS:
        raise ValueError(f"twist window [{k_min}, {k_max}] exceeds the cap {MAX_TWISTS}")
    n = M.ambient_n
    S = lambda d: monomial_count(n + 1, d)
    # onto_everywhere(P) eliminates mult_map(P, b-1), b = P.nrows: b|S_b| x a|S_{b-1}|
    for what, b in (("the alpha^T proof", M.v), ("the beta proof", M.v_prime)):
        _under_cap(what, b * S(b) * M.w * S(b - 1))
    cert = certify(M.alpha, M.beta)
    if not cert.right:
        raise MonadLabError("right map is not onto at every point; not a monad")
    if not cert.left:
        j = -k_min - n - 1      # a*_j has v|S_{j+1}| x w|S_j| cells, most at k_min
        _under_cap(f"twist {k_min}", M.v * S(j + 1) * M.w * S(j))
        if not _check_alpha_injective(M).passed:
            raise MonadLabError("left map is not injective; not a monad")
    cols = [_twist_column(M, k, cert) for k in range(k_min, k_max + 1)]
    rows = [[col[p] for col in cols] for p in range(n + 1)]
    return CohomologyTable(n, k_min, k_max, rows)


def _under_cap(what: str, cells: int) -> None:
    if cells > MAX_CELLS:
        raise ValueError(f"{what} would eliminate a matrix of {cells} cells, "
                         f"over the cap {MAX_CELLS}")


def twist_cohomology(M: SpecialMonad, k: int) -> tuple[int, ...]:
    """(h^0, ..., h^n) of E(k); exact: the one column of cohomology_table(M, k, k)."""
    return cohomology_table(M, k, k).column(k)


# ---------------------------------------------------------------------------
# admissibility


def _vanishing_demanded(n: int, p: int, k: int) -> bool:
    """Whether h^p(E(k)) = 0 is part of the admissibility pattern.

    One rule on P2 and P3: h^p for p + k >= 0 when p >= 2, and h^p for
    p + k <= -1 when p <= 1 and p < n - 1.  On P3 that is h^0 for
    k <= -1, h^1 for k <= -2, h^2 for k >= -2 and h^3 for k >= -3.  On P2
    it is the instanton-sheaf pattern, h^0 for k <= -1 and h^2 for
    k >= -2, with no condition on h^1 = h^{n-1}: every monad has
    h^{n-1}(E(-n)) = v, so the P3 condition on h^1 is unsatisfiable there.
    """
    if p >= 2:
        return p + k >= 0
    return p < n - 1 and p + k <= -1


class AdmissibilityReport:
    __slots__ = ("ambient_n", "k_min", "k_max", "violations")
    def __init__(self, ambient_n: int, k_min: int, k_max: int,
                 violations: list[tuple[int, int]]):
        self.ambient_n = ambient_n
        self.k_min = k_min
        self.k_max = k_max
        self.violations = violations     # (p, k) with nonzero h where 0 demanded

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self):
        return {
            "window": [self.k_min, self.k_max],
            "violations": [list(v) for v in self.violations],
            "passed": self.passed,
        }


def _pattern_defined(n: int) -> None:
    if n > 3:
        raise ValueError(f"the admissibility pattern is defined on P2 and P3, not P{n}")


def admissibility_violations(table: CohomologyTable) -> list[tuple[int, int]]:
    """(p, k) entries of a table that break the admissibility vanishing
    pattern; refused on P^n for n > 3, where the pattern is not defined."""
    _pattern_defined(table.ambient_n)
    out = []
    for p in range(table.ambient_n + 1):
        for k in range(table.k_min, table.k_max + 1):
            if _vanishing_demanded(table.ambient_n, p, k) and table.entry(p, k) != 0:
                out.append((p, k))
    return out


def admissibility_check(M: SpecialMonad, window: tuple[int, int] = DEFAULT_WINDOW) -> AdmissibilityReport:
    """Check the admissibility vanishing pattern on a finite twist window.

    The window must cover [-6, 2]; the monad construction guarantees the
    pattern beyond any finite window, and the report states the window.
    The pattern is defined on P2 and P3 only, and a larger n is refused
    before any table is built.
    """
    _pattern_defined(M.ambient_n)
    k_min, k_max = window
    if k_min > -6 or k_max < 2:
        raise ValueError(f"window [{k_min}, {k_max}] must cover [-6, 2]")
    table = cohomology_table(M, k_min, k_max)
    return AdmissibilityReport(M.ambient_n, k_min, k_max, admissibility_violations(table))


# ---------------------------------------------------------------------------
# stability


class StabilityReport:
    __slots__ = ("rank", "h0", "h0_dual", "semistable", "stable", "criterion", "notes")
    def __init__(self, rank: int, h0: int, h0_dual: int | None, semistable: str,
                 stable: str, criterion: str, notes: list[str] | None = None):
        self.rank = rank
        self.h0 = h0
        self.h0_dual = h0_dual
        self.semistable = semistable     # "yes" | "inconclusive"
        self.stable = stable             # "yes" | "no" | "inconclusive"
        self.criterion = criterion
        self.notes = [] if notes is None else notes

    def to_json_obj(self):
        return {name: getattr(self, name) for name in self.__slots__}


def stability_report(M: SpecialMonad, classification) -> StabilityReport:
    """Slope-stability verdicts from global-section vanishing.

    Rank 2 torsion-free and rank 3 reflexive sheaves with c1 = 0 are
    semistable; stability is equivalent to the vanishing of H^0(E) (and of
    H^0(E*) in rank 3, read from E's own table by Serre duality, and only
    when H^0(E) = 0).  Outside those hypotheses the verdicts stay
    inconclusive and the section counts are simply reported.
    """
    inv = invariants(M)
    h0 = twist_cohomology(M, 0)[0]
    notes: list[str] = []
    level = classification.level if classification is not None else None

    applicable = (M.ambient_n == 3 and inv.c1 == 0)
    if not applicable:
        notes.append("criteria cover c1 = 0 sheaves on P3 only")
        return StabilityReport(inv.rank, h0, None, "inconclusive", "inconclusive",
                               "none", notes)

    if inv.rank == 2 and level in ("torsion_free", "reflexive", "locally_free"):
        stable = "yes" if h0 == 0 else "no"
        return StabilityReport(inv.rank, h0, None, "yes", stable,
                               "rank 2 torsion-free: semistable; stable iff h0 = 0",
                               notes)
    if inv.rank == 3 and level in ("reflexive", "locally_free"):
        criterion = "rank 3 reflexive: semistable; stable iff h0 = h0(dual) = 0"
        if h0 != 0:
            return StabilityReport(inv.rank, h0, None, "yes", "no", criterion, notes)
        h0_dual = twist_cohomology(M, -4)[3]      # Serre duality: h^0(E^v) = h^3(E(-4))
        stable = "yes" if h0_dual == 0 else "no"
        return StabilityReport(inv.rank, h0, h0_dual, "yes", stable, criterion, notes)

    notes.append("no criterion applies at this rank/regularity")
    return StabilityReport(inv.rank, h0, None, "inconclusive", "inconclusive",
                           "none", notes)


# ---------------------------------------------------------------------------
# dual vanishing


class DualVanishingReport:
    __slots__ = ("k_min", "k_max", "values", "violations")
    def __init__(self, k_min: int, k_max: int, values: dict[int, int], violations: list[int]):
        self.k_min = k_min
        self.k_max = k_max
        self.values = values             # k -> h^0(E*(k))
        self.violations = violations

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json_obj(self):
        return {
            "window": [self.k_min, self.k_max],
            "h0_dual": {str(k): v for k, v in sorted(self.values.items())},
            "violations": self.violations,
            "passed": self.passed,
        }


def dual_vanishing_check(M: SpecialMonad,
                         window: tuple[int, int] = (-5, -1)) -> DualVanishingReport:
    """Verify h^0(E*(k)) = 0 on the window.

    By Serre duality h^0(E*(k)) = h^n(E(-k-n-1)) for every coherent sheaf
    (Hartshorne III.7.1), so the values are row n of E's own table on the
    mirrored window, read backwards; no classification is needed.
    """
    k_min, k_max = window
    n = M.ambient_n
    hn = cohomology_table(M, -k_max - n - 1, -k_min - n - 1).rows[n][::-1]
    values = dict(zip(range(k_min, k_max + 1), hn))
    violations = [k for k, h in sorted(values.items()) if h != 0]
    return DualVanishingReport(k_min, k_max, values, violations)
