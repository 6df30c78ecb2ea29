"""Brute-force oracles shared by the tests."""

import itertools
from fractions import Fraction
from math import gcd, lcm


def projective_points(p: int, nvars: int):
    """All points of P^{nvars-1}(F_p), one representative each (first nonzero
    coordinate 1), ordered by the position of that coordinate, then the rest
    lexicographically."""
    for lead in range(nvars):
        tail = nvars - lead - 1
        for rest in itertools.product(range(p), repeat=tail):
            yield [0] * lead + [1] + list(rest)


def grid_injective(L) -> bool:
    """Whether a matrix of linear forms has full column rank at some point.

    Every maximal minor has degree <= v = L.ncols in each variable, so it
    vanishes identically iff it vanishes on the grid {0..v}^nvars; the
    grid's coordinates must stay distinct in the field, so over F_p it
    needs p > v.
    """
    v = L.ncols
    if L.field.kind == "Fp" and L.field.p <= v:
        raise ValueError(f"the grid needs p > {v}")
    return any(reference_rank(L.at(list(pt))) == v
               for pt in itertools.product(range(v + 1), repeat=L.nvars) if any(pt))


def reference_rank(m) -> int:
    """Rank of a DenseMatrix that never reduces a matrix over Q mod p.

    Over Q it is the Bareiss elimination alone, on the rows cleared of
    denominators; over F_p it is DenseMatrix.rank.
    """
    from monadlab.exactlin import _echelon, _int_rows
    if m.field.kind == "Q":
        return len(_echelon(_int_rows(m.data), m.ncols, None))
    return m.rank()


class ReferenceScan:
    """Splits every line the long way: restrict, line_status, splitting_type.

    A drop-in for monadlab.lines_scan._ScanContext with no per-scan
    certificate and no jump matrix, so a scan run with it in place is the
    reference that the scan's shortcuts must reproduce.
    """

    def __init__(self, M):
        self.M = M

    def split(self, line):
        from monadlab.pencil import line_status, restrict, splitting_type
        pc = restrict(self.M, line)
        if not line_status(pc).clean:
            return ("degenerate", None)
        return ("clean", splitting_type(pc).parts)

    def split_drawn(self, points, minors, line=None):
        """split of a line of the scan's stream, rebuilt from its points
        alone by Line.from_points; minors are not read."""
        from monadlab.pencil import Line
        line = line or Line.from_points(self.M.field, *points)
        return (*self.split(line), line)


def reference_compose_check(B, A) -> bool:
    """Whether B*A vanishes as a matrix of quadrics, coefficient by
    coefficient: B_t A_t = 0 for every t and B_s A_t + B_t A_s = 0 for
    s < t, as monadlab's compose_check decided it before it took one
    product of multiplication maps."""
    m = B.nvars
    for s in range(m):
        for t in range(s, m):
            st = B.coeffs[s].matmul(A.coeffs[t]).data
            ts = B.coeffs[t].matmul(A.coeffs[s]).data if s != t else None
            rows = st if ts is None else [[a + b for a, b in zip(r1, r2)]
                                          for r1, r2 in zip(st, ts)]
            if any(x for row in B.field.reduce(rows) for x in row):
                return False
    return True


def reference_cohomology(A, B, k):
    """(h^0, ..., h^n) of the middle cohomology of O(k-1)^v -> O(k)^w -> O(k+1)^v'
    with all four ranks eliminated, empty maps included, and no proof taken.

    monadlab's cohomology.complex_cohomology written out again without its
    shortcuts: every rank is reference_rank(mult_map(...)), also for a map
    out of a zero space, so over Q no rank is taken mod p.  Its negativity
    and Euler checks raise the same messages.
    """
    from monadlab.cohomology import chi_line_bundle
    from monadlab.errors import MonadLabError
    from monadlab.exactlin import monomial_count, mult_map
    n = A.nvars - 1
    v, w, vp = A.ncols, A.nrows, B.nrows
    S = lambda d: monomial_count(n + 1, d)
    j = -k - n - 1
    rank_a = reference_rank(mult_map(A, k - 1))
    rank_b = reference_rank(mult_map(B, k))
    rank_at = reference_rank(mult_map(A.transpose(), j))
    rank_bt = reference_rank(mult_map(B.transpose(), j - 1))
    out = [0] * (n + 1)
    out[0] += w * S(k) - rank_b - rank_a
    out[1] += vp * S(k + 1) - rank_b
    out[n - 1] += v * S(j + 1) - rank_at
    out[n] += w * S(j) - rank_at - rank_bt
    if n == 1 and k == -1:
        rank_d2 = reference_rank(B.coeffs[1].matmul(A.coeffs[0]))
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


def reference_twist(M, k):
    """(h^0, ..., h^n) of E(k) with every rank eliminated and no proof taken.

    monadlab's twist_cohomology before it became a column of
    cohomology_table: the composite check, then reference_cohomology, then
    the checks h^1(E(-1)) = v' and, on P3, h^2(E(-3)) = v, with the
    messages of cohomology._twist_column.
    """
    from monadlab.errors import MonadLabError
    from monadlab.exactlin import compose_check
    if not compose_check(M.beta, M.alpha):
        raise MonadLabError("composite does not vanish; not a monad")
    out = reference_cohomology(M.alpha, M.beta, k)
    if k == -1 and out[1] != M.v_prime:
        raise MonadLabError(f"h^1(E(-1)) = {out[1]} != v' = {M.v_prime}")
    if M.ambient_n == 3 and k == -3 and out[2] != M.v:
        raise MonadLabError(f"h^2(E(-3)) = {out[2]} != v = {M.v}")
    return out


def _rref(field, rows, ncols):
    """Reduced row echelon form in place; returns the pivot column list.

    Entries must be canonical on entry; each pivot step reduces once.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.coerce(Fraction(1, rows[r][c]))
        prow = rows[r] = [inv * x for x in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if f and i != r:
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        field.reduce(rows)
        pivots.append(c)
        r += 1
    return pivots


def reference_kernel(m):
    """Rank and right kernel of a DenseMatrix by Fraction RREF.

    The kernel is a list of basis vectors: vector c is 1 at free column c
    and 0 at the other free columns, over Q scaled to coprime integers with
    positive leading entry.
    """
    rows = m.copy_data()
    pivots = _rref(m.field, rows, m.ncols)
    vecs = []
    for fc in sorted(set(range(m.ncols)) - set(pivots)):
        vec = [0] * m.ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        if m.field.kind == "Q":
            mult = lcm(*(Fraction(x).denominator for x in vec))
            ints = [int(x * mult) for x in vec]
            g = gcd(*ints)
            if next(x for x in ints if x) < 0:
                g = -g
            vec = [Fraction(x // g) for x in ints]
        vecs.append(m.field.reduce([vec])[0])
    return len(pivots), vecs


def reference_sample_line(seed: int, index: int, field, ambient_n: int = 3):
    """monadlab.lines_scan.sample_line before it drew with getrandbits:
    randrange and randint draws, and Line.from_points.  The lines of
    sample_line must equal these."""
    from monadlab._seeds import rng_for
    from monadlab.errors import MonadLabError
    from monadlab.monad import COEFF_BOUND
    from monadlab.pencil import Line
    rng = rng_for("line", seed, index, field.name)
    nvars = ambient_n + 1
    while True:
        if field.kind == "Fp":
            rows = [[rng.randrange(field.p) for _ in range(nvars)] for _ in range(2)]
        else:
            rows = [[rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(nvars)]
                    for _ in range(2)]
        try:
            return Line.from_points(field, rows[0], rows[1])
        except MonadLabError:
            continue
