"""Monads on P^n for every 2 <= n <= MAX_N: one formula per rule.

The null-correlation monad on P^n, n odd,

    O(-1) --(x_0, ..., x_n)^T--> O^(n+1) --(-x_1, x_0, -x_3, x_2, ...)--> O(1)

has a self-dual bundle of rank n - 1 as its cohomology.  Its tables are
pinned on P5 and P7, and checked against Serre duality, additivity under
direct sums and a unimodular change of coordinates.  The rules that are
defined only on P2 and P3 (Chern data, the admissibility pattern, the
regularity level names) refuse a larger n with a ValueError that names
the rule; dualize, whose one condition is a rank, runs on every P^n.
"""

import random
from math import comb, factorial, prod

import pytest

from monadlab import (
    QQ,
    DenseMatrix,
    LinearFormMatrix,
    MonadDecodeError,
    ShapeMismatchError,
    SpecialMonad,
    admissibility_check,
    admissibility_violations,
    chi_line_bundle,
    classify,
    cohomology_table,
    decode,
    direct_sum,
    dualize,
    encode,
    forms_matrix,
    invariants,
    jumping_scan,
    random_monad,
    restrict,
    special_monad_exists,
    splitting_type,
    stability_report,
    to_prime_field,
    trivial_monad,
    trivial_splitting_test,
    validate,
)
from monadlab.cohomology import _vanishing_demanded
from monadlab.lines_scan import sample_line
from monadlab.monad import MAX_N


def null_correlation(n: int) -> SpecialMonad:
    alpha = forms_matrix(QQ, n + 1, [[f"x{i}"] for i in range(n + 1)])
    beta = forms_matrix(QQ, n + 1, [[f for i in range(0, n + 1, 2)
                                     for f in (f"-x{i + 1}", f"x{i}")]])
    return SpecialMonad(n, alpha, beta)


# (n, window) -> {(p, k): h^p(E(k))}; every other entry of the window is 0
NULL_CORRELATION_TABLES = {
    (5, (-8, 2)): {(0, 1): 14, (0, 2): 64, (1, -1): 1, (4, -5): 1,
                   (5, -7): 14, (5, -8): 64},
    (7, (-10, 2)): {(0, 1): 27, (0, 2): 160, (1, -1): 1, (6, -7): 1,
                    (7, -9): 27, (7, -10): 160},
}


@pytest.mark.parametrize("n,window", list(NULL_CORRELATION_TABLES))
def test_null_correlation_tables_are_pinned(n, window):
    M = null_correlation(n)
    assert validate(M).overall
    table = cohomology_table(M, *window)
    nonzero = {(p, k): table.entry(p, k) for p in range(n + 1)
               for k in range(window[0], window[1] + 1) if table.entry(p, k)}
    assert nonzero == NULL_CORRELATION_TABLES[(n, window)]


@pytest.mark.parametrize("n", [5, 7])
def test_serre_duality_of_the_self_dual_bundles(n):
    M = null_correlation(n)
    table = cohomology_table(M, -12, 6)
    dual = cohomology_table(M, -6 - n - 1, 12 - n - 1)
    for k in range(-12, 7):
        for i in range(n + 1):
            assert table.entry(i, k) == dual.entry(n - i, -k - n - 1), (i, k)


@pytest.mark.parametrize("M", [null_correlation(5), null_correlation(7),
                               random_monad(1, 6, 1, seed=0, ambient_n=5)],
                         ids=["P5", "P7", "(1,6,1)/P5"])
def test_tables_add_under_direct_sum(M):
    table = cohomology_table(M, -9, 2)
    doubled = cohomology_table(direct_sum(M, M), -9, 2)
    assert doubled.rows == [[2 * h for h in row] for row in table.rows]


def _unimodular(n: int, seed: int):
    """A seeded integer matrix of determinant +-1: row operations, shuffled."""
    rng = random.Random(seed)
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    rng.shuffle(A)
    return A


def _substitute(L: LinearFormMatrix, A) -> LinearFormMatrix:
    """L with x_s replaced by sum_t A[s][t] x_t."""
    n = L.nvars
    mats = [DenseMatrix(L.field, L.nrows, L.ncols,
                        [[sum(A[s][t] * L.coeffs[s].data[r][c] for s in range(n))
                          for c in range(L.ncols)] for r in range(L.nrows)])
            for t in range(n)]
    return LinearFormMatrix(L.field, L.nrows, L.ncols, n, mats)


@pytest.mark.parametrize("M", [null_correlation(5), null_correlation(7),
                               random_monad(2, 8, 2, seed=0, ambient_n=5)],
                         ids=["P5", "P7", "(2,8,2)/P5"])
def test_tables_are_invariant_under_a_unimodular_change_of_coordinates(M):
    table = cohomology_table(M, -9, 2)
    for seed in range(2):
        A = _unimodular(M.ambient_n + 1, seed)
        moved = SpecialMonad(M.ambient_n, _substitute(M.alpha, A), _substitute(M.beta, A))
        assert moved != M and validate(moved).overall
        assert cohomology_table(moved, -9, 2).rows == table.rows


@pytest.mark.parametrize("dims,n", [((1, 6, 1), 5), ((2, 8, 2), 5), ((1, 8, 1), 7)])
def test_random_monads_on_larger_spaces_validate_and_tabulate(dims, n):
    M = random_monad(*dims, seed=0, ambient_n=n)
    assert M.ambient_n == n and M.dims() == dims
    assert validate(M).overall
    table = cohomology_table(M, -n - 3, 2)
    assert table.entry(1, -1) == dims[2] and table.entry(n - 1, -n) == dims[0]
    v, w, vp = dims
    for k in range(-n - 3, 3):
        assert table.euler(k) == (w * chi_line_bundle(n, k) - v * chi_line_bundle(n, k - 1)
                                  - vp * chi_line_bundle(n, k + 1))


def _chi_before(n, d):
    """chi_line_bundle as three branches, before it became one formula."""
    return {3: (d + 1) * (d + 2) * (d + 3) // 6, 2: (d + 1) * (d + 2) // 2, 1: d + 1}[n]


def test_chi_line_bundle_is_one_polynomial():
    for n in range(1, 4):
        for d in range(-30, 31):
            assert chi_line_bundle(n, d) == _chi_before(n, d), (n, d)
    for n in range(1, MAX_N + 1):
        for d in range(-30, 31):
            # (d+1)...(d+n)/n!, the polynomial C(d+n, n)
            assert chi_line_bundle(n, d) == prod(range(d + 1, d + n + 1)) // factorial(n)
            if d >= 0:
                assert chi_line_bundle(n, d) == comb(d + n, n)


def _demanded_before(n, p, k):
    """_vanishing_demanded with its P2 and P3 branches."""
    if n == 2:
        return {0: k <= -1, 2: k >= -2}.get(p, False)
    return p + k <= -1 if p <= 1 else p + k >= 0


def test_vanishing_pattern_is_one_rule_on_p2_and_p3():
    for n in (2, 3):
        for p in range(n + 1):
            for k in range(-12, 8):
                assert _vanishing_demanded(n, p, k) == _demanded_before(n, p, k), (n, p, k)


def test_floystad_criterion_on_pn():
    # on P3 the criterion is the one it always was
    for v in range(6):
        for w in range(14):
            for vp in range(6):
                before = (w >= 2 * vp + 2 and w >= v + vp) or (w >= v + vp + 3)
                assert special_monad_exists(v, w, vp) == before
                assert special_monad_exists(v, w, vp, 3) == before
    assert special_monad_exists(0, 3, 1, 2) and not special_monad_exists(0, 3, 1, 3)
    assert special_monad_exists(0, 4, 2, 2) and not special_monad_exists(0, 4, 2, 3)
    assert special_monad_exists(1, 8, 1, 7) and not special_monad_exists(1, 7, 1, 7)


@pytest.mark.parametrize("dims", [(0, 3, 1), (0, 4, 2)])
def test_monads_on_p2_that_the_p3_bounds_refused(dims):
    M = random_monad(*dims, seed=0, ambient_n=2)
    assert M.ambient_n == 2 and M.dims() == dims
    assert validate(M).overall
    cohomology_table(M, -6, 2)


def test_the_ambient_dimension_is_capped():
    for n in range(2, MAX_N + 1):
        assert trivial_monad(2, n).ambient_n == n
    nc = null_correlation(5)
    for bad in (1, MAX_N + 1, 5.0, True):
        with pytest.raises(ShapeMismatchError, match="ambient dimension"):
            SpecialMonad(bad, nc.alpha, nc.beta)
        # refused before a form is built, which raised a bare TypeError for 5.0
        with pytest.raises(ShapeMismatchError, match="ambient dimension"):
            trivial_monad(1, bad)
        for dims in ((0, 3, 0), (1, 4, 1)):
            with pytest.raises(ShapeMismatchError, match="ambient dimension"):
                random_monad(*dims, ambient_n=bad)


@pytest.mark.parametrize("value", ["8", "2.0", "true", "1", "\"3\""])
def test_decode_refuses_an_ambient_dimension_off_the_cap(value):
    data = encode(random_monad(1, 4, 1, seed=0, ambient_n=2)).decode("utf-8")
    data = data.replace('"ambient_n": 2', f'"ambient_n": {value}')
    with pytest.raises(MonadDecodeError, match="ambient_n must be an integer from 2 to 7"):
        decode(data)


def test_decode_round_trips_on_p5_and_p7():
    for n in (5, 7):
        M = null_correlation(n)
        assert decode(encode(M)) == M


def test_the_general_pipelines_run_on_p5():
    M = null_correlation(5)
    reduced = to_prime_field(M, 101)
    assert validate(reduced).overall
    assert cohomology_table(reduced, -8, 2).rows == cohomology_table(M, -8, 2).rows
    for index in range(3):
        parts = splitting_type(restrict(M, sample_line(1, index, QQ, 5)))
        assert tuple(parts) == (0, 0, 0, 0)
    report = trivial_splitting_test(M, samples=3)
    assert report.certified and report.witness is not None
    # local freeness is one rank on any P^n; the bundle is self-dual, so
    # its dual monad has the same table
    D = dualize(M)
    assert validate(D).overall
    assert cohomology_table(D, -8, 2).rows == cohomology_table(M, -8, 2).rows


def test_the_p2_and_p3_rules_refuse_p5():
    M = null_correlation(5)
    with pytest.raises(ValueError, match="Chern data stop at c3.*not P5"):
        invariants(M)
    with pytest.raises(ValueError, match="admissibility pattern.*not P5"):
        admissibility_check(M)
    # the pattern is refused where it is applied, also to a table built apart
    with pytest.raises(ValueError, match="admissibility pattern.*not P5"):
        admissibility_violations(cohomology_table(M, -6, 2))
    with pytest.raises(ValueError, match="regularity levels.*not P5"):
        classify(M)
    # their callers inherit the refusal
    with pytest.raises(ValueError, match="Chern data"):
        stability_report(M, None)
    with pytest.raises(ValueError, match="Chern data"):
        jumping_scan(M, 101, 10)
