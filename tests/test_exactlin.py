"""Exact linear algebra: ranks, kernels, monomial bases, multiplication maps."""

import random
from fractions import Fraction
from math import comb

import pytest

from monadlab.errors import ShapeMismatchError
from monadlab.monad import example_monad, random_monad, to_prime_field
from oracles import grid_injective, projective_points, reference_kernel
from monadlab.exactlin import (
    DEFAULT_PRIME,
    GF,
    QQ,
    DenseMatrix,
    LinearFormMatrix,
    compose_check,
    forms_matrix,
    generically_injective,
    kernel_basis,
    linear_locus,
    monomial_basis,
    monomial_count,
    monomial_exponents,
    mult_map,
    onto_everywhere,
    parse_linear_form,
    rank,
)


def gauss_rank_oracle(rows, ncols):
    """Independent plain fraction Gaussian elimination, for cross-checking."""
    m = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def test_rank_examples():
    assert rank(DenseMatrix.from_rows(QQ, [[1, 0], [0, 0]])) == 1
    assert rank(DenseMatrix.zeros(QQ, 3, 5)) == 0
    # coefficient matrix of (-y, x, z, w): rows are the coefficient vectors
    rows = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    assert gauss_rank_oracle(rows, 4) == 4
    assert rank(DenseMatrix.from_rows(QQ, rows)) == 4


def test_kernel_examples():
    assert kernel_basis(DenseMatrix.identity(QQ, 3)).ncols == 0
    assert kernel_basis(DenseMatrix.zeros(QQ, 2, 3)).ncols == 3
    k = kernel_basis(DenseMatrix.from_rows(QQ, [[1, 1]]))
    assert k.ncols == 1
    assert [k.data[0][0], k.data[1][0]] == [Fraction(1), Fraction(-1)]


def test_rank_plus_kernel_is_cols():
    rng = random.Random(2024)
    for _ in range(80):
        r, c = rng.randint(0, 6), rng.randint(0, 6)
        rows = [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        for field in (QQ, GF(32003)):
            m = DenseMatrix(field, r, c, [[field.coerce(x) for x in row] for row in rows])
            kern = m.right_kernel()
            assert m.rank() + kern.ncols == c
            if kern.ncols and r:
                assert m.matmul(kern).is_zero()


def test_bareiss_matches_plain_gauss():
    rng = random.Random(7)
    for _ in range(60):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(c)]
                for _ in range(r)]
        m = DenseMatrix(QQ, r, c, rows)
        assert m.rank() == gauss_rank_oracle(rows, c)


def test_rank_agrees_over_q_and_large_primes():
    rng = random.Random(13)
    rows = [[rng.randint(-50, 50) for _ in range(9)] for _ in range(7)]
    rq = rank(DenseMatrix.from_rows(QQ, rows))
    for p in (32003, 65521, 1000003):
        assert rank(DenseMatrix.from_rows(GF(p), rows)) == rq


def _sample_matrix(rng, field, r, c):
    """A seeded r x c matrix: dense, sparse, zero, or of planted rank."""
    def entry():
        if field.kind == "Q":
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randrange(field.p)

    kind = rng.choice(("dense", "sparse", "zero", "planted"))
    if kind == "zero":
        rows = [[0] * c for _ in range(r)]
    elif kind == "planted":          # a product through k dimensions: rank <= k
        k = rng.randint(0, min(r, c))
        a = [[entry() for _ in range(k)] for _ in range(r)]
        b = [[entry() for _ in range(c)] for _ in range(k)]
        rows = [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(c)]
                for i in range(r)]
    else:
        density = 1.0 if kind == "dense" else 0.3
        rows = [[entry() if rng.random() < density else 0 for _ in range(c)]
                for _ in range(r)]
    return DenseMatrix(field, r, c, field.reduce(rows))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(101), GF(32003)],
                         ids=lambda f: f.name)
def test_rank_and_kernel_match_the_rref_reference(field):
    # differential test of the one echelon routine against the Fraction
    # RREF it replaced: same rank, and the same canonical kernel basis
    rng = random.Random(field.name)
    shapes = [(0, 0), (0, 5), (5, 0), (1, 9), (9, 1), (2, 9), (9, 2), (9, 9)]
    shapes += [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(200)]
    for r, c in shapes:
        m = _sample_matrix(rng, field, r, c)
        ref_rank, ref_kernel = reference_kernel(m)
        kern = m.right_kernel()
        assert m.rank() == ref_rank, (r, c, m.data)
        assert (kern.nrows, kern.ncols) == (c, len(ref_kernel))
        assert kern.transpose().data == ref_kernel, (r, c, m.data)


PRIME = DEFAULT_PRIME    # the modulus of every rank over Q


def _echelon_calls(monkeypatch):
    """The modulus of each elimination: None for a Bareiss elimination over Z."""
    from monadlab import exactlin
    echelon = exactlin._echelon
    calls = []

    def counting(rows, ncols, p):
        calls.append(p)
        return echelon(rows, ncols, p)
    monkeypatch.setattr(exactlin, "_echelon", counting)
    return calls


@pytest.mark.parametrize("rows,want,path", [
    ([[PRIME]], 1, [PRIME, None]),
    ([[1, 2], [3, 6 + 5 * PRIME]], 2, [PRIME, None]),                 # determinant 5p
    ([[PRIME, 0, 0], [0, 2 * PRIME, 0], [0, 0, 1]], 3, [PRIME, None]),  # rank 1 mod p
    ([[PRIME, 2 * PRIME], [1, 2]], 1, [PRIME, None]),                 # deficient over Q too
    ([[Fraction(1, PRIME), 1], [0, 1]], 2, [None]),                   # a denominator vanishes mod p
    ([[Fraction(1, 3 * PRIME), Fraction(2, 3 * PRIME)], [1, 2]], 1, [None]),
    ([[Fraction(1, 2), 1], [0, 3]], 2, [PRIME]),                      # full mod p: no Bareiss
])
def test_q_rank_where_the_reduction_falls_short(monkeypatch, rows, want, path):
    # the rank mod p is only a lower bound: where it falls short of
    # min(nrows, ncols), or cannot be taken, Bareiss decides
    m = DenseMatrix.from_rows(QQ, rows)
    calls = _echelon_calls(monkeypatch)
    assert m.rank() == reference_kernel(m)[0] == want
    assert calls == path


def _mixed_q_entry(rng, fractional):
    """A small integer, a multiple of p, or a fraction whose denominator may be divisible by p."""
    choices = [rng.randint(-9, 9), rng.randint(-3, 3) * PRIME]
    if fractional:
        choices.append(Fraction(rng.randint(-9, 9), rng.choice((2, 3, PRIME, 2 * PRIME))))
    return rng.choice(choices)


def test_q_rank_matches_the_reference_on_a_mixed_corpus(monkeypatch):
    # planted-rank integer and fractional matrices whose entries are often
    # multiples of p: every path of DenseMatrix.rank over Q is taken
    rng = random.Random("q-rank")
    shapes = [(0, 0), (0, 6), (6, 0), (1, 8), (8, 1), (2, 8), (8, 2), (3, 7), (7, 3), (6, 6)]
    shapes += [(rng.randint(0, 8), rng.randint(0, 8)) for _ in range(300)]
    calls = _echelon_calls(monkeypatch)
    paths = {}
    for r, c in shapes:
        fractional = rng.random() < 0.5
        k = rng.randint(0, min(r, c))
        a = [[_mixed_q_entry(rng, fractional) for _ in range(k)] for _ in range(r)]
        b = [[_mixed_q_entry(rng, fractional) for _ in range(c)] for _ in range(k)]
        rows = [[QQ.coerce(sum(a[i][t] * b[t][j] for t in range(k))) for j in range(c)]
                for i in range(r)]
        m = DenseMatrix(QQ, r, c, rows)
        calls.clear()
        got = m.rank()
        path = tuple(calls)
        assert got == reference_kernel(m)[0], (r, c, rows)
        key = (path, got == min(r, c))
        paths[key] = paths.get(key, 0) + 1
    assert paths.get(((PRIME,), True), 0) >= 20, paths          # full mod p
    assert paths.get(((PRIME, None), True), 0) >= 5, paths      # full over Q only
    assert paths.get(((PRIME, None), False), 0) >= 20, paths    # deficient over Q
    assert paths.get(((None,), True), 0) + paths.get(((None,), False), 0) >= 5, paths


def test_clean_q_pipelines_take_no_bareiss_rank(monkeypatch):
    # every Q rank of a clean pencil and of a certified table is full, so
    # the rank mod p decides each one and no Bareiss elimination runs
    from monadlab.cohomology import cohomology_table
    from monadlab.lines_scan import sample_line
    from monadlab.pencil import line_status, restrict, splitting_type
    M3, M2 = random_monad(3, 10, 3, seed=1), random_monad(2, 8, 2, seed=1)
    line = sample_line(0, 0, QQ)
    assert line_status(restrict(M3, line)).clean
    calls = _echelon_calls(monkeypatch)
    assert splitting_type(restrict(M3, line)).parts == (0,) * 4
    assert calls and None not in calls, calls
    calls.clear()
    cohomology_table(M2, -7, 2)
    assert calls and None not in calls, calls


def test_a_q_proof_that_falls_short_reduces_once(monkeypatch):
    # a deficient rank mod 32003 falls back to Bareiss on the same map, and
    # does not reduce it mod p again
    L = forms_matrix(QQ, 3, [["32003*x", "y", "z"]])
    calls = _echelon_calls(monkeypatch)
    proof = onto_everywhere(L)
    assert proof.full and proof.over == "Q" and calls == [PRIME, None]
    calls.clear()
    L = forms_matrix(QQ, 3, [["5*x", "y", "z"]])
    assert onto_everywhere(L).over == "Fp:32003" and calls == [PRIME]


@pytest.mark.parametrize("name", ["torsion-free", "reflexive"])
def test_linear_locus_is_one_kernel_and_no_rank(monkeypatch, name):
    calls = {"rank": 0, "right_kernel": 0}
    for meth in calls:
        def counted(self, _orig=getattr(DenseMatrix, meth), _name=meth):
            calls[_name] += 1
            return _orig(self)
        monkeypatch.setattr(DenseMatrix, meth, counted)
    M = example_monad(name)
    assert linear_locus(M.alpha)          # alpha drops rank: a nonempty locus
    assert linear_locus(M.beta) == []     # beta is onto: no common zero
    assert calls == {"rank": 0, "right_kernel": 2}


def test_monomial_basis():
    b = monomial_basis(4, 1)
    assert b.exponents == ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    assert len(monomial_basis(4, 2)) == 10
    assert len(monomial_basis(4, -1)) == 0
    for e in monomial_exponents(3, 5):
        assert sum(e) == 5
    assert monomial_count(4, 2) == comb(5, 3)


def test_monomial_pascal_recurrence():
    for m in (2, 3, 4):
        for d in range(0, 7):
            assert monomial_count(m, d) == monomial_count(m - 1, d) + monomial_count(m, d - 1)


def test_mult_map_single_form():
    L = forms_matrix(QQ, 2, [["x0"]])
    m = mult_map(L, 0)
    assert (m.nrows, m.ncols) == (2, 1)
    assert [m.data[0][0], m.data[1][0]] == [Fraction(1), Fraction(0)]
    assert mult_map(L, -1).ncols == 0
    assert mult_map(L, -1).rank() == 0


def test_mult_maps_commute():
    f = forms_matrix(QQ, 2, [["x0"]])
    g = forms_matrix(QQ, 2, [["x1"]])
    for d in range(0, 5):
        lhs = mult_map(g, d + 1).matmul(mult_map(f, d))
        rhs = mult_map(f, d + 1).matmul(mult_map(g, d))
        assert lhs == rhs


def test_mult_map_composes_to_zero_when_forms_do():
    beta = forms_matrix(QQ, 4, [["-y", "x", "z", "w"]])
    alpha = forms_matrix(QQ, 4, [["x"], ["y"], ["-w"], ["z"]])
    assert compose_check(beta, alpha)
    for d in range(0, 4):
        assert mult_map(beta, d + 1).matmul(mult_map(alpha, d)).is_zero()


def _left_verdict(field, rows):
    """Verdict on a line of a left map O(-1)^v -> O^w given by its rows.

    "onto" when its transpose is onto at every point (injective at every
    point), "identically" when it is not injective as a sheaf map
    (degenerate on the whole line), "point" otherwise.
    """
    A = forms_matrix(field, 2, rows)
    if onto_everywhere(A.transpose()).full:
        return "onto"
    return "point" if generically_injective(A).full else "identically"


def test_onto_everywhere_known_answers():
    # on P1, x0 = s, x1 = t.  Columns (s, t, 0) and (s, 0, 0): the only
    # nonzero maximal minor is -st, so the map drops rank at s = 0 and t = 0
    assert _left_verdict(QQ, [["x0", "x0"], ["x1", "0"], ["0", "0"]]) == "point"
    # minors include s^2 and t^2, which have no common root
    rows = [["x0", "0"], ["0", "x0"], ["x1", "0"], ["0", "x1"]]
    assert _left_verdict(QQ, rows) == "onto"
    # a zero column: every maximal minor vanishes identically
    assert _left_verdict(QQ, [["x0", "0"], ["x1", "0"]]) == "identically"
    # over F_5 the determinant s^2 + 2t^2 of [[s, -2t], [t, s]] is
    # irreducible: the rank drops only at two conjugate points over F_25
    assert _left_verdict(GF(5), [["x0", "-2*x1"], ["x1", "x0"]]) == "point"
    assert _left_verdict(QQ, [["x0", "-2*x1"], ["x1", "x0"]]) == "point"
    # over F_2 the same rank test needs no interpolation points
    assert _left_verdict(GF(2), [["x0", "x1"], ["x1", "x0"]]) == "point"
    assert _left_verdict(GF(2), rows) == "onto"
    # the right map of a restricted monad, and an empty codomain
    assert onto_everywhere(forms_matrix(QQ, 2, [["x1", "x0", "0"]])).full
    assert not onto_everywhere(forms_matrix(QQ, 2, [["x0", "0", "0"]])).full
    assert onto_everywhere(LinearFormMatrix.zeros(QQ, 0, 3, 2)).full

    # on P2: one row is onto iff its forms have no common zero
    assert onto_everywhere(forms_matrix(QQ, 3, [["x", "y", "z"]])).full
    assert not onto_everywhere(forms_matrix(QQ, 3, [["x", "y", "0"]])).full
    # minors x^2, xy, xz, y^2 - xz, yz, z^2 have no common zero
    proof = onto_everywhere(forms_matrix(QQ, 3, [["x", "y", "z", "0"],
                                                 ["0", "x", "y", "z"]]))
    assert proof.full and (proof.rank, proof.target) == (12, 12)
    assert proof.shape == (12, 12) and proof.over == "Fp:32003"
    # every 2x2 minor vanishes at [1:1:1]
    assert not onto_everywhere(forms_matrix(QQ, 3, [["x", "y", "z"],
                                                    ["y", "z", "x"]])).full
    # a 2x3 matrix on P2 drops rank on a finite set, three points counted
    # with multiplicity, in any field; over F_7 these lie off P2(F_7)
    rows = [["-y", "2*x", "x-z"], ["2*x", "z", "3*y"]]
    f7 = forms_matrix(GF(7), 3, rows)
    assert all(f7.at(pt).rank() == 2 for pt in projective_points(7, 3))
    assert not onto_everywhere(f7).full
    f5 = forms_matrix(GF(5), 3, rows)
    assert [pt for pt in projective_points(5, 3) if f5.at(pt).rank() < 2] == [[1, 3, 2]]
    assert not onto_everywhere(f5).full

    # over Q the rank mod p is only a lower bound: a deficient rank, or a
    # denominator that vanishes mod p, falls back to the rank over Q
    for c in ("32003", "1/32003"):
        proof = onto_everywhere(forms_matrix(QQ, 3, [[f"{c}*x", "y", "z"]]))
        assert proof.full and proof.over == "Q"
    for c in ("5", "1/5"):
        assert onto_everywhere(forms_matrix(QQ, 3, [[f"{c}*x", "y", "z"]])).over == "Fp:32003"


def _rank_drops(P):
    """Points of P^n(F_p) where P, over F_p, is not onto: brute force."""
    return [pt for pt in projective_points(P.field.p, P.nvars)
            if P.at(pt).rank() < P.nrows]


def _sparse_forms(rng, field, nrows, ncols, density):
    entries = [[[rng.randrange(field.p) if rng.random() < density else 0
                 for _ in range(4)] for _ in range(ncols)] for _ in range(nrows)]
    return LinearFormMatrix.from_entry_forms(field, 4, entries)


def test_onto_everywhere_never_misses_an_enumerated_drop():
    # one direction only: a drop at a rational point must fail the rank
    # test; a map that passes may still fail over an extension field
    bad = random_monad(2, 6, 2, seed=3)
    cases = [to_prime_field(bad, 5).beta, to_prime_field(bad, 7).beta,
             to_prime_field(random_monad(2, 6, 2, seed=1), 2).beta]
    rng = random.Random(20261018)
    for p in (5, 7):
        for i in range(25):
            density = 0.15 + 0.02 * i
            cases.append(_sparse_forms(rng, GF(p), 2, 6, density))            # beta
            cases.append(_sparse_forms(rng, GF(p), 6, 2, density).transpose())  # alpha^T
    with_drops = passed = 0
    for k, P in enumerate(cases):
        drops = _rank_drops(P)
        proof = onto_everywhere(P)
        if drops:
            with_drops += 1
            assert not proof.full, (k, drops[0], proof)
        passed += proof.full
    assert all(_rank_drops(P) for P in cases[:3])
    assert with_drops >= 20 and passed >= 20, (with_drops, passed)


def test_compose_check():
    beta = forms_matrix(QQ, 4, [["-y", "x", "z", "w"]])
    assert compose_check(beta, forms_matrix(QQ, 4, [["x"], ["y"], ["0"], ["0"]]))
    assert compose_check(beta, forms_matrix(QQ, 4, [["x"], ["y"], ["-w"], ["z"]]))
    # x * x survives
    assert not compose_check(forms_matrix(QQ, 4, [["x", "0"]]),
                             forms_matrix(QQ, 4, [["x"], ["0"]]))


def test_parse_linear_form():
    assert parse_linear_form("x - 2*w", 4) == [1, 0, 0, -2]
    assert parse_linear_form("-y", 4) == [0, -1, 0, 0]
    assert parse_linear_form("x0 + x0", 2) == [2, 0]
    assert parse_linear_form("0", 3) == [0, 0, 0]
    with pytest.raises(ValueError):
        parse_linear_form("q", 4)


def test_generically_injective_known_answers():
    # kernels of degree exactly v-1: (y, -x) and (y^2, -xy, x^2); they are
    # invisible one degree lower
    for rows in ([["x", "y"], ["2*x", "2*y"], ["0", "0"]],
                 [["x", "y", "0"], ["0", "x", "y"], ["x", "x+y", "y"]]):
        P = forms_matrix(QQ, 4, rows)
        v = P.ncols
        proof = generically_injective(P)
        assert not proof.full and proof.over == "Q", proof
        assert proof.target == v * monomial_count(4, v - 1) == proof.shape[1]
        assert mult_map(P, v - 2).rank() == v * monomial_count(4, v - 2)
    # xy(x+y) vanishes at every point of P3(F_2), but not identically
    P = forms_matrix(GF(2), 4, [["x", "0", "0"], ["0", "y", "0"], ["0", "0", "x+y"]])
    assert all(P.at(pt).rank() < 3 for pt in projective_points(2, 4))
    assert str(generically_injective(P)) == \
        "rank 30 = 30 of the 60x30 multiplication map over Fp:2"
    # an empty left map is injective
    assert generically_injective(LinearFormMatrix.zeros(QQ, 3, 0, 4)).full
    # over Q a deficient rank mod p, or a denominator that vanishes mod p,
    # falls back to the rank over Q
    for c in ("32003", "1/32003"):
        proof = generically_injective(forms_matrix(QQ, 3, [[f"{c}*x"], ["0"]]))
        assert proof.full and proof.over == "Q"
    for c in ("5", "1/5"):
        assert generically_injective(forms_matrix(QQ, 3, [[f"{c}*x"], ["0"]])).over == "Fp:32003"


def _low_rank_forms(rng, field, w, v, r, nvars):
    """w x v linear forms whose rows are constant combinations of r rows."""
    base = [[[rng.randint(-3, 3) for _ in range(nvars)] for _ in range(v)]
            for _ in range(r)]
    entries = []
    for _ in range(w):
        c = [rng.randint(-2, 2) for _ in range(r)]
        entries.append([[sum(c[k] * base[k][j][t] for k in range(r)) for t in range(nvars)]
                        for j in range(v)])
    return LinearFormMatrix.from_entry_forms(field, nvars, entries)


def test_generically_injective_agrees_with_the_grid():
    # the grid finds a full-rank point iff one exists (p > v); kernels of
    # every degree up to v-1 come from low-rank matrices
    rng = random.Random(20261018)
    counts = {True: 0, False: 0, "kernel only in degree v-1": 0}
    for field in (QQ, GF(5), GF(7)):
        for nvars in (2, 3, 4):
            for _ in range(12):
                v = rng.randint(1, 3)
                w = v + rng.randint(0, 2)
                if rng.random() < 0.5:
                    entries = [[[rng.randint(-3, 3) if rng.random() < 0.3 else 0
                                 for _ in range(nvars)] for _ in range(v)]
                               for _ in range(w)]
                    P = LinearFormMatrix.from_entry_forms(field, nvars, entries)
                else:
                    P = _low_rank_forms(rng, field, w, v, rng.randint(0, v - 1), nvars)
                want = grid_injective(P)
                proof = generically_injective(P)
                assert proof.full == want, (field, P.coeffs, proof)
                counts[want] += 1
                if not want and v >= 2 and \
                        mult_map(P, v - 2).rank() == v * monomial_count(nvars, v - 2):
                    counts["kernel only in degree v-1"] += 1
    assert counts[True] >= 30 and counts[False] >= 30, counts
    assert counts["kernel only in degree v-1"] >= 5, counts


def test_prime_field_arithmetic():
    f = GF(7)
    assert f.coerce(Fraction(1, 2)) == 4   # 2 * 4 = 8 = 1 mod 7
    assert f.coerce(Fraction(1, 3)) == 5   # 3 * 5 = 15 = 1 mod 7
    with pytest.raises(ValueError):
        GF(6)


def test_evaluate_linear_forms():
    alpha = forms_matrix(QQ, 4, [["x"], ["y"], ["-w"], ["z"]])
    m = alpha.at([1, 0, 0, 0])
    assert [row[0] for row in m.data] == [1, 0, 0, 0]
    m = alpha.at([0, 0, 1, 0])
    assert [row[0] for row in m.data] == [0, 0, 0, 1]
