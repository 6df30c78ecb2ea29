"""The scalar contract: plain numbers, native operators, one reduction per matrix.

Over Q a scalar is an int when it is integral and a Fraction in lowest
terms otherwise; QQ.coerce and QQ.parse alone decide it, so integral data
runs without one Fraction operation.  Over F_p it is an int in [0, p).

Three kinds of checks.  The seeded generator is pinned by hashes of its
canonical bytes, so any change in the arithmetic behind _solve_beta shows.
Every matrix built over F_p is compared with an independent Fraction
oracle reduced mod p, on inputs that are negative or >= p, and every
returned entry must be a canonical residue in [0, p): the elimination
kernels read entries as they stand.  Over Q the codec, the decoder, the
kernels and the generator give ints for integral values, and the
pipelines on an integral monad do no Fraction arithmetic.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from monadlab.cohomology import cohomology_table
from monadlab.exactlin import (
    GF,
    QQ,
    DenseMatrix,
    LinearFormMatrix,
    compose_check,
    monomial_exponents,
    mult_map,
)
from monadlab.lines_scan import sample_line
from monadlab.monad import (
    decode,
    encode,
    example_monad,
    random_monad,
    random_point,
    validate,
)
from monadlab.pencil import Line, restrict, splitting_type
from monadlab.pointwise import classify
from test_cli_golden import _fractional_lf     # lf, alpha row 0 / 7, beta column 0 * 7

# sha256(encode(random_monad(*dims, seed, field, ambient_n)))[:16]
GOLDEN_MONADS = [
    ((2, 6, 2), 0, "Q", 3, "61908cb0755e57f7"),
    ((2, 6, 2), 1, "Q", 3, "7205f531649abc34"),
    ((1, 5, 1), 2, "Q", 3, "1d13a2b6e108ad8b"),
    ((2, 6, 2), 0, "Fp:7", 3, "30d93355baadaa78"),
    ((1, 5, 1), 3, "Fp:7", 3, "c84468b1d31376e2"),
    ((2, 6, 2), 1, "Fp:101", 3, "9c07c1f47e2aba61"),
    ((1, 4, 1), 0, "Fp:101", 3, "d17d24b0bb356359"),
    ((1, 4, 1), 0, "Q", 2, "336f088271591b1e"),
    ((1, 5, 1), 1, "Fp:101", 2, "4a6a3aa80bf70c1c"),
    ((2, 7, 1), 0, "Q", 3, "4fbab7a31fe3ea54"),     # v > v': the left map is solved
    ((3, 8, 1), 1, "Fp:101", 3, "0102567d41700f4f"),
    ((2, 6, 1), 2, "Fp:7", 2, "3453520760ae7214"),
    ((3, 10, 3), 1, "Q", 3, "f4af987ec85a079c"),
    ((2, 8, 2), 1, "Q", 3, "22dc4f5710804fcd"),
    ((3, 8, 1), 0, "Q", 3, "ef429e2cba17bfe5"),
    ((2, 6, 2), 4, "Fp:5", 3, "40d6e0431047779e"),
]

PRIMES = (7, 101)


def _field(name):
    return QQ if name == "Q" else GF(int(name[3:]))


@pytest.mark.parametrize("dims,seed,fname,ambient,digest", GOLDEN_MONADS)
def test_random_monad_bytes_are_pinned(dims, seed, fname, ambient, digest):
    M = random_monad(*dims, seed=seed, field=_field(fname), ambient_n=ambient)
    assert hashlib.sha256(encode(M)).hexdigest()[:16] == digest
    assert decode(encode(M)) == M       # entries are canonical, not only printed so


def _mod(x, p):
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, p) % p


def _canonical(rows, p):
    return all(type(x) is int and 0 <= x < p for row in rows for x in row)


def _raw(rng, p):
    """A scalar that is not a canonical residue: negative, >= p, or a fraction."""
    return rng.choice([
        rng.randint(-3 * p, -1),
        rng.randint(p, 3 * p),
        0,
        Fraction(rng.randint(-2 * p, 2 * p), rng.randint(1, p - 1)),
    ])


def _raw_forms(rng, p, nrows, ncols, nvars):
    return [[[_raw(rng, p) for _ in range(nvars)] for _ in range(ncols)]
            for _ in range(nrows)]


def _oracle_at(forms, point, p):
    return [[_mod(sum(Fraction(c) * Fraction(x) for c, x in zip(form, point)), p)
             for form in row] for row in forms]


def _oracle_product(a, b, p):
    return [[_mod(sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)), p)
             for col in zip(*b)] for row in a]


@pytest.mark.parametrize("p", PRIMES)
def test_at_gives_canonical_residues(p):
    rng = random.Random(p)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        forms = _raw_forms(rng, p, nrows, ncols, 4)
        L = LinearFormMatrix.from_entry_forms(GF(p), 4, forms)
        point = [_raw(rng, p) for _ in range(4)]
        if all(_mod(x, p) == 0 for x in point):
            # zero after reduction: not a point of projective space
            with pytest.raises(ValueError, match="zero vector"):
                L.at(point)
            continue
        m = L.at(point)
        assert _canonical(m.data, p)
        assert m.data == _oracle_at(forms, point, p)


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_gives_canonical_residues(p):
    rng = random.Random(p + 1)
    for _ in range(20):
        r, k, c = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[_raw(rng, p) for _ in range(k)] for _ in range(r)]
        b = [[_raw(rng, p) for _ in range(c)] for _ in range(k)]
        prod = DenseMatrix.from_rows(GF(p), a).matmul(DenseMatrix.from_rows(GF(p), b))
        assert _canonical(prod.data, p)
        assert prod.data == _oracle_product(a, b, p)


@pytest.mark.parametrize("p", PRIMES)
def test_mult_map_gives_canonical_residues(p):
    rng = random.Random(p + 2)
    for d in (0, 1, 2):
        forms = _raw_forms(rng, p, 2, 3, 4)
        m = mult_map(LinearFormMatrix.from_entry_forms(GF(p), 4, forms), d)
        assert _canonical(m.data, p)
        # u_j (x) x^e  |->  sum_i e_i (x) (sum_t c_ijt x_t) x^e
        dom = monomial_exponents(4, d)
        cod = {e: b for b, e in enumerate(monomial_exponents(4, d + 1))}
        want = [[0] * (3 * len(dom)) for _ in range(2 * len(cod))]
        for i, row in enumerate(forms):
            for j, form in enumerate(row):
                for a, e in enumerate(dom):
                    for t, c in enumerate(form):
                        e2 = tuple(x + (s == t) for s, x in enumerate(e))
                        want[i * len(cod) + cod[e2]][j * len(dom) + a] = _mod(c, p)
        assert m.data == want


def _oracle_rank(rows, p):
    m = [[_mod(x, p) for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, p)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv
            m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


@pytest.mark.parametrize("p", PRIMES)
def test_right_kernel_gives_canonical_residues(p):
    rng = random.Random(p + 3)
    for _ in range(30):
        r, c = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[_raw(rng, p) for _ in range(c)] for _ in range(r)]
        if rng.random() < 0.5:      # a dependent row, scaled by a non-residue
            rows.append([x * (p + 2) for x in rows[0]])
        kern = DenseMatrix.from_rows(GF(p), rows).right_kernel()
        assert _canonical(kern.data, p)
        assert kern.ncols == c - _oracle_rank(rows, p)
        assert kern.ncols == 0 or all(
            x == 0 for row in _oracle_product(rows, kern.data, p) for x in row)
        # the basis is the reduced echelon one: independent columns
        assert kern.ncols == 0 or _oracle_rank(kern.data, p) == kern.ncols


def _oracle_composite_vanishes(B, A, p):
    """Coefficient of every x_s x_t in B*A, as Fractions reduced mod p."""
    for i in range(len(B)):
        for j in range(len(A[0])):
            quad = {}
            for k in range(len(A)):
                for s, b in enumerate(B[i][k]):
                    for t, a in enumerate(A[k][j]):
                        key = (min(s, t), max(s, t))
                        quad[key] = quad.get(key, 0) + Fraction(b) * Fraction(a)
            if any(_mod(x, p) for x in quad.values()):
                return False
    return True


@pytest.mark.parametrize("p", PRIMES)
def test_compose_check_reads_residues(p):
    # beta = (-y, x, z, w), alpha = (x, y, -w, z): the composite vanishes over
    # Z.  Shifting coefficients by multiples of p keeps it zero only mod p.
    beta = [[[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]]
    alpha = [[[1, 0, 0, 0]], [[0, 1, 0, 0]], [[0, 0, 0, -1]], [[0, 0, 1, 0]]]
    rng = random.Random(p + 4)
    for trial in range(12):
        B = [[[c + p * rng.randint(-2, 2) for c in f] for f in row] for row in beta]
        A = [[[c + p * rng.randint(-2, 2) for c in f] for f in row] for row in alpha]
        if trial % 3 == 2:          # break one entry: the composite survives
            A[0][0][rng.randrange(4)] += rng.randint(1, p - 1)
        want = _oracle_composite_vanishes(B, A, p)
        assert want == (trial % 3 != 2)
        got = compose_check(LinearFormMatrix.from_entry_forms(GF(p), 4, B),
                            LinearFormMatrix.from_entry_forms(GF(p), 4, A))
        assert got == want


@pytest.mark.parametrize("p", PRIMES)
def test_plucker_gives_canonical_residues(p):
    rng = random.Random(p + 5)
    for _ in range(20):
        a = [_raw(rng, p) for _ in range(4)]
        b = [_raw(rng, p) for _ in range(4)]
        want = tuple(_mod(Fraction(a[i]) * b[j] - Fraction(a[j]) * b[i], p)
                     for i in range(4) for j in range(i + 1, 4))
        if not any(want):
            continue
        got = Line.from_points(GF(p), a, b).plucker()
        assert _canonical([got], p)
        assert got == want


def test_rational_scalars_stay_exact():
    L = LinearFormMatrix.from_entry_forms(QQ, 2, [[[Fraction(1, 2), 3], [0, -1]]])
    assert L.at([Fraction(2, 3), 5]).data == [[Fraction(46, 3), -5]]
    line = Line.from_points(QQ, [Fraction(1, 2), 0, 1, 0], [0, 3, 0, Fraction(-1, 3)])
    assert line.plucker() == (Fraction(3, 2), 0, Fraction(-1, 6), -3, 0, Fraction(-1, 3))


# ---------------------------------------------------------------------------
# rationals: ints when integral


def _same(got, want):
    return type(got) is type(want) and got == want


@pytest.mark.parametrize("value,want", [
    (3, 3), (Fraction(6, 3), 2), ("-10/5", -2), (" 7 ", 7), (True, 1),
    (Fraction(3, 6), Fraction(1, 2)), ("-6/4", Fraction(-3, 2)), (0.25, Fraction(1, 4)),
])
def test_coerce_gives_ints_for_integral_values(value, want):
    assert _same(QQ.coerce(value), want)
    if isinstance(value, str):
        assert _same(QQ.parse(value), want)


@pytest.mark.parametrize("x", [0, -7, 12345678901234567890, Fraction(-3, 2), Fraction(1, 7)])
def test_fmt_and_parse_round_trip(x):
    assert _same(QQ.parse(QQ.fmt(x)), x)


def test_a_computed_fraction_with_denominator_one_reads_as_an_int():
    x = Fraction(1, 2) * 4
    assert type(x) is Fraction and QQ.fmt(x) == "2" and _same(QQ.parse(QQ.fmt(x)), 2)


def _entries(M):
    return [x for L in (M.alpha, M.beta) for c in L.coeffs for row in c.data for x in row]


def test_decode_kernels_and_the_generator_give_ints():
    entries = _entries(decode(_fractional_lf()))
    assert [x for x in entries if type(x) is not int] == [Fraction(1, 7)]
    assert all(type(x) is int for x in _entries(random_monad(2, 8, 2, seed=1)))
    assert all(type(x) is int for x in _entries(random_monad(2, 7, 1, seed=0)))
    m = DenseMatrix.from_rows(QQ, [[Fraction(1, 2), 1, 0, 3], [0, Fraction(1, 3), 1, -1]])
    kern = m.right_kernel()
    assert kern.ncols == 2 and all(type(x) is int for row in kern.data for x in row)
    assert m.matmul(kern).is_zero()
    assert all(type(x) is int for x in random_point(random.Random(0), QQ, 4))
    line = sample_line(3, 0, QQ)
    assert all(type(x) is int for x in line.points[0] + line.points[1] + line.minors)


_FRACTION_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


def test_an_integral_monad_does_no_fraction_arithmetic(monkeypatch):
    M = decode(encode(random_monad(2, 8, 2, seed=1)))
    line = sample_line(3, 0, QQ)
    calls = []
    for name in _FRACTION_OPS:
        def counting(a, b, _op=getattr(Fraction, name), _name=name):
            calls.append(_name)
            return _op(a, b)
        monkeypatch.setattr(Fraction, name, counting)
    splitting_type(restrict(M, line))
    cohomology_table(M, -7, 2)
    validate(M)
    classify(M)
    assert calls == []
    assert Fraction(1, 2) + 1 == Fraction(3, 2) and calls == ["__add__"]


def test_the_fractional_copy_of_lf_reads_as_lf():
    lf, lf7 = example_monad("locally-free"), decode(_fractional_lf())
    assert lf7 != lf
    assert validate(lf7).to_json_obj() == validate(lf).to_json_obj()
    assert classify(lf7).to_json_obj() == classify(lf).to_json_obj()
    assert cohomology_table(lf7, -7, 3).to_json_obj() == \
        cohomology_table(lf, -7, 3).to_json_obj()
