"""Monad data model: existence, validation, invariants, constructions, wire format."""

import json
import time
from fractions import Fraction

import pytest

from monadlab import (
    MonadDecodeError,
    NotLocallyFreeError,
    NotRepresentableError,
    QQ,
    RetryExhaustedError,
    GF,
    LinearFormMatrix,
    SpecialMonad,
    decode,
    direct_sum,
    dualize,
    encode,
    example_monad,
    forms_matrix,
    invariants,
    random_monad,
    special_monad_exists,
    to_prime_field,
    trivial_monad,
    validate,
)
from monadlab import classify
from monadlab.monad import GENERATOR_RETRIES


def test_existence_predicate():
    assert special_monad_exists(1, 4, 1)
    assert not special_monad_exists(2, 3, 2)
    assert not special_monad_exists(0, 1, 0)
    assert special_monad_exists(0, 3, 0)
    assert special_monad_exists(0, 4, 1)
    # the asymmetric arm: w >= 2v'+2 mentions v' only
    assert special_monad_exists(4, 6, 2) and not special_monad_exists(2, 5, 2)
    with pytest.raises(ValueError):
        special_monad_exists(-1, 4, 1)


def test_example_matrices_are_the_published_ones():
    tf = example_monad("torsion-free")
    assert tf.dims() == (1, 4, 1)
    assert [tf.alpha.entry_form(i, 0) for i in range(4)] == [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    assert [tf.beta.entry_form(0, j) for j in range(4)] == [
        [0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    ref = example_monad("reflexive")
    assert ref.dims() == (1, 5, 1)
    assert ref.alpha.entry_form(4, 0) == [0, 0, 1, 0]
    lf = example_monad("locally-free")
    assert [lf.alpha.entry_form(i, 0) for i in range(4)] == [
        [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    with pytest.raises(ValueError):
        example_monad("free-range")


def test_validate_examples_pass_exactly():
    for name in ("torsion-free", "reflexive", "locally-free"):
        rep = validate(example_monad(name))
        assert rep.overall
        assert rep.composition.confidence == "exact"
        assert rep.beta_surjective.confidence == "exact"
        assert rep.alpha_injective.confidence == "exact"
        assert not rep.rank_zero


def test_validate_catches_common_zero_of_beta():
    bad = SpecialMonad(3,
                       forms_matrix(QQ, 4, [["x"], ["y"], ["0"], ["0"]]),
                       forms_matrix(QQ, 4, [["x", "y", "z", "0"]]))
    rep = validate(bad)
    assert rep.composition.passed is False or rep.beta_surjective.passed is False
    assert not rep.beta_surjective.passed
    assert rep.beta_surjective.witness == ["0", "0", "0", "1"]
    assert not rep.overall
    # a row of no forms vanishes everywhere
    empty = SpecialMonad(3, LinearFormMatrix.zeros(QQ, 0, 0, 4),
                         LinearFormMatrix.zeros(QQ, 1, 0, 4))
    beta = validate(empty).beta_surjective
    assert not beta.passed and beta.witness == ["1", "0", "0", "0"]
    assert "dimension 3" in beta.detail


def test_beta_rank_drop_over_a_prime_field_names_the_field():
    # mod 101 the right map of this monad has rank 1 everywhere; one rank
    # over F_101 decides it, and the detail must not call the point rational
    rep = validate(to_prime_field(random_monad(2, 6, 2, seed=0), 101))
    beta = rep.beta_surjective
    assert beta.passed is False and beta.confidence == "exact"
    assert "Fp:101" in beta.detail and "rational" not in beta.detail
    assert beta.witness is None


def test_validate_finds_rank_drops_off_the_rational_points():
    # the 2x2 minors of this right map vanish together only where
    # x^2 + y^2 = z^2 + w^2 = 0, e.g. at [1:i:1:i]: no rational point drops
    # rank, yet the map is not onto over the algebraic closure
    beta = forms_matrix(QQ, 4, [["x", "-y", "z", "w"], ["y", "x", "w", "-z"]])
    M = SpecialMonad(3, LinearFormMatrix.zeros(QQ, 4, 0, 4), beta)
    rep = validate(M)
    assert rep.beta_surjective.passed is False
    assert rep.beta_surjective.confidence == "exact"
    assert "algebraic closure of Q" in rep.beta_surjective.detail
    assert not rep.overall


def test_validate_catches_degenerate_alpha():
    # alpha with two proportional forms in a single column spanning rank 1
    M = SpecialMonad(3,
                     forms_matrix(QQ, 4, [["x", "x"], ["0", "0"], ["0", "0"], ["0", "0"]]),
                     forms_matrix(QQ, 4, [["0", "0", "z", "w"]]))
    rep = validate(M)
    assert not rep.alpha_injective.passed
    assert rep.alpha_injective.confidence == "exact"


def small_field_monad():
    """diag(x, y, x+y) over F_2: its determinant xy(x+y) vanishes at every
    point of P3(F_2), but not identically, so no F_2 point can witness its
    injectivity."""
    alpha = forms_matrix(GF(2), 4, [["x", "0", "0"], ["0", "y", "0"], ["0", "0", "x+y"]])
    return SpecialMonad(3, alpha, LinearFormMatrix.zeros(GF(2), 0, 3, 4))


def test_validate_decides_injectivity_over_a_small_field():
    rep = validate(small_field_monad())
    assert rep.overall
    check = rep.alpha_injective
    assert check.passed and check.confidence == "exact"
    assert "rank 30 = 30 of the 60x30 multiplication map over Fp:2" in check.detail
    assert check.witness is None


def test_validate_flags_rank_zero():
    from monadlab import LinearFormMatrix
    M = SpecialMonad(3,
                     forms_matrix(QQ, 4, [["x", "0"], ["y", "x"]]),
                     LinearFormMatrix.zeros(QQ, 0, 2, 4))
    rep = validate(M)
    assert rep.rank_zero
    assert rep.overall


def test_invariants_match_published_values():
    expect = {"torsion-free": (2, 0, 1, 0), "reflexive": (3, 0, 1, 0),
              "locally-free": (2, 0, 1, 0)}
    for name, (r, c1, c2, c3) in expect.items():
        inv = invariants(example_monad(name))
        assert (inv.rank, inv.c1, inv.c2, inv.c3) == (r, c1, c2, c3)
        assert inv.ch2 == Fraction(-(1 + 1), 2)


def test_invariants_trivial_and_general():
    inv = invariants(trivial_monad(5))
    assert (inv.rank, inv.c1, inv.c2, inv.c3) == (5, 0, 0, 0)
    inv = invariants(random_monad(2, 8, 1, seed=5))
    assert inv.rank == 5 and inv.c1 == 1
    assert inv.ch2 == Fraction(-3, 2)


def whitney_oracle(i1, i2):
    """Total Chern class product up to degree 3, computed independently."""
    c1 = i1.c1 + i2.c1
    c2 = i1.c2 + i1.c1 * i2.c1 + i2.c2
    c3 = i1.c3 + i1.c2 * i2.c1 + i1.c1 * i2.c2 + i2.c3
    return c1, c2, c3


def test_direct_sum_dims_and_whitney():
    lf = example_monad("locally-free")
    s = direct_sum(lf, lf)
    assert s.dims() == (2, 8, 2)
    i1 = invariants(lf)
    i_sum = invariants(s)
    assert i_sum.rank == 2 * i1.rank
    assert (i_sum.c1, i_sum.c2, i_sum.c3) == whitney_oracle(i1, i1)
    assert i_sum.c2 == 2
    # chern character is additive
    assert i_sum.ch2 == 2 * i1.ch2 and i_sum.ch3 == 2 * i1.ch3
    # summing with a trivial monad adds rank and keeps chern classes
    t = direct_sum(lf, trivial_monad(1))
    it = invariants(t)
    assert it.rank == i1.rank + 1
    assert (it.c1, it.c2, it.c3) == (i1.c1, i1.c2, i1.c3)


def test_dualize():
    lf = example_monad("locally-free")
    d = dualize(lf)
    assert d.dims() == (1, 4, 1)
    assert validate(d).overall
    # double dual is the original
    dd = dualize(d)
    assert dd == lf
    # trivial monad is self-dual
    t = trivial_monad(3)
    assert dualize(t) == t
    with pytest.raises(NotLocallyFreeError):
        dualize(example_monad("torsion-free"))


def test_random_monad_postconditions():
    M = random_monad(1, 4, 1, seed=7)
    assert validate(M).overall
    assert M.dims() == (1, 4, 1)
    with pytest.raises(NotRepresentableError):
        random_monad(2, 3, 2)
    t = random_monad(0, 3, 0)
    assert t.dims() == (0, 3, 0)
    assert t.alpha.ncols == 0 and t.beta.nrows == 0


def test_random_monad_deterministic_in_seed():
    a = random_monad(2, 7, 1, seed=42)
    b = random_monad(2, 7, 1, seed=42)
    c = random_monad(2, 7, 1, seed=43)
    assert encode(a) == encode(b)
    assert encode(a) != encode(c)


def test_random_monad_solves_beta_in_integers_fast():
    # the kernel behind beta*alpha = 0 is back-substituted in integers from
    # a fraction-free echelon form, not reduced over Fractions
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        random_monad(3, 10, 3, seed=1)
        best = min(best, time.perf_counter() - start)
    assert best < 0.1, best


def test_random_monad_over_prime_field():
    M = random_monad(1, 4, 1, seed=1, field=GF(32003))
    assert M.field.name == "Fp:32003"
    assert validate(M).overall


def test_random_monad_gives_up_after_its_retries():
    # (1, 3, 1) exists on P2, but a generic left map leaves every right map
    # with a common zero, so every draw fails validation
    assert special_monad_exists(1, 3, 1, ambient_n=2)
    with pytest.raises(RetryExhaustedError, match=f"after {GENERATOR_RETRIES} draws"):
        random_monad(1, 3, 1, ambient_n=2)


def test_encode_decode_round_trip():
    for name in ("torsion-free", "reflexive", "locally-free"):
        M = example_monad(name)
        data = encode(M)
        M2 = decode(data)
        assert M2 == M
        assert encode(M2) == data


def test_decode_normalizes_fractions():
    M = example_monad("locally-free")
    obj = json.loads(encode(M))
    obj["alpha"][0][0][0] = "2/4"
    M2 = decode(json.dumps(obj))
    assert M2.alpha.coeffs[0].data[0][0] == Fraction(1, 2)
    # re-encoding is canonical
    assert json.loads(encode(M2))["alpha"][0][0][0] == "1/2"


def test_decode_rejects_inconsistent_dims():
    obj = json.loads(encode(example_monad("locally-free")))
    obj["w"] = 5
    with pytest.raises(MonadDecodeError) as err:
        decode(json.dumps(obj))
    assert "alpha[0]" in str(err.value)


@pytest.mark.parametrize("key", ["v", "w", "v_prime"])
def test_decode_refuses_a_boolean_dimension(key):
    # bool is an int subclass, so a P2 file with "v": true used to validate
    # and encode wrote true back
    obj = json.loads(encode(random_monad(1, 4, 1, seed=0, ambient_n=2)))
    for value in (True, False, 1.0):
        obj[key] = value
        with pytest.raises(MonadDecodeError, match=f"{key} must be a non-negative integer"):
            decode(json.dumps(obj))


def test_decode_rejects_bad_json_with_position():
    with pytest.raises(MonadDecodeError) as err:
        decode(b'{"ambient_n": 3,,}')
    assert "line 1" in str(err.value)


def test_decode_rejects_bad_scalars_and_fields():
    obj = json.loads(encode(example_monad("locally-free")))
    obj["field"] = "Fp:6"
    with pytest.raises(MonadDecodeError):
        decode(json.dumps(obj))
    obj = json.loads(encode(example_monad("locally-free")))
    obj["beta"][1][0][2] = "1/0"
    with pytest.raises(MonadDecodeError) as err:
        decode(json.dumps(obj))
    assert "beta[1][0][2]" in str(err.value)


def test_reduction_mod_p():
    M = example_monad("locally-free")
    Mp = to_prime_field(M, 5)
    assert Mp.field.p == 5
    assert validate(Mp).overall


def test_balanced_dims_give_c2_equal_v():
    # when v = v': c1 = c3 = 0 and c2 = v
    for v, w in ((1, 4), (2, 6), (2, 8)):
        M = random_monad(v, w, v, seed=v + w)
        inv = invariants(M)
        assert (inv.c1, inv.c3, inv.c2) == (0, 0, v)


def test_random_monads_on_p2():
    for seed, dims in enumerate([(1, 4, 1), (2, 7, 1), (0, 5, 2)]):
        M = random_monad(*dims, seed=seed, ambient_n=2)
        assert M.ambient_n == 2
        assert validate(M).overall


def test_round_trip_on_p2_and_prime_field_monads():
    cases = [random_monad(1, 4, 1, seed=2, ambient_n=2),
             random_monad(1, 4, 1, seed=2, field=GF(32003)),
             trivial_monad(2, ambient_n=2)]
    for M in cases:
        data = encode(M)
        M2 = decode(data)
        assert M2 == M and encode(M2) == data


def test_decode_rejects_non_string_scalars():
    obj = json.loads(encode(example_monad("locally-free")))
    obj["alpha"][1][2][0] = 7
    with pytest.raises(MonadDecodeError) as err:
        decode(json.dumps(obj))
    assert "alpha[1][2][0]" in str(err.value)
