"""Degeneracy loci and regularity classification."""

import pytest

from monadlab import (
    DegeneracyBudget,
    GF,
    QQ,
    classify,
    degeneracy_dim,
    direct_sum,
    dualize,
    example_monad,
    forms_matrix,
    jumping_scan,
    random_monad,
    trivial_monad,
    validate,
)


def test_evaluate_localizes_the_maps():
    tf = example_monad("torsion-free")
    m = tf.alpha.at([1, 0, 0, 0])
    assert [row[0] for row in m.data] == [1, 0, 0, 0]
    assert m.rank() == 1
    m = tf.alpha.at([0, 0, 1, 0])
    assert m.is_zero() and m.rank() == 0
    lf = example_monad("locally-free")
    for pt in ([1, 0, 0, 0], [1, 2, 3, 4], [0, 0, 0, 5]):
        assert lf.beta.at(pt).rank() == 1
    with pytest.raises(ValueError):
        lf.beta.at([0, 0, 0, 0])
    # zero after coercion is zero too
    with pytest.raises(ValueError):
        lf.beta.to_field(GF(5)).at([5, 0, 10, 0])


def test_degeneracy_exact_linear_cases():
    tf = example_monad("torsion-free")
    res = degeneracy_dim(tf.alpha)
    assert res.kind == "dim" and res.dim == 1
    assert res.exact
    # the locus is the line x = y = 0: both basis points have x = y = 0
    assert res.locus_basis == [["0", "0", "1", "0"], ["0", "0", "0", "1"]]

    ref = example_monad("reflexive")
    res = degeneracy_dim(ref.alpha)
    assert res.kind == "dim" and res.dim == 0
    assert res.witness == ["0", "0", "0", "1"]

    lf = example_monad("locally-free")
    res = degeneracy_dim(lf.alpha)
    assert res.kind == "empty" and res.exact


def test_degeneracy_single_column_formula():
    # for one column the dimension is n - rank(coefficient matrix)
    for name, coeff_rank in (("torsion-free", 2), ("reflexive", 3), ("locally-free", 4)):
        M = example_monad(name)
        res = degeneracy_dim(M.alpha)
        if coeff_rank == 4:
            assert res.kind == "empty"
        else:
            assert res.dim == 3 - coeff_rank


def test_classification_of_the_three_examples():
    expected = {"torsion-free": "torsion_free", "reflexive": "reflexive",
                "locally-free": "locally_free"}
    for name, level in expected.items():
        M = example_monad(name)
        rep = classify(M)
        assert rep.level == level
        assert rep.confidence == "exact"


def test_classification_display():
    rep = classify(example_monad("locally-free"))
    assert rep.display == "LocallyFree (exact)"


def test_monotonicity_extra_row_drops_dimension():
    # the torsion-free example gains the row z and becomes the reflexive one:
    # degeneracy dimension drops from 1 to 0
    tf = example_monad("torsion-free")
    ref = example_monad("reflexive")
    assert degeneracy_dim(tf.alpha).dim == 1
    assert degeneracy_dim(ref.alpha).dim == 0


def test_monte_carlo_classification_known_answers():
    # an empty or finite locus is decided exactly by the rank on all of P3;
    # a curve is a Monte-Carlo lower bound: every random plane met it
    budget = DegeneracyBudget(seed=1)
    pairs = [
        (("locally-free", "locally-free"), "locally_free", "exact"),
        (("torsion-free", "torsion-free"), "torsion_free", "monte_carlo"),
        (("reflexive", "locally-free"), "reflexive", "exact"),
    ]
    for (a, b), level, confidence in pairs:
        M = direct_sum(example_monad(a), example_monad(b))
        rep = classify(M, budget)
        assert rep.level == level, (a, b, rep.level, rep.degeneracy.note)
        assert rep.confidence == confidence


def test_monte_carlo_scan_method_is_recorded():
    M = direct_sum(example_monad("torsion-free"), example_monad("torsion-free"))
    rep = classify(M, DegeneracyBudget(seed=2))
    assert rep.degeneracy.method == {
        "kind": "slice_scan", "prime": 32003, "slices": 50, "level": 2,
        "shape": [12, 24], "rank": 10, "over": "Q"}
    assert rep.degeneracy.note.startswith("all 50 random P^2 slices meet the locus")
    meth = classify(direct_sum(example_monad("locally-free"),
                               example_monad("locally-free"))).degeneracy.method
    assert meth == {"kind": "onto_rank", "prime": 32003, "slices": 50, "level": 3,
                    "shape": [20, 32], "rank": 20, "over": "Fp:32003"}


def test_classify_dual_of_locally_free_is_locally_free():
    M = example_monad("locally-free")
    rep = classify(M)
    assert rep.level == "locally_free"
    D = dualize(M, rep)
    assert classify(D).level == "locally_free"


def test_rank2_exact_classifications_never_reflexive():
    # a rank 2 sheaf with c3 = 0 cannot be reflexive without being locally
    # free, so valid (1, 4, 1) monads never classify as reflexive
    for seed in range(12):
        M = random_monad(1, 4, 1, seed=seed)
        rep = classify(M)
        assert rep.confidence == "exact"
        assert rep.level != "reflexive", (seed, rep.degeneracy.to_json_obj())
        assert not rep.warnings


def test_trivial_monad_is_locally_free():
    rep = classify(trivial_monad(4))
    assert rep.level == "locally_free" and rep.confidence == "exact"


def test_degeneracy_over_prime_field_base():
    Mp = random_monad(1, 4, 1, seed=3, field=GF(101))
    rep = classify(Mp)
    assert rep.confidence == "exact"   # single column stays exact over F_p


def test_classify_p2_monad():
    a2 = forms_matrix(QQ, 3, [["x"], ["y"], ["z"], ["0"]])
    b2 = forms_matrix(QQ, 3, [["-y", "x", "0", "z"]])
    from monadlab import SpecialMonad
    P = SpecialMonad(2, a2, b2)
    assert validate(P).overall
    assert classify(P).level == "locally_free"
    # dropping the z row makes the left map vanish at [0:0:1]
    a3 = forms_matrix(QQ, 3, [["x"], ["y"], ["0"], ["0"]])
    b3 = forms_matrix(QQ, 3, [["-y", "x", "0", "z"]])
    P2 = SpecialMonad(2, a3, b3)
    rep = classify(P2)
    assert rep.degeneracy.dim == 0
    # on a smooth surface a finite locus means torsion-free, never reflexive
    assert rep.level == "torsion_free"


def test_a_budgeted_verdict_does_not_leak_into_later_calls():
    # line scans and dualization classify with the default budget when no
    # classification is passed; an earlier call's budget must not count
    M = random_monad(2, 6, 2, seed=1)
    assert classify(M, DegeneracyBudget(prime=3)).degeneracy.method["prime"] == 3
    assert classify(M).degeneracy.method["prime"] == 32003
    assert jumping_scan(M, 101, 20).samples == 20
    assert dualize(M).dims() == (2, 6, 2)


def test_a_bad_certificate_prime_falls_back_to_the_rank_over_q():
    # mod 3 the left map of this monad drops rank on a surface; over Q it
    # is injective at every point, and the rank over Q proves it
    M = random_monad(2, 6, 2, seed=1)
    rep = classify(M, DegeneracyBudget(prime=3))
    assert rep.display == "LocallyFree (exact)"
    assert rep.degeneracy.method["over"] == "Q"


def test_one_point_locus_is_not_a_curve_with_few_slices():
    # lf + rf degenerates at the single point [0:0:0:1]; a random plane
    # misses it, whatever the slice budget
    L = direct_sum(example_monad("locally-free"), example_monad("reflexive")).alpha
    for seed in range(5):
        res = degeneracy_dim(L, DegeneracyBudget(slices=10, seed=seed))
        assert (res.kind, res.dim, res.exact) == ("dim", 0, True), seed


def test_a_level_is_met_only_when_every_slice_meets_the_locus():
    # over F_3 about one plane in three passes through the point
    # [0:0:0:1]; a single meeting slice must not read as a curve
    L = direct_sum(example_monad("locally-free"),
                   example_monad("reflexive")).alpha.to_field(GF(3))
    for seed in range(20):
        res = degeneracy_dim(L, DegeneracyBudget(seed=seed))
        assert (res.kind, res.dim, res.exact) == ("dim", 0, True), seed


def test_slice_budget_must_be_positive():
    # with no slices the curve level is never tried, which reads as "no curve"
    M = direct_sum(example_monad("torsion-free"), example_monad("torsion-free"))
    for slices in (0, -3):
        with pytest.raises(ValueError, match="slice"):
            classify(M, DegeneracyBudget(slices=slices))


def test_degeneracy_detects_a_surface():
    # second column (0, 0, x, x) vanishes on the plane {x = 0}, so the rank
    # drops on a 2-dimensional locus; detected at the pencil-slice level
    from monadlab import forms_matrix
    L = forms_matrix(QQ, 4, [["x", "0"], ["y", "0"], ["0", "x"], ["0", "x"]])
    res = degeneracy_dim(L)
    assert res.kind == "dim" and res.dim == 2
    assert not res.exact
