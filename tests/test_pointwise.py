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
    evaluate,
    example_monad,
    forms_matrix,
    jumping_scan,
    random_monad,
    trivial_monad,
    validate,
)


def test_evaluate_localizes_the_maps():
    tf = example_monad("torsion-free")
    m = evaluate(tf.alpha, [1, 0, 0, 0])
    assert [row[0] for row in m.data] == [1, 0, 0, 0]
    assert m.rank() == 1
    m = evaluate(tf.alpha, [0, 0, 1, 0])
    assert m.is_zero() and m.rank() == 0
    lf = example_monad("locally-free")
    for pt in ([1, 0, 0, 0], [1, 2, 3, 4], [0, 0, 0, 5]):
        assert evaluate(lf.beta, pt).rank() == 1
    with pytest.raises(ValueError):
        evaluate(lf.beta, [0, 0, 0, 0])


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


def test_degeneracy_full_rank_argument_is_checked():
    lf = example_monad("locally-free")
    with pytest.raises(ValueError):
        degeneracy_dim(lf.alpha, full_rank=2)
    assert degeneracy_dim(lf.alpha, full_rank=1).kind == "empty"


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
    budget = DegeneracyBudget(seed=1)
    pairs = [
        (("locally-free", "locally-free"), "locally_free"),
        (("torsion-free", "torsion-free"), "torsion_free"),
        (("reflexive", "locally-free"), "reflexive"),
    ]
    for (a, b), level in pairs:
        M = direct_sum(example_monad(a), example_monad(b))
        rep = classify(M, budget)
        assert rep.level == level, (a, b, rep.level, rep.degeneracy.note)
        assert rep.confidence == "monte_carlo"


def test_monte_carlo_scan_method_is_recorded():
    M = direct_sum(example_monad("torsion-free"), example_monad("torsion-free"))
    rep = classify(M, DegeneracyBudget(seed=2))
    meth = rep.degeneracy.method
    assert meth["kind"] == "finite_field_scan"
    assert meth["prime"] == 32003 and meth["slices"] == 50


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


def test_budget_exhaustion_reports_unknown():
    M = direct_sum(example_monad("locally-free"), example_monad("locally-free"))
    rep = classify(M, DegeneracyBudget(max_enum=10))
    assert rep.level == "coherent_only"
    assert rep.confidence == "unknown"
    assert rep.degeneracy.kind == "unknown"


def test_a_budgeted_verdict_does_not_leak_into_later_calls():
    # line scans and dualization classify with the default budget when no
    # classification is passed; an earlier budget-starved call must not count
    M = random_monad(2, 6, 2, seed=1)
    assert classify(M, DegeneracyBudget(max_enum=10)).display == "CoherentOnly (unknown)"
    assert jumping_scan(M, 101, 20).samples == 20
    assert dualize(M).dims() == (2, 6, 2)


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
