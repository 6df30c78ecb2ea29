"""Degeneracy loci and regularity classification."""

import pytest

from monadlab import (
    GF,
    QQ,
    DenseMatrix,
    LinearFormMatrix,
    SpecialMonad,
    classify,
    degeneracy_dim,
    direct_sum,
    dualize,
    example_monad,
    forms_matrix,
    jumping_scan,
    random_monad,
    to_prime_field,
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
    assert res.method == {"kind": "exact_linear"}
    # the locus is the line x = y = 0: both basis points have x = y = 0
    assert res.locus_basis == [["0", "0", "1", "0"], ["0", "0", "0", "1"]]

    ref = example_monad("reflexive")
    res = degeneracy_dim(ref.alpha)
    assert res.kind == "dim" and res.dim == 0
    assert res.witness == ["0", "0", "0", "1"]

    lf = example_monad("locally-free")
    res = degeneracy_dim(lf.alpha)
    assert res.kind == "empty" and res.method == {"kind": "exact_linear"}


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


def test_classification_of_direct_sums_is_exact():
    # two columns: an empty or finite locus is decided by the rank on all
    # of P3, a curve by the hyperplane count; every verdict is exact
    pairs = [
        (("locally-free", "locally-free"), "locally_free"),
        (("torsion-free", "torsion-free"), "torsion_free"),
        (("reflexive", "locally-free"), "reflexive"),
        (("torsion-free", "reflexive"), "torsion_free"),
    ]
    for (a, b), level in pairs:
        M = direct_sum(example_monad(a), example_monad(b))
        rep = classify(M)
        assert rep.level == level, (a, b, rep.level, rep.degeneracy.note)
        assert rep.confidence == "exact"


def test_the_hyperplane_count_is_recorded():
    # tf + tf degenerates on the line {x = y = 0}: level 2 is ruled out by
    # the section H_1 after H_0 = {x = 0}, which contains the whole line,
    # took 9 proofs; level 1 takes its N_1 = 3 * 2^3 + 1 = 25 sections
    M = direct_sum(example_monad("torsion-free"), example_monad("torsion-free"))
    rep = classify(M)
    assert rep.degeneracy.method == {
        "kind": "hyperplane_count", "prime": 32003, "hyperplanes": 25, "proofs": 37,
        "shape": [12, 24], "rank": 10, "over": "Q"}
    assert rep.degeneracy.note.startswith(
        "all 25 hyperplane sections H_t meet the locus in dimension >= 0")
    meth = classify(direct_sum(example_monad("locally-free"),
                               example_monad("locally-free"))).degeneracy.method
    assert meth == {"kind": "onto_rank", "prime": 32003, "level": 3,
                    "shape": [20, 32], "rank": 20, "over": "Fp:32003"}


def test_classify_dual_of_locally_free_is_locally_free():
    M = example_monad("locally-free")
    rep = classify(M)
    assert rep.level == "locally_free"
    D = dualize(M)
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


def test_the_method_names_the_modulus_of_its_proofs():
    # a rank over Q is proven mod 32003, a rank over F_p mod p; a verdict
    # over F_p does not leak into later calls over Q
    M = random_monad(2, 6, 2, seed=1)
    assert classify(to_prime_field(M, 101)).degeneracy.method["prime"] == 101
    assert classify(M).degeneracy.method["prime"] == 32003
    assert jumping_scan(M, 101, 20).samples == 20
    assert dualize(M).dims() == (2, 6, 2)


def _column_times(M, c):
    """M with column 0 of alpha multiplied by c: an isomorphic monad."""
    coeffs = [DenseMatrix(QQ, M.w, M.v, [[c * row[0]] + row[1:] for row in m.data])
              for m in M.alpha.coeffs]
    return SpecialMonad(M.ambient_n, LinearFormMatrix(QQ, M.w, M.v, M.ambient_n + 1, coeffs),
                        M.beta)


def test_a_short_reduction_falls_back_to_the_rank_over_q():
    # mod 32003 column 0 of the left map vanishes, so its rank falls short
    # everywhere; over Q it is injective at every point, and the rank over
    # Q proves it
    M = random_monad(2, 6, 2, seed=1)
    assert classify(M).degeneracy.method["over"] == "Fp:32003"
    M = _column_times(M, 32003)
    assert validate(M).overall
    rep = classify(M)
    assert rep.display == "LocallyFree (exact)"
    assert rep.degeneracy.method["over"] == "Q"


def test_one_point_locus_is_not_a_curve_with_few_slices():
    # lf + rf degenerates at the single point [0:0:0:1]; F_5 and F_7 have
    # fewer hyperplanes than N_1 = 25, but one that misses the point rules
    # out a curve at any p
    L = direct_sum(example_monad("locally-free"), example_monad("reflexive")).alpha
    for field in (QQ, GF(5), GF(7)):
        res = degeneracy_dim(L.to_field(field))
        assert (res.kind, res.dim, res.method["kind"]) == ("dim", 0, "onto_rank"), field
        assert res.note.endswith("no curve, by 4 slice proofs"), field


def test_a_level_is_met_only_when_every_slice_meets_the_locus():
    # over F_3 the hyperplane H_0 = {x = 0} passes through [0:0:0:1] and
    # H_1 does not; a single meeting slice must not read as a curve
    L = direct_sum(example_monad("locally-free"),
                   example_monad("reflexive")).alpha.to_field(GF(3))
    res = degeneracy_dim(L)
    assert (res.kind, res.dim, res.method["kind"]) == ("dim", 0, "onto_rank")


def test_degeneracy_detects_a_surface():
    # second column (0, 0, x, x) vanishes on the plane {x = 0}, so the rank
    # drops on a 2-dimensional locus: all N_2 = 3 * 2^2 + 1 = 13 sections
    # meet it in a curve, each proven by N_1 = 2 * 2^2 + 1 = 9 lines of the plane
    L = forms_matrix(QQ, 4, [["x", "0"], ["y", "0"], ["0", "x"], ["0", "x"]])
    res = degeneracy_dim(L)
    assert (res.kind, res.dim) == ("dim", 2)
    assert (res.method["kind"], res.method["hyperplanes"], res.method["proofs"]) == (
        "hyperplane_count", 13, 117)


def test_the_twisted_cubic_is_a_curve():
    # the 2 x 2 minors of [[x, y], [y, z], [z, w]] cut out the twisted
    # cubic, a curve that is not linear: N_1 = 25 sections, each a point set
    L = forms_matrix(QQ, 4, [["x", "y"], ["y", "z"], ["z", "w"]])
    res = degeneracy_dim(L)
    assert (res.kind, res.dim) == ("dim", 1)
    assert (res.method["kind"], res.method["hyperplanes"]) == ("hyperplane_count", 25)
    assert degeneracy_dim(L.transpose()).method == res.method


def test_a_curve_on_p2_takes_nine_lines():
    # on P2 the locus {x = 0} of the surface's matrix is a curve, and
    # N_1 = 2 * 2^2 + 1 = 9 lines decide it, one proof each
    L = forms_matrix(QQ, 3, [["x", "0"], ["y", "0"], ["0", "x"], ["0", "x"]])
    res = degeneracy_dim(L)
    assert (res.kind, res.dim) == ("dim", 1)
    assert (res.method["hyperplanes"], res.method["proofs"]) == (9, 9)


def test_a_line_inside_a_section_is_counted_with_its_hyperplane():
    # the locus of tf + tf is the line {x = y = 0}, which lies inside
    # H_0 = {x = 0}: that section is a curve, the next a point
    from monadlab.pointwise import _meets, _section
    T = direct_sum(example_monad("torsion-free"), example_monad("torsion-free")).alpha
    assert _meets(_section(T, 0), 1, []) is True
    assert _meets(_section(T, 1), 1, []) is False


def test_a_curve_over_a_small_prime_field_is_refused():
    # F_3 has 3 hyperplanes H_t, and all of them meet the line {x = y = 0};
    # proving a curve takes N_1 = 25 of them
    M = to_prime_field(direct_sum(example_monad("torsion-free"),
                                  example_monad("torsion-free")), 3)
    with pytest.raises(ValueError, match="over F_3 only 3 hyperplanes H_t exist, and "
                                         "deciding dimension >= 1 on P3 takes N_1 = 25"):
        classify(M)


def test_a_matrix_of_lower_generic_rank_degenerates_everywhere():
    L = forms_matrix(QQ, 4, [["x", "x"], ["y", "y"], ["z", "z"]])
    res = degeneracy_dim(L)
    assert (res.kind, res.dim, res.method["kind"]) == ("dim", 3, "generic_rank")


def test_the_slice_proof_cap_refuses_before_any_slice_proof(monkeypatch):
    # the proofs on all of P^n are stubbed (the locus is not empty, the
    # matrix injective as a sheaf map) and every other rank raises
    from monadlab import exactlin, pointwise
    from monadlab.exactlin import RankProof

    def no_work(*args, **kwargs):
        raise AssertionError("a slice proof was taken")
    whole = []

    def onto_once(P):
        if whole:
            no_work()
        whole.append(P)
        return RankProof(False, 0, 1, (1, 1), "Q")
    monkeypatch.setattr(exactlin, "mult_map", no_work)
    monkeypatch.setattr(exactlin, "_echelon", no_work)
    monkeypatch.setattr(pointwise, "onto_everywhere", onto_once)
    monkeypatch.setattr(pointwise, "generically_injective",
                        lambda P: RankProof(True, 1, 1, (1, 1), "Q"))

    def diagonal(n, r):
        return forms_matrix(QQ, n + 1, [["x" if i == j else "0" for j in range(r)]
                                        for i in range(r)])
    for n, r, worst in ((3, 5, 4252), (3, 6, 8606), (2, 32, 2049)):
        whole.clear()
        with pytest.raises(ValueError, match=f"rank-{r} matrix on P{n} may take {worst} "
                                             f"slice proofs, over the cap 2000"):
            degeneracy_dim(diagonal(n, r))
    # the largest r the cap admits goes on to its first slice proof
    for n, r in ((3, 4), (2, 31)):
        whole.clear()
        with pytest.raises(AssertionError, match="slice proof"):
            degeneracy_dim(diagonal(n, r))
