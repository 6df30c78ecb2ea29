"""Twist cohomology tables, admissibility, stability, dual vanishing.

The three example tables below were derived independently of the engine:
h^0 and h^1 from the ranks of the section-level maps (the right map's
images span full degree pieces), h^2/h^3 from the transposed maps, all
cross-checked against the Euler characteristic column by column and
against duality for the locally-free case.
"""

import time

import pytest

from monadlab import (
    CohomologyTable,
    MonadLabError,
    QQ,
    SpecialMonad,
    admissibility_check,
    admissibility_violations,
    chi_line_bundle,
    classify,
    cohomology_table,
    direct_sum,
    dual_vanishing_check,
    dualize,
    example_monad,
    forms_matrix,
    invariants,
    random_monad,
    stability_report,
    trivial_monad,
    twist_cohomology,
    validate,
)

FROZEN_TABLES = {
    "locally-free": [
        [0, 0, 0, 0, 0, 0, 0, 5, 16],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0, 0],
        [16, 5, 0, 0, 0, 0, 0, 0, 0],
    ],
    "torsion-free": [
        [0, 0, 0, 0, 0, 0, 0, 5, 16],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [4, 3, 2, 1, 0, 0, 0, 0, 0],
        [20, 8, 2, 0, 0, 0, 0, 0, 0],
    ],
    "reflexive": [
        [0, 0, 0, 0, 0, 0, 1, 9, 26],
        [0, 0, 0, 0, 0, 1, 0, 0, 0],
        [1, 1, 1, 1, 0, 0, 0, 0, 0],
        [27, 10, 2, 0, 0, 0, 0, 0, 0],
    ],
}


def test_example_tables_match_independent_derivation():
    for name, rows in FROZEN_TABLES.items():
        table = cohomology_table(example_monad(name), -6, 2)
        assert table.rows == rows, name


def test_single_twists_of_the_locally_free_example():
    M = example_monad("locally-free")
    assert twist_cohomology(M, -1) == (0, 1, 0, 0)
    assert twist_cohomology(M, -2) == (0, 0, 0, 0)
    assert twist_cohomology(M, 0)[0] == 0


def test_h0_at_zero_by_direct_rank_oracle():
    # the degree-0 right map of the locally-free example is the 4x4 integer
    # matrix with columns the coefficients of (-y, x, z, w); eliminating by
    # hand gives rank 4, so no kernel and no sections
    from fractions import Fraction
    m = [[Fraction(x) for x in row]
         for row in ([0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])]
    r = 0
    for c in range(4):
        piv = next((i for i in range(r, 4) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(4):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    assert r == 4
    assert twist_cohomology(example_monad("locally-free"), 0)[0] == 0


def test_trivial_monad_cohomology():
    T = trivial_monad(4)
    assert twist_cohomology(T, 0) == (4, 0, 0, 0)
    assert twist_cohomology(T, -3) == (0, 0, 0, 0)
    assert twist_cohomology(T, -4) == (0, 0, 0, 4)
    assert twist_cohomology(T, -5)[3] == 4 * chi_line_bundle(3, -5) * -1


def test_euler_identity_on_window():
    for name in FROZEN_TABLES:
        M = example_monad(name)
        v, w, vp = M.dims()
        table = cohomology_table(M, -6, 2)
        for k in range(-6, 3):
            expected = (w * chi_line_bundle(3, k) - v * chi_line_bundle(3, k - 1)
                        - vp * chi_line_bundle(3, k + 1))
            assert table.euler(k) == expected


def test_dimension_identities():
    for name in FROZEN_TABLES:
        M = example_monad(name)
        assert twist_cohomology(M, -1)[1] == M.v_prime
        assert twist_cohomology(M, -3)[2] == M.v


def test_table_additivity_under_direct_sum():
    A = example_monad("locally-free")
    B = example_monad("torsion-free")
    tsum = cohomology_table(direct_sum(A, B), -6, 2)
    assert tsum.rows == cohomology_table(A, -6, 2).add(cohomology_table(B, -6, 2)).rows


def test_serre_duality_table_symmetry():
    M = example_monad("locally-free")
    D = dualize(M)
    t = cohomology_table(M, -6, 2)
    td = cohomology_table(D, -6, 2)
    for k in range(-6, 3):
        for p in range(4):
            assert t.entry(p, k) == td.entry(3 - p, -k - 4)


def test_admissibility_examples_and_trivial():
    for name in FROZEN_TABLES:
        assert admissibility_check(example_monad(name)).passed
    assert admissibility_check(trivial_monad(3)).passed


def test_admissibility_violation_detection_on_hand_built_table():
    rows = [[0] * 9 for _ in range(4)]
    rows[1][-2 - (-6)] = 1      # h^1(E(-2)) = 1
    table = CohomologyTable(3, -6, 2, rows)
    assert admissibility_violations(table) == [(1, -2)]
    # values in the allowed region are not violations
    rows = [[0] * 9 for _ in range(4)]
    rows[0][0 - (-6)] = 7       # h^0(E(0)) may be anything
    rows[1][-1 - (-6)] = 3      # h^1(E(-1)) may be anything
    assert admissibility_violations(CohomologyTable(3, -6, 2, rows)) == []


def test_admissibility_window_must_cover_core():
    with pytest.raises(ValueError):
        admissibility_check(example_monad("locally-free"), (-4, 2))


def test_random_monads_are_admissible():
    for seed, dims in enumerate([(1, 4, 1), (2, 6, 2), (0, 5, 2), (2, 8, 1)]):
        M = random_monad(*dims, seed=seed)
        rep = admissibility_check(M)
        assert rep.passed, (dims, rep.violations)


def test_stability_examples():
    lf = example_monad("locally-free")
    rep = stability_report(lf, classify(lf))
    assert (rep.semistable, rep.stable, rep.h0) == ("yes", "yes", 0)

    tf = example_monad("torsion-free")
    rep = stability_report(tf, classify(tf))
    assert (rep.semistable, rep.stable, rep.h0) == ("yes", "yes", 0)

    t2 = trivial_monad(2)
    rep = stability_report(t2, classify(t2))
    assert (rep.semistable, rep.stable, rep.h0) == ("yes", "no", 2)

    # the rank 3 reflexive example has a section, so it is not stable
    ref = example_monad("reflexive")
    rep = stability_report(ref, classify(ref))
    assert (rep.semistable, rep.stable, rep.h0) == ("yes", "no", 1)


def _zero_row_rank3():
    """A locally-free rank-3 sheaf with c1 = 0 whose dual has a section:
    alpha is a 6x2 block over a zero seventh row, so the seventh coordinate
    O^7 -> O kills the image of alpha and gives a map E -> O; beta was drawn
    from the kernel of the composite, as monad._solve_beta draws it."""
    alpha = forms_matrix(QQ, 4, [["x", "0"], ["y", "0"], ["z", "x"], ["w", "y"],
                                 ["0", "z"], ["0", "w"], ["0", "0"]])
    beta = forms_matrix(QQ, 4, [
        ["-y - 2*w", "x + 2*z", "-2*y - w", "2*x + z", "-y - w", "x + z", "x - 2*y"],
        ["-2*w", "2*z", "-2*y + w", "2*x - z", "y", "-x", "x + 2*y - z - w"]])
    return SpecialMonad(3, alpha, beta)


def _reflexive_rank3():
    """A rank-3 reflexive sheaf with c1 = 0 that is not locally free: alpha
    drops rank only at (0:0:0:1); beta was drawn as monad._solve_beta does."""
    alpha = forms_matrix(QQ, 4, [["x", "0"], ["y", "0"], ["z", "0"], ["0", "x"],
                                 ["0", "y"], ["0", "z"], ["w", "w"]])
    beta = forms_matrix(QQ, 4, [
        ["-y + 2*z - w", "x", "-2*x - w", "-y - 2*z - w", "x - z", "2*x + y - w", "x + z"],
        ["z + w", "-2*z + 2*w", "-x + 2*y - 2*w", "-2*y + z + w", "2*x + 2*w", "-x - 2*w",
         "-x - 2*y + 2*z"]])
    return SpecialMonad(3, alpha, beta)


def test_stability_in_rank_3_reads_the_dual_sections(monkeypatch):
    # h0_dual = h^3(E(-4)) by Serre duality, for every coherent sheaf, with
    # no dual monad built; the reflexive input was "inconclusive" while the
    # dual took a second monad
    from monadlab import cohomology, monad

    def no_dual(*args, **kwargs):
        raise AssertionError("stability built the dual monad")
    for M, level, h0_dual, stable in ((random_monad(2, 7, 2, seed=0), "locally_free", 0, "yes"),
                                      (_zero_row_rank3(), "locally_free", 1, "no"),
                                      (_reflexive_rank3(), "reflexive", 0, "yes")):
        assert validate(M).overall
        cls = classify(M)
        inv = invariants(M)
        assert (cls.level, inv.rank, inv.c1) == (level, 3, 0)
        with monkeypatch.context() as patch:
            patch.setattr(monad, "dualize", no_dual)
            patch.setattr(cohomology, "dualize", no_dual, raising=False)
            rep = stability_report(M, cls)
        assert (rep.semistable, rep.stable, rep.h0, rep.h0_dual) == ("yes", stable, 0, h0_dual)
        assert rep.notes == []
        if level == "locally_free":
            assert h0_dual == twist_cohomology(dualize(M), 0)[0]
    # a section of E decides "no" before the dual column is read
    M = direct_sum(example_monad("locally-free"), trivial_monad(1))
    rep = stability_report(M, classify(M))
    assert (rep.rank, rep.semistable, rep.stable, rep.h0, rep.h0_dual) == (3, "yes", "no", 1, None)


def test_stability_inconclusive_outside_hypotheses():
    M = random_monad(2, 8, 1, seed=5)   # c1 = 1
    rep = stability_report(M, classify(M))
    assert rep.semistable == "inconclusive" and rep.stable == "inconclusive"


def test_stability_reports_no_criterion_without_classifying(monkeypatch):
    # tf + tf mod 5 has rank 4, where no criterion applies, so its curve
    # locus (which F_5 has too few hyperplanes to prove) is never classified
    from monadlab import pointwise
    from monadlab.monad import to_prime_field

    def no_classify(L):
        raise AssertionError("classified")
    monkeypatch.setattr(pointwise, "degeneracy_dim", no_classify)
    tf = example_monad("torsion-free")
    rep = stability_report(to_prime_field(direct_sum(tf, tf), 5))
    assert rep.to_json_obj() == {
        "rank": 4, "h0": 0, "h0_dual": None, "semistable": "inconclusive",
        "stable": "inconclusive", "criterion": "none",
        "notes": ["no criterion applies at this rank/regularity"]}


def test_stability_classifies_a_sheaf_that_is_not_locally_free():
    # without a classification passed in, the torsion-free example is
    # classified, and its verdict matches the one with the classification
    tf = example_monad("torsion-free")
    assert (stability_report(tf).to_json_obj()
            == stability_report(tf, classify(tf)).to_json_obj())
    assert stability_report(tf).criterion.startswith("rank 2 torsion-free")


@pytest.mark.parametrize("dims,seed", [(None, None), ((2, 6, 2), 0), ((1, 4, 1), 1),
                                       ((2, 7, 2), 0), ((2, 8, 1), 5)])
def test_dual_sections_by_serre_duality_match_the_dual_monad(dims, seed):
    M = example_monad("locally-free") if dims is None else random_monad(*dims, seed=seed)
    rep = dual_vanishing_check(M, (-6, 4))
    assert list(rep.values) == list(range(-6, 5))
    assert list(rep.values.values()) == cohomology_table(dualize(M), -6, 4).rows[0]


@pytest.mark.parametrize("name", ["torsion-free", "reflexive"])
def test_dual_sections_from_one_rank(name):
    # with K = ker beta, h^0(E^v(k)) = w|S_k| - rank mult_map(alpha^T, k) - v'|S_{k-1}|;
    # the table's h^3(E(-k-4)) must agree where no dual monad exists
    from monadlab.exactlin import monomial_count, mult_map
    M = example_monad(name)
    table = cohomology_table(M, -7, -2)
    for k in range(-2, 4):
        one_rank = (M.w * monomial_count(4, k) - mult_map(M.alpha.transpose(), k).rank()
                    - M.v_prime * monomial_count(4, k - 1))
        assert one_rank == table.entry(3, -k - 4), k


def test_dual_vanishing():
    M = example_monad("locally-free")
    rep = dual_vanishing_check(M)
    assert rep.passed and set(rep.values) == {-5, -4, -3, -2, -1}
    assert dual_vanishing_check(trivial_monad(2)).passed
    # Serre duality holds for every coherent sheaf: a torsion-free sheaf
    # gets its values from row 3 of its own table, read backwards
    tf = example_monad("torsion-free")
    rep = dual_vanishing_check(tf)
    assert list(rep.values.values()) == cohomology_table(tf, -3, 1).rows[3][::-1]
    assert list(rep.values.values()) == [0, 0, 0, 0, 0] and rep.passed


def test_dual_vanishing_report_json():
    # the reflexive example's dual has sections from twist 0 on
    rep = dual_vanishing_check(example_monad("reflexive"), (-2, 0))
    assert rep.to_json_obj() == {"window": [-2, 0], "h0_dual": {"-2": 0, "-1": 0, "0": 2},
                                 "violations": [0], "passed": False}


def test_p2_monad_cohomology():
    a2 = forms_matrix(QQ, 3, [["x"], ["y"], ["z"], ["0"]])
    b2 = forms_matrix(QQ, 3, [["-y", "x", "0", "z"]])
    P = SpecialMonad(2, a2, b2)
    assert validate(P).overall
    inv = invariants(P)
    assert (inv.rank, inv.c1, inv.c2, inv.c3) == (2, 0, 1, None)
    assert twist_cohomology(P, -1)[1] == 1
    assert admissibility_check(P).passed
    # duality on P2: h^p(E(k)) = h^{2-p}(E*(-k-3))
    D = dualize(P)
    t = cohomology_table(P, -6, 2)
    td = cohomology_table(D, -6, 3)
    for k in range(-6, 2):
        for p in range(3):
            assert t.entry(p, k) == td.entry(2 - p, -k - 3)


def test_table_export_formats():
    table = cohomology_table(example_monad("locally-free"), -2, 0)
    csv = table.to_csv()
    assert csv.splitlines()[0] == "p,-2,-1,0"
    assert csv.splitlines()[2] == "1,0,1,0"
    md = table.to_markdown()
    assert md.startswith("| p\\k | -2 | -1 | 0 |")
    obj = table.to_json_obj()
    assert obj["h"][1] == [0, 1, 0]


def test_euler_characteristic_matches_riemann_roch():
    # independent route: chi(E(k)) from the Chern data through the Todd
    # class of P3 (td = 1 + 2H + 11/6 H^2 + H^3) must match the table's
    # alternating sums, tying the sign convention of the invariants to the
    # cohomology engine
    from fractions import Fraction

    def rr_euler(inv, k):
        r = Fraction(inv.rank)
        c1, ch2, ch3 = Fraction(inv.c1), inv.ch2, inv.ch3
        ch1k = c1 + r * k
        ch2k = ch2 + k * c1 + r * k * k / 2
        ch3k = ch3 + k * ch2 + Fraction(k * k, 2) * c1 + r * k ** 3 / 6
        chi = ch3k + 2 * ch2k + Fraction(11, 6) * ch1k + r
        assert chi.denominator == 1
        return int(chi)

    monads = [example_monad(n) for n in FROZEN_TABLES]
    monads += [random_monad(2, 8, 1, seed=5), random_monad(2, 6, 2, seed=9),
               trivial_monad(3)]
    for M in monads:
        inv = invariants(M)
        table = cohomology_table(M, -6, 2)
        for k in range(-6, 3):
            assert table.euler(k) == rr_euler(inv, k), (M.dims(), k)


def test_far_twists_of_a_sheaf_that_is_not_locally_free_are_capped(monkeypatch):
    # without the A^T proof a table still eliminates a*_j, j = -k-4, most at
    # k_min; the window is refused when that matrix passes MAX_CELLS.  a_k
    # is a closed form, so the positive twists are answered
    from monadlab import cohomology

    tf = example_monad("torsion-free")
    assert cohomology_table(tf, 12, 12).column(12) == (896, 0, 0, 0)
    assert cohomology_table(tf, 30, 30).column(30) == (10880, 0, 0, 0)
    assert cohomology_table(tf, -2, 30).column(30) == (10880, 0, 0, 0)

    def no_rank(*args, **kwargs):
        raise AssertionError("a twist was computed before the cap")
    monkeypatch.setattr(cohomology, "complex_cohomology", no_rank)
    cap = cohomology.MAX_CELLS
    for M, k_min, k_max, k, cells in ((tf, -30, 2, -30, 59340960),
                                      (direct_sum(tf, tf), -30, -30, -30, 237363840),
                                      (direct_sum(tf, tf), -30, 2, -30, 237363840)):
        assert cells > cap
        with pytest.raises(ValueError) as info:
            cohomology_table(M, k_min, k_max)
        assert str(info.value) == (f"twist {k} would eliminate a matrix of {cells} "
                                   f"cells, over the cap {cap}")
        with pytest.raises(ValueError):
            twist_cohomology(M, k)


def _median_seconds(fn, runs=5):
    times = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return sorted(times)[runs // 2]


def test_positive_twists_of_sheaves_not_locally_free_take_no_elimination():
    # a_k is v|S_{k-1}| at every twist once A is injective as a sheaf map;
    # tf+tf at 30 was refused, and tf on [-7, 16] took about 1.6 s
    tf = example_monad("torsion-free")
    tf2 = direct_sum(tf, tf)
    assert cohomology_table(tf2, 30, 30).column(30) == (21760, 0, 0, 0)
    assert _median_seconds(lambda: cohomology_table(tf2, 30, 30)) < 0.010
    assert _median_seconds(lambda: cohomology_table(tf, -7, 16)) < 0.050


def test_proofs_above_the_cap_are_refused_before_any_rank(monkeypatch):
    # certify's A^T proof eliminates mult_map(A^T, v-1), v|S_v| x w|S_{v-1}|
    # cells: 5460 x 5096 for (12, 14, 1), which passes special_monad_exists
    from monadlab import cohomology, exactlin
    from monadlab.exactlin import LinearFormMatrix

    def no_work(*args, **kwargs):
        raise AssertionError("a rank was taken before the cap")
    M = SpecialMonad(3, LinearFormMatrix.zeros(QQ, 14, 12, 4),
                     LinearFormMatrix.zeros(QQ, 1, 14, 4))
    monkeypatch.setattr(exactlin, "mult_map", no_work)
    monkeypatch.setattr(exactlin, "_echelon", no_work)
    monkeypatch.setattr(cohomology, "certify", no_work)
    for call in (lambda: cohomology_table(M, -6, 2), lambda: twist_cohomology(M, 0)):
        with pytest.raises(ValueError, match=(
                "^the alpha\\^T proof would eliminate a matrix of 27824160 cells, "
                f"over the cap {cohomology.MAX_CELLS}$")):
            call()
    Mt = SpecialMonad(3, M.beta.transpose(), M.alpha.transpose())
    with pytest.raises(ValueError, match="^the beta proof would eliminate .* 27824160 cells"):
        cohomology_table(Mt, -6, 2)


def test_far_twists_of_a_locally_free_sheaf_are_not_capped():
    lf = example_monad("locally-free")
    assert twist_cohomology(lf, 30)[1:] == (0, 0, 0)
    assert twist_cohomology(lf, -30)[:3] == (0, 0, 0)


def _count_mult_maps(monkeypatch):
    """Shapes of the multiplication maps built, at every binding that builds them."""
    from monadlab import cohomology, exactlin
    built = []
    mult_map = exactlin.mult_map

    def counting(L, d):
        m = mult_map(L, d)
        built.append((m.nrows, m.ncols))
        return m
    monkeypatch.setattr(exactlin, "mult_map", counting)
    monkeypatch.setattr(cohomology, "mult_map", counting)
    return built


def test_a_map_out_of_a_zero_space_is_never_built(monkeypatch):
    # such a map has no columns and rank 0 (test_exactlin's
    # test_mult_map_single_form).  The (2,8,2) s1 table on [-7, 2] builds
    # certify's composite check and two proofs (four maps), then b_0 and
    # a*_0; every other rank is a closed form or a map out of S_d = 0, d < 0
    M = random_monad(2, 8, 2, seed=1)
    built = _count_mult_maps(monkeypatch)
    cohomology_table(M, -7, 2)
    assert len(built) == 6 and all(r and c for r, c in built), built


def test_a_clean_pencil_splits_with_two_maps(monkeypatch):
    from monadlab import certify, restrict, sample_line, splitting_type
    M = random_monad(2, 8, 2, seed=1)
    cert = certify(M.alpha, M.beta)
    assert cert.clean
    pc = restrict(M, sample_line(0, 0, QQ), cert)
    built = _count_mult_maps(monkeypatch)
    assert splitting_type(pc).parts == (0, 0, 0, 0)
    # b_0 and a*_0 (twist -2); the d_2 at twist -1 is one product, no map
    assert len(built) == 2 and all(r and c for r, c in built), built


def _zero_left_map():
    """alpha = 0 and beta = (-y, x, z, w): beta is onto everywhere and the
    composite vanishes, but the left map is not injective, so no monad."""
    return SpecialMonad(3, forms_matrix(QQ, 4, [["0"]] * 4),
                        forms_matrix(QQ, 4, [["-y", "x", "z", "w"]]))


def test_tables_refuse_a_left_map_that_is_not_injective():
    # the window [-6, 2] reached the Euler guard at twist 1, and [-6, 0]
    # returned a table
    M = _zero_left_map()
    assert not validate(M).alpha_injective.passed
    for window in ((-6, 2), (-6, 0)):
        with pytest.raises(MonadLabError, match="^left map is not injective; not a monad$"):
            cohomology_table(M, *window)
    with pytest.raises(MonadLabError, match="left map is not injective"):
        twist_cohomology(M, 0)


def test_a_sheaf_not_locally_free_takes_no_injectivity_proof(monkeypatch):
    # tf+tf has v = 2 and a failing A^T proof; as in validate, one seeded
    # point of full column rank shows its left map injective, so no table
    # builds generically_injective's mult_map(alpha, v-1), whose v*w*|S_{v-1}|*|S_v|
    # cells grow with v and not with the window.  On [-6, 1] no twist's rank
    # has that shape either (a_2 would)
    from monadlab import certify
    tf = example_monad("torsion-free")
    M = direct_sum(tf, tf)
    assert M.v == 2 and not certify(M.alpha, M.beta).left
    built = _count_mult_maps(monkeypatch)
    cohomology_table(M, -6, 1)
    proof_shape = (M.w * chi_line_bundle(3, M.v), M.v * chi_line_bundle(3, M.v - 1))
    assert built and proof_shape not in built, built
