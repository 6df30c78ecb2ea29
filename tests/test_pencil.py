"""Restriction to lines: pencil complexes, twist dimensions, splitting types.

The worked values on the line {z = w = 0} were computed by hand: at twist
-1 the only nonzero E_2 terms are H^1(O(-2))^v and H^0(O)^v', both of
dimension 1, and the differential between them is B_t A_s =
(-1, 0, 0, 0) . (1, 0, 0, 0)^T = -1, an isomorphism, so both dimensions
vanish.
"""

import pytest

from monadlab import (
    AlphaDegenerateError,
    Line,
    QQ,
    direct_sum,
    dual_pencil,
    example_monad,
    line_status,
    p1_cohomology,
    random_monad,
    restrict,
    splitting_type,
    trivial_monad,
)
from monadlab.lines_scan import sample_line

LINE_ZW = ([1, 0, 0, 0], [0, 1, 0, 0])     # {z = w = 0}
LINE_YW = ([1, 0, 0, 0], [0, 0, 1, 0])     # {y = w = 0}, isotropic
LINE_XY = ([0, 0, 1, 0], [0, 0, 0, 1])     # {x = y = 0}, the singular line


def test_line_requires_two_independent_points():
    with pytest.raises(Exception):
        Line.from_points(QQ, [1, 2, 0, 0], [2, 4, 0, 0])


def test_restriction_substitutes_the_parametrization():
    M = example_monad("locally-free")
    pc = restrict(M, Line.from_points(QQ, *LINE_ZW))
    # alpha restricts to (s, t, 0, 0)^T and beta to (-t, s, 0, 0)
    assert [row[0] for row in pc.A.coeffs[0].data] == [1, 0, 0, 0]
    assert [row[0] for row in pc.A.coeffs[1].data] == [0, 1, 0, 0]
    assert pc.B.coeffs[0].data[0] == [0, 1, 0, 0]
    assert pc.B.coeffs[1].data[0] == [-1, 0, 0, 0]


def test_restricted_composition_vanishes():
    from monadlab import compose_check
    for name in ("torsion-free", "reflexive", "locally-free"):
        M = example_monad(name)
        for i in range(5):
            line = sample_line(3, i, QQ)
            pc = restrict(M, line)
            assert compose_check(pc.B, pc.A)


def test_line_status():
    M = example_monad("locally-free")
    assert line_status(restrict(M, Line.from_points(QQ, *LINE_ZW))).clean

    Mtf = example_monad("torsion-free")
    # on the singular line the left map vanishes identically
    st = line_status(restrict(Mtf, Line.from_points(QQ, *LINE_XY)))
    assert not st.clean
    assert st.note == "left map drops rank identically on the line"
    assert st.degenerate_map == "left"
    # a line meeting the singular line once degenerates at that point only
    st = line_status(restrict(Mtf, Line.from_points(QQ, [0, 0, 1, 0], [1, 0, 0, 0])))
    assert not st.clean and st.degenerate_map == "left"
    assert st.note == "left map drops rank at a point of the line"
    # on a disjoint line it is clean
    assert line_status(restrict(Mtf, Line.from_points(QQ, *LINE_ZW))).clean


def test_worked_connecting_map_values():
    M = example_monad("locally-free")
    pc = restrict(M, Line.from_points(QQ, *LINE_ZW))
    assert p1_cohomology(pc, -1) == (0, 0)
    assert p1_cohomology(pc, 0) == (2, 0)
    assert splitting_type(pc).parts == (0, 0)
    assert splitting_type(pc).is_trivial


def test_opposite_chart_convention_gives_the_same_answer():
    # lifting the class 1/(st) through the s chart instead of the t chart
    # gives the differential B_s A_t = -B_t A_s, of the same rank, so the
    # dimensions agree.  Check by swapping the roles of the two parameters
    # (s <-> t), which exchanges the charts.
    from monadlab import LinearFormMatrix, PencilComplex
    M = example_monad("locally-free")
    pc = restrict(M, Line.from_points(QQ, *LINE_ZW))
    A = LinearFormMatrix(QQ, pc.w, pc.v, 2, [pc.A.coeffs[1], pc.A.coeffs[0]])
    B = LinearFormMatrix(QQ, pc.v_prime, pc.w, 2, [pc.B.coeffs[1], pc.B.coeffs[0]])
    swapped = PencilComplex(A, B)
    for k in range(-3, 4):
        assert p1_cohomology(pc, k) == p1_cohomology(swapped, k)


def test_jumping_line_of_the_locally_free_example():
    M = example_monad("locally-free")
    pc = restrict(M, Line.from_points(QQ, *LINE_YW))
    assert line_status(pc).clean
    assert p1_cohomology(pc, -1) == (1, 1)
    assert splitting_type(pc).parts == (1, -1)


def test_degenerate_line_is_refused():
    Mtf = example_monad("torsion-free")
    pc = restrict(Mtf, Line.from_points(QQ, *LINE_XY))
    with pytest.raises(AlphaDegenerateError):
        p1_cohomology(pc, 0)
    with pytest.raises(AlphaDegenerateError):
        splitting_type(pc)


def test_trivial_pencil_line_bundle_cohomology():
    T = trivial_monad(3)
    pc = restrict(T, Line.from_points(QQ, *LINE_ZW))
    for k in range(-5, 5):
        assert p1_cohomology(pc, k) == (3 * max(0, k + 1), 3 * max(0, -k - 1))
    assert splitting_type(pc).parts == (0, 0, 0)


def test_euler_identity_on_the_line():
    M = example_monad("locally-free")
    for i in range(6):
        line = sample_line(5, i, QQ)
        pc = restrict(M, line)
        if not line_status(pc).clean:
            continue
        for k in range(-4, 4):
            h0, h1 = p1_cohomology(pc, k)
            assert h0 - h1 == pc.rank * (k + 1) + pc.c1


def test_serre_duality_on_the_line():
    M = example_monad("locally-free")
    for pts in (LINE_ZW, LINE_YW):
        pc = restrict(M, Line.from_points(QQ, *pts))
        dp = dual_pencil(pc)
        for k in range(-4, 4):
            assert p1_cohomology(pc, k)[1] == p1_cohomology(dp, -k - 2)[0]


def test_splitting_of_direct_sum_is_multiset_union():
    M = example_monad("locally-free")
    S = direct_sum(M, M)
    for pts in (LINE_ZW, LINE_YW):
        line = Line.from_points(QQ, *pts)
        single = splitting_type(restrict(M, line)).parts
        double = splitting_type(restrict(S, line)).parts
        assert double == tuple(sorted(single + single, reverse=True))
    # summing with a trivial factor appends zeros
    S1 = direct_sum(M, trivial_monad(1))
    line = Line.from_points(QQ, *LINE_YW)
    assert splitting_type(restrict(S1, line)).parts == (1, 0, -1)


def test_splitting_respects_declared_bounds():
    for seed in range(6):
        M = random_monad(2, 7, 1, seed=seed)
        for i in range(4):
            line = sample_line(seed, i, QQ)
            pc = restrict(M, line)
            if not line_status(pc).clean:
                continue
            parts = splitting_type(pc).parts
            assert len(parts) == pc.rank
            assert sum(parts) == pc.c1
            assert all(-pc.v_prime <= a <= pc.v for a in parts)


def test_plucker_identity_for_sampled_lines():
    for i in range(20):
        line = sample_line(9, i, QQ)
        p01, p02, p03, p12, p13, p23 = line.plucker()
        assert p01 * p23 - p02 * p13 + p03 * p12 == 0


def test_h1_vanishes_beyond_the_degree_bound():
    # summand degrees are >= -v', so h^1 of the restriction dies at k >= v'
    for seed in range(4):
        M = random_monad(1, 6, 2, seed=seed)
        for i in range(3):
            pc = restrict(M, sample_line(seed, i, QQ))
            if not line_status(pc).clean:
                continue
            for k in range(pc.v_prime, pc.v_prime + 3):
                assert p1_cohomology(pc, k)[1] == 0
