"""Seeded line sampling and jumping-line statistics."""

import json

import pytest

from monadlab import (
    GF,
    NotLocallyFreeError,
    QQ,
    classify,
    codim_evidence,
    direct_sum,
    example_monad,
    jumping_scan,
    sample_line,
    to_prime_field,
    trivial_monad,
    trivial_splitting_test,
    uniformity_evidence,
)
from monadlab.lines_scan import MAX_SAMPLES
from monadlab.pencil import Line, line_status, restrict
from oracles import reference_sample_line


def test_sample_line_is_deterministic_and_rank_2():
    for field in (QQ, GF(32003)):
        a = sample_line(1, 9, field)
        b = sample_line(1, 9, field)
        assert a == b
        for i in range(50):
            line = sample_line(4, i, field)
            assert len(line.points) == 2


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101), GF(32003)],
                         ids=lambda f: f.name)
def test_sample_line_draws_the_reference_lines(field):
    # F_2 and F_3 draw proportional points often, so they take the redraw
    for ambient_n in (2, 3):
        for seed in (0, 5, 9):
            for index in range(700):
                line = sample_line(seed, index, field, ambient_n)
                ref = reference_sample_line(seed, index, field, ambient_n)
                assert line.points == ref.points, (ambient_n, seed, index)
                assert line.minors == ref.minors, (ambient_n, seed, index)
                assert ([type(x) for x in line.points[0] + line.points[1] + line.minors]
                        == [type(x) for x in ref.points[0] + ref.points[1] + ref.minors])


def test_sampled_lines_satisfy_the_plucker_quadric():
    for i in range(30):
        p01, p02, p03, p12, p13, p23 = sample_line(2, i, QQ).plucker()
        assert p01 * p23 - p02 * p13 + p03 * p12 == 0


def test_trivial_splitting_certified_for_the_examples():
    M = example_monad("locally-free")
    rep = trivial_splitting_test(M, samples=10, seed=0)
    assert rep.certified
    assert rep.witness is not None
    assert "certified" in rep.note

    t = trivial_splitting_test(trivial_monad(2), samples=3, seed=0)
    assert t.certified


def test_trivial_splitting_on_random_rank2_monads():
    from monadlab import random_monad
    for seed in range(6):
        M = random_monad(1, 4, 1, seed=seed)
        rep = trivial_splitting_test(M, samples=10, seed=seed)
        assert rep.certified, (seed, rep.to_json_obj())


def test_jumping_scan_counts_and_determinism():
    M = example_monad("locally-free")
    cls = classify(M)
    rep1 = jumping_scan(M, 101, 500, seed=3, classification=cls)
    rep2 = jumping_scan(M, 101, 500, seed=3, classification=cls)
    assert json.dumps(rep1.to_json_obj(), sort_keys=True) == \
        json.dumps(rep2.to_json_obj(), sort_keys=True)
    assert rep1.jumping + rep1.degenerate <= rep1.samples
    assert rep1.fraction == rep1.jumping / rep1.samples
    # expected fraction is of order 1/p
    assert 0.2 / 101 <= rep1.fraction <= 6 / 101, rep1.fraction
    assert rep1.witnesses and len(rep1.witnesses) <= 32


def test_jumping_scan_refuses_non_locally_free():
    with pytest.raises(NotLocallyFreeError):
        jumping_scan(example_monad("torsion-free"), 101, 10)


def test_a_sheaf_with_a_curve_locus_over_a_small_field_is_not_locally_free(monkeypatch):
    # tf + tf degenerates on a line; F_5 has too few hyperplanes to prove
    # that curve, but "locally free" is one rank on any field, so every
    # operation that needs it refuses the sheaf with NotLocallyFreeError
    from monadlab import dualize, pointwise

    def no_classify(*args, **kwargs):
        raise AssertionError("degeneracy_dim ran")
    monkeypatch.setattr(pointwise, "degeneracy_dim", no_classify)
    tf = example_monad("torsion-free")
    M = to_prime_field(direct_sum(tf, tf), 5)
    for refuse in (lambda: dualize(M), lambda: jumping_scan(M, 5, 10),
                   lambda: uniformity_evidence(M, 10),
                   lambda: codim_evidence(direct_sum(tf, tf), [5, 7], 10)):
        with pytest.raises(NotLocallyFreeError, match="drops rank at a point"):
            refuse()
    # a locally-free sheaf passes on the same one rank
    lf = example_monad("locally-free")
    assert dualize(lf).dims() == (1, 4, 1)
    assert jumping_scan(lf, 101, 20).samples == 20
    assert uniformity_evidence(lf, 5).samples == 5
    assert len(codim_evidence(lf, [101, 103], 20).rows) == 2


def test_codim_evidence_checks_the_monad_once(monkeypatch):
    from monadlab import exactlin
    checked = []
    onto = exactlin.onto_everywhere

    def counting(P):
        checked.append(P.field.name)
        return onto(P)
    monkeypatch.setattr(exactlin, "onto_everywhere", counting)
    codim_evidence(example_monad("locally-free"), [101, 103], 20)
    # the monad over Q once, then the two proofs of each reduction's certificate
    assert checked == ["Q", "Fp:101", "Fp:101", "Fp:103", "Fp:103"]


def test_jumping_scan_caps_samples():
    M = example_monad("locally-free")
    with pytest.raises(ValueError):
        jumping_scan(M, 101, MAX_SAMPLES + 1, classification=classify(M))


def test_trivial_monad_has_no_jumping_lines():
    T = trivial_monad(2)
    rep = jumping_scan(T, 101, 300, classification=classify(T))
    assert rep.jumping == 0 and rep.degenerate == 0


def test_direct_sum_with_trivial_keeps_the_jumping_fraction():
    M = example_monad("locally-free")
    S = direct_sum(M, trivial_monad(1))
    r1 = jumping_scan(M, 101, 400, seed=1, classification=classify(M))
    r2 = jumping_scan(S, 101, 400, seed=1, classification=classify(S))
    assert r1.jumping == r2.jumping
    assert r1.degenerate == r2.degenerate


def test_degenerate_lines_of_the_torsion_free_example_meet_the_singular_line():
    # over F_p the locally-free example never degenerates; the torsion-free
    # one degenerates exactly on lines meeting {x = y = 0}
    p = 31
    f = GF(p)
    Mlf = to_prime_field(example_monad("locally-free"), p)
    Mtf = to_prime_field(example_monad("torsion-free"), p)
    degen = 0
    for i in range(600):
        line = sample_line(7, i, f)
        assert line_status(restrict(Mlf, line)).clean
        clean = line_status(restrict(Mtf, line)).clean
        (a, b) = line.points
        meets = (a[0] * b[1] - a[1] * b[0]) % p == 0
        assert clean == (not meets), (i, line.points)
        degen += 0 if clean else 1
    assert degen > 0


def test_codim_evidence_trivial_and_error_paths():
    T = trivial_monad(2)
    rep = codim_evidence(T, [101, 103], 200, classification=classify(T))
    assert rep.exponent is None
    assert "empty jumping locus" in rep.verdict

    with pytest.raises(ValueError):
        codim_evidence(trivial_monad(3), [101, 103], 100,
                       classification=classify(trivial_monad(3)))
    with pytest.raises(ValueError):
        M = example_monad("locally-free")
        codim_evidence(M, [101], 100, classification=classify(M))


def test_scans_check_their_arguments_before_classifying():
    # a torsion-free sheaf is refused as not locally free, so each error
    # below shows that the argument was checked first
    tf = example_monad("torsion-free")
    with pytest.raises(ValueError, match="at least one sample"):
        jumping_scan(tf, 101, 0)
    with pytest.raises(ValueError, match="at least one sample"):
        uniformity_evidence(tf, samples=0)
    with pytest.raises(ValueError, match="at least one sample"):
        codim_evidence(tf, [101, 103], 0)
    with pytest.raises(ValueError, match="two distinct primes"):
        codim_evidence(tf, [101, 101], 100)
    with pytest.raises(ValueError, match="not prime"):
        codim_evidence(tf, [101, 100], 100)
    from monadlab import MonadLabError
    with pytest.raises(MonadLabError, match="cannot scan mod 103"):
        codim_evidence(to_prime_field(tf, 101), [101, 103], 100)


def test_codim_evidence_exponent_regression_arithmetic():
    # two primes with equal nonzero fractions give exponent 0: not codim 1
    M = example_monad("locally-free")
    cls = classify(M)
    rep = codim_evidence(M, [101, 1009], 3000, seed=0, classification=cls)
    rows = {r["prime"]: r for r in rep.rows}
    assert rows[101]["jumping"] > 0
    if rep.exponent is not None:
        import math
        f1, f2 = rows[101]["fraction"], rows[1009]["fraction"]
        slope = (math.log(f2) - math.log(f1)) / (math.log(1009) - math.log(101))
        assert abs(rep.exponent - (-slope)) < 1e-9
    assert rep.to_csv().splitlines()[0] == "prime,samples,jumping,fraction"


def test_uniformity_trivial_not_refuted():
    T = trivial_monad(2)
    rep = uniformity_evidence(T, samples=20, classification=classify(T))
    assert not rep.refuted
    assert not any("tension" in n for n in rep.notes)


def test_uniformity_on_the_locally_free_example():
    M = example_monad("locally-free")
    cls = classify(M)
    rep = uniformity_evidence(M, samples=40, seed=0, classification=cls)
    # jumping lines have measure zero over Q, so sampling sees one splitting,
    # and the c2 = 1 tension note fires
    assert not rep.refuted
    assert any("tension" in n for n in rep.notes)
    # a known jumping line refutes uniformity with a witness
    jumper = Line.from_points(QQ, [1, 0, 0, 0], [0, 0, 1, 0])
    rep2 = uniformity_evidence(M, samples=10, seed=0, extra_lines=[jumper],
                               classification=cls)
    assert rep2.refuted
    assert rep2.witness is not None


def test_uniformity_streams_its_lines():
    # the sampled lines are split as they are drawn, never held together
    import tracemalloc
    M = to_prime_field(example_monad("locally-free"), 101)
    cls = classify(M)
    tracemalloc.start()
    try:
        rep = uniformity_evidence(M, samples=20000, seed=0, classification=cls)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.samples == 20000 and rep.refuted
    assert peak < 2 * 2 ** 20, peak


def test_codim_verdict_respects_the_tolerance():
    M = example_monad("locally-free")
    cls = classify(M)
    rep = codim_evidence(M, [101, 1009], 4000, seed=0, classification=cls,
                         tolerance=0.001)
    # the exponent estimate cannot be within 0.001 of 1 at this sample size
    assert rep.exponent is not None
    assert rep.verdict == "not consistent with codimension 1"


def test_jumping_scan_on_prime_field_monad():
    from monadlab import MonadLabError, random_monad
    M = random_monad(1, 4, 1, seed=4, field=GF(101))
    rep = jumping_scan(M, 101, 200, classification=classify(M))
    assert rep.samples == 200
    with pytest.raises(MonadLabError):
        jumping_scan(M, 103, 50, classification=classify(M))


def test_scan_checks_the_field_before_the_sheaf():
    # a torsion-free sheaf over F_101 scanned mod 7: the wrong field is the
    # first thing to report, before classification refuses the sheaf
    from monadlab import MonadLabError
    M = to_prime_field(example_monad("torsion-free"), 101)
    with pytest.raises(MonadLabError, match="cannot scan mod 7"):
        jumping_scan(M, 7, 10)
    with pytest.raises(NotLocallyFreeError):
        jumping_scan(M, 101, 10)


def test_scans_work_on_p2_monads():
    from monadlab import SpecialMonad, forms_matrix
    a2 = forms_matrix(QQ, 3, [["x"], ["y"], ["z"], ["0"]])
    b2 = forms_matrix(QQ, 3, [["-y", "x", "0", "z"]])
    P = SpecialMonad(2, a2, b2)
    cls = classify(P)
    assert trivial_splitting_test(P, samples=10).certified
    rep = jumping_scan(P, 101, 500, seed=0, classification=cls)
    assert rep.degenerate == 0
    assert 0 <= rep.fraction <= 6 / 101


def _p2_monad():
    from monadlab import SpecialMonad, forms_matrix
    a2 = forms_matrix(QQ, 3, [["x"], ["y"], ["z"], ["0"]])
    b2 = forms_matrix(QQ, 3, [["-y", "x", "0", "z"]])
    return SpecialMonad(2, a2, b2)


def test_line_splitting_matches_full_reconstruction():
    # differential test of the single scan path: the c1 = 0 trivial-line
    # rule must agree with the full reconstruction on every clean line,
    # and a line must be degenerate exactly when line_status says so
    from monadlab import random_monad, splitting_type
    from monadlab.lines_scan import _ScanContext
    lf = example_monad("locally-free")
    corpus = [(lf, 5, 80), (lf, 101, 40), (direct_sum(lf, lf), 7, 40),
              (_p2_monad(), 7, 40),
              (random_monad(1, 4, 1, seed=4, field=GF(101)), 101, 40)]
    for dims, seed in (((1, 5, 1), 2), ((1, 6, 1), 5), ((2, 6, 2), 1)):
        M = random_monad(*dims, seed=seed)
        corpus += [(M, 11, 40), (M, 101, 20)]
    seen = {"trivial": 0, "jumping": 0}
    for M, p, samples in corpus:
        Mp = to_prime_field(M, p)
        split = _ScanContext(Mp).split
        for i in range(samples):
            line = sample_line(11, i, GF(p), M.ambient_n)
            status, parts = split(line)
            pc = restrict(Mp, line)
            assert (status == "clean") == line_status(pc).clean
            if status == "degenerate":
                continue
            assert parts == splitting_type(pc).parts, (M.dims, p, i)
            seen["jumping" if any(parts) else "trivial"] += 1
    # both branches of the rule were exercised
    assert seen["trivial"] > 100 and seen["jumping"] > 10, seen


@pytest.fixture(scope="module")
def bad_reduction_monad():
    """A (2,6,2) monad over Q whose right map degenerates mod 5 and mod 7."""
    from monadlab import random_monad
    M = random_monad(2, 6, 2, seed=3)
    return M, classify(M)


def test_scan_mod_a_prime_where_beta_degenerates_everywhere(bad_reduction_monad):
    # mod 7 the right map has rank 1 at every point, so no line is clean
    # and none may be reported as jumping
    M, cls = bad_reduction_monad
    rep = jumping_scan(M, 7, 300, seed=7, classification=cls)
    assert (rep.jumping, rep.degenerate) == (0, 300)
    assert rep.spectrum == {}


def test_scan_mod_a_prime_where_beta_degenerates_at_some_points(bad_reduction_monad):
    # mod 5 the right map drops rank at a few points; lines through them
    # are degenerate, the others are scanned as usual
    from monadlab.lines_scan import _ScanContext
    from oracles import projective_points
    M, cls = bad_reduction_monad
    rep = jumping_scan(M, 5, 300, seed=7, classification=cls)
    assert rep.degenerate > 0
    assert rep.jumping + rep.degenerate < rep.samples
    assert all(line_status(restrict(to_prime_field(M, 5), l)).clean
               for l in rep.witnesses)

    f = GF(5)
    M5 = to_prime_field(M, 5)
    drops = [pt for pt in projective_points(5, 4) if M5.beta.at(pt).rank() < 2]
    assert drops
    through = Line.from_points(f, drops[0], sample_line(1, 0, f).points[1])
    pc = restrict(M5, through)
    st = line_status(pc)
    assert not st.clean and st.degenerate_map == "right"
    assert _ScanContext(M5).split(through) == ("degenerate", None)
    rep = uniformity_evidence(M5, samples=5, extra_lines=[through],
                              classification=cls)
    assert rep.degenerate >= 1
    # line by line verdicts on 120 lines of this reduction are pinned in
    # test_line_verdicts_golden, case "(2,6,2)s3/F5"


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(101)], ids=lambda f: f.name)
def test_the_stream_yields_the_reference_lines(field):
    # one generator, reseeded line by line, so no state carries over
    from monadlab.lines_scan import _draws
    for ambient_n in (2, 3):
        for start in (0, 250):
            stream = _draws(4, field, ambient_n, start)
            for index in range(start, start + 300):
                points, minors = next(stream)
                ref = reference_sample_line(4, index, field, ambient_n)
                assert (points, minors) == (ref.points, ref.minors), (ambient_n, index)


def test_a_far_sampled_line_reseeds_once(monkeypatch):
    from monadlab import lines_scan
    texts = []
    seed_of_text = lines_scan.seed_of_text

    def counting(text):
        texts.append(text)
        return seed_of_text(text)

    monkeypatch.setattr(lines_scan, "seed_of_text", counting)
    f = GF(101)
    line = sample_line(7, 10 ** 6, f)
    assert texts == [f"line:7:{10 ** 6}:Fp:101"]
    ref = reference_sample_line(7, 10 ** 6, f)
    assert (line.points, line.minors) == (ref.points, ref.minors)


def test_each_prime_is_tested_once_across_a_table_and_a_scan(monkeypatch):
    from monadlab import cohomology_table, exactlin
    tested = []
    is_prime = exactlin._is_prime

    def counting(n):
        tested.append(n)
        return is_prime(n)

    monkeypatch.setattr(exactlin, "_is_prime", counting)
    exactlin.GF.cache_clear()
    M = example_monad("locally-free")
    cohomology_table(M, -6, 2)
    jumping_scan(M, 101, 300, seed=1)
    codim_evidence(M, [101, 103], 100)
    assert sorted(tested) == [101, 103, exactlin.DEFAULT_PRIME]
