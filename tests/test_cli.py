"""Command-line behavior: pipelines, formats, exit codes, determinism."""

import json

import pytest

from monadlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def lf_path(tmp_path, capsys):
    path = tmp_path / "lf.json"
    code, _, _ = run(capsys, "examples", "--name", "locally-free", "--out", str(path))
    assert code == 0
    return str(path)


def test_examples_then_classify(capsys, lf_path):
    code, out, _ = run(capsys, "classify", lf_path)
    assert code == 0
    assert out == "LocallyFree (exact)\n"


def test_classify_all_examples(capsys, tmp_path):
    for name, display in (("torsion-free", "TorsionFree"),
                          ("reflexive", "Reflexive"),
                          ("locally-free", "LocallyFree")):
        path = tmp_path / f"{name}.json"
        run(capsys, "examples", "--name", name, "--out", str(path))
        code, out, _ = run(capsys, "classify", str(path))
        assert code == 0 and out == f"{display} (exact)\n"


def test_cohomology_csv_table(capsys, lf_path):
    code, out, _ = run(capsys, "cohomology", lf_path, "--kmin", "-6", "--kmax", "2",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5                       # header + h^0..h^3
    assert lines[0] == "p,-6,-5,-4,-3,-2,-1,0,1,2"
    assert lines[2].split(",")[6] == "1"         # h^1(E(-1)) = 1


def test_cohomology_markdown_and_json(capsys, lf_path):
    code, out, _ = run(capsys, "cohomology", lf_path, "--format", "md")
    assert code == 0 and out.startswith("| p\\k |")
    code, out, _ = run(capsys, "cohomology", lf_path, "--format", "json")
    obj = json.loads(out)
    assert obj["h"][1][5] == 1


def test_validate_good_and_bad(capsys, tmp_path, lf_path):
    code, out, _ = run(capsys, "validate", lf_path)
    assert code == 0 and "valid monad" in out

    with open(lf_path) as fh:
        bad = json.load(fh)
    # beta = (x y z 0) has the common zero [0:0:0:1]
    bad["beta"] = [
        [["1", "0", "0", "0"]], [["0", "1", "0", "0"]],
        [["0", "0", "1", "0"]], [["0", "0", "0", "0"]],
    ]
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code, out, err = run(capsys, "validate", str(bad_path))
    assert code == 1
    assert "0:0:0:1" in err


def test_validate_over_f2_without_a_witness_point(capsys, tmp_path):
    from monadlab import encode
    from test_monad import small_field_monad
    path = tmp_path / "f2.json"
    path.write_bytes(encode(small_field_monad()))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 0 and err == ""
    assert out == ("composition_zero: ok [exact]\nbeta_surjective: ok [exact]\n"
                   "alpha_injective: ok [exact]\nverdict: valid monad\n")


def test_corrupted_file_exits_2_with_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"ambient_n": 3, "field": "Q",')
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "line 1" in err

    code, _, err = run(capsys, "invariants", str(tmp_path / "missing.json"))
    assert code == 2


def test_truncated_matrix_reports_path(capsys, tmp_path, lf_path):
    with open(lf_path) as fh:
        obj = json.load(fh)
    obj["beta"][2][0] = obj["beta"][2][0][:-1]
    path = tmp_path / "trunc.json"
    path.write_text(json.dumps(obj))
    code, _, err = run(capsys, "classify", str(path))
    assert code == 2
    assert "beta[2][0]" in err


def test_unknown_flag_is_usage_error(capsys, lf_path):
    code, _, _ = run(capsys, "classify", lf_path, "--frobnicate")
    assert code == 2


def test_help_lists_all_subcommands(capsys):
    code, out, err = run(capsys, "--help")
    text = out + err
    for sub in ("validate", "invariants", "classify", "cohomology", "admissible",
                "stability", "dualize", "dsum", "restrict", "splitting",
                "jumping-scan", "codim-evidence", "uniformity", "generate",
                "examples"):
        assert sub in text


def test_invariants_output(capsys, lf_path):
    code, out, _ = run(capsys, "invariants", lf_path)
    assert code == 0
    assert out == "rank 2, c1 = 0, c2 = 1, c3 = 0\n"
    code, out, _ = run(capsys, "invariants", lf_path, "--format", "json")
    assert json.loads(out)["c2"] == 1


def test_dualize_and_dsum(capsys, tmp_path, lf_path):
    dual_path = tmp_path / "dual.json"
    code, _, _ = run(capsys, "dualize", lf_path, "--out", str(dual_path))
    assert code == 0
    obj = json.loads(dual_path.read_text())
    assert (obj["v"], obj["w"], obj["v_prime"]) == (1, 4, 1)

    tf_path = tmp_path / "tf.json"
    run(capsys, "examples", "--name", "torsion-free", "--out", str(tf_path))
    code, _, err = run(capsys, "dualize", str(tf_path))
    assert code == 1 and "locally-free" in err

    sum_path = tmp_path / "sum.json"
    code, _, _ = run(capsys, "dsum", lf_path, str(tf_path), "--out", str(sum_path))
    assert code == 0
    obj = json.loads(sum_path.read_text())
    assert (obj["v"], obj["w"], obj["v_prime"]) == (2, 8, 2)


def test_nonpositive_slices_are_a_usage_error(capsys, tmp_path):
    # the slice sampler and its knobs are gone: every level is decided by
    # a hyperplane count, so --slices and --seed are unknown options; so is
    # --prime, since every rank over Q is taken mod 32003 first
    tf_path = tmp_path / "tf.json"
    tf2_path = tmp_path / "tf2.json"
    run(capsys, "examples", "--name", "torsion-free", "--out", str(tf_path))
    run(capsys, "dsum", str(tf_path), str(tf_path), "--out", str(tf2_path))
    for command in ("classify", "stability", "dualize"):
        for flag, value in (("--slices", "0"), ("--slices", "-2"), ("--slices", "50"),
                            ("--seed", "0"), ("--prime", "3"), ("--prime", "4")):
            code, out, err = run(capsys, command, str(tf2_path), flag, value)
            assert (code, out) == (2, ""), (command, flag)
            assert f"error: unrecognized arguments: {flag} {value}\n" in err


def test_a_curve_locus_over_f5_is_not_locally_free(capsys, tmp_path):
    # F_5 has too few hyperplanes to prove the curve of tf + tf, but
    # "locally free" is one rank: dualize and the scan refuse with exit 1
    from monadlab import direct_sum, encode, example_monad, to_prime_field
    tf = example_monad("torsion-free")
    path = tmp_path / "tf2f5.json"
    path.write_bytes(encode(to_prime_field(direct_sum(tf, tf), 5)))
    for argv in (("dualize",), ("jumping-scan", "--prime", "5", "--samples", "10")):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, ""), argv
        assert "requires a locally-free sheaf; the left map drops rank at a point" in err


def test_classify_over_q_when_the_reduction_falls_short(capsys, tmp_path):
    # column 0 of the left map times 32003, an isomorphic monad: mod 32003
    # that column vanishes, and the rank over Q decides
    path = tmp_path / "m.json"
    run(capsys, "generate", "--dims", "2,6,2", "--seed", "1", "--out", str(path))
    obj = json.loads(path.read_text())
    for coeffs in obj["alpha"]:
        for row in coeffs:
            row[0] = str(32003 * int(row[0]))
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "classify", str(path))
    assert (code, out) == (0, "LocallyFree (exact)\n")
    code, out, _ = run(capsys, "classify", str(path), "--format", "json")
    assert code == 0 and json.loads(out)["degeneracy"]["method"]["over"] == "Q"


def test_classify_over_f101_is_one_rank_per_level(capsys, tmp_path):
    import time
    from monadlab import encode, random_monad, to_prime_field
    path = tmp_path / "m101.json"
    path.write_bytes(encode(to_prime_field(random_monad(2, 6, 2, seed=1), 101)))
    start = time.monotonic()
    code, out, _ = run(capsys, "classify", str(path))
    assert (code, out) == (0, "LocallyFree (exact)\n")
    assert time.monotonic() - start < 1.0


def test_admissible_and_stability(capsys, lf_path):
    code, out, _ = run(capsys, "admissible", lf_path)
    assert code == 0 and json.loads(out)["passed"] is True
    code, out, _ = run(capsys, "stability", lf_path)
    obj = json.loads(out)
    assert obj["semistable"] == "yes" and obj["stable"] == "yes"


def test_splitting_subcommand(capsys, lf_path):
    code, out, _ = run(capsys, "splitting", lf_path, "--points",
                       "1,0,0,0;0,1,0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["splitting"] == [0, 0] and obj["trivial"] is True
    code, out, _ = run(capsys, "splitting", lf_path, "--points",
                       "1,0,0,0;0,0,1,0")
    assert json.loads(out)["splitting"] == [1, -1]


def test_splitting_degenerate_line_exits_1(capsys, tmp_path):
    tf_path = tmp_path / "tf.json"
    run(capsys, "examples", "--name", "torsion-free", "--out", str(tf_path))
    code, out, err = run(capsys, "splitting", str(tf_path), "--points",
                         "0,0,1,0;0,0,0,1")
    assert code == 1
    assert json.loads(out)["status"] == "degenerate"
    assert "left map degenerates" in err

    # mod 7 the right map of this monad has rank 1 everywhere
    from monadlab import encode, random_monad, to_prime_field
    bad_path = tmp_path / "bad7.json"
    bad_path.write_bytes(encode(to_prime_field(random_monad(2, 6, 2, seed=3), 7)))
    code, out, err = run(capsys, "splitting", str(bad_path), "--points",
                         "1,0,0,0;0,1,0,0")
    assert code == 1
    assert json.loads(out)["detail"]["note"] == \
        "right map drops rank at a point of the line"
    assert "right map degenerates" in err


def test_restrict_subcommand(capsys, lf_path):
    code, out, _ = run(capsys, "restrict", lf_path, "--points", "1,0,0,0;0,1,0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["A_s"] == [["1"], ["0"], ["0"], ["0"]]
    assert obj["B_t"] == [["-1", "0", "0", "0"]]


def test_generate_subcommand(capsys, tmp_path):
    path = tmp_path / "gen.json"
    code, _, _ = run(capsys, "generate", "--dims", "1,4,1", "--seed", "5",
                     "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    code, _, err = run(capsys, "generate", "--dims", "2,3,2")
    assert code == 1 and "no special monad" in err


def test_unparseable_dims_are_a_usage_error(capsys):
    for dims in ("1,x,1", "1,4", "1,4,1,0"):
        code, out, err = run(capsys, "generate", "--dims", dims)
        assert (code, out) == (2, "")
        assert err == f"monadlab: bad --dims {dims!r}: expected v,w,v'\n"


def test_generate_exits_1_when_every_draw_fails(capsys):
    # (1, 3, 1) exists on P2 but is never drawn (monad.random_monad)
    code, out, err = run(capsys, "generate", "--dims", "1,3,1", "--ambient", "2")
    assert (code, out) == (1, "")
    assert "no valid monad with dims (1, 3, 1) after 200 draws" in err


def test_jumping_scan_deterministic_bytes(capsys, lf_path, tmp_path):
    args = ("jumping-scan", lf_path, "--prime", "101", "--samples", "300",
            "--seed", "2")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines_path = tmp_path / "lines.jsonl"
    code, out, _ = run(capsys, *args, "--emit-lines", str(lines_path))
    rows = [json.loads(l) for l in lines_path.read_text().splitlines()]
    assert len(rows) == 300
    report = json.loads(out)
    assert report["jumping"] == sum(1 for r in rows if r["jumping"])


def test_jumping_scan_warns_about_degenerate_lines(capsys, tmp_path, lf_path):
    args = ("--samples", "300", "--seed", "0")
    code, out, err = run(capsys, "jumping-scan", lf_path, "--prime", "101", *args)
    assert code == 0 and json.loads(out)["degenerate"] == 0
    assert err == ""
    # mod 7 the right map of this monad has rank 1 at every point
    path = tmp_path / "bad.json"
    run(capsys, "generate", "--dims", "2,6,2", "--seed", "3", "--out", str(path))
    code, out, err = run(capsys, "jumping-scan", str(path), "--prime", "7", *args)
    assert code == 0 and json.loads(out)["degenerate"] == 300
    assert err == ("monadlab: warning: 300 of 300 sampled lines are degenerate "
                   "mod 7; the reduction is not a monad at some points\n")


def test_tables_refuse_a_bad_reduction(capsys, tmp_path):
    # mod 7 the right map of this monad is not onto at every point, so the
    # reduction is not a monad: every table refuses it
    from monadlab import encode, random_monad, to_prime_field
    path = tmp_path / "bad7.json"
    path.write_bytes(encode(to_prime_field(random_monad(2, 6, 2, seed=3), 7)))
    for command in ("cohomology", "admissible", "stability"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (1, ""), command
        assert err == "monadlab: right map is not onto at every point; not a monad\n"


def test_tables_refuse_a_left_map_that_is_not_injective(capsys, tmp_path):
    # alpha = 0 with beta = (-y, x, z, w) is not a monad; every table
    # refuses it, whatever the window
    from monadlab import QQ, SpecialMonad, encode, forms_matrix
    M = SpecialMonad(3, forms_matrix(QQ, 4, [["0"]] * 4),
                     forms_matrix(QQ, 4, [["-y", "x", "z", "w"]]))
    path = tmp_path / "a0.json"
    path.write_bytes(encode(M))
    for argv in (("cohomology",), ("cohomology", "--kmax", "0"), ("admissible",),
                 ("stability",)):
        code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert (code, out) == (1, ""), argv
        assert err == "monadlab: left map is not injective; not a monad\n"


def test_generate_on_p2_the_dims_that_p3_bounds_refuse(capsys, tmp_path):
    path = tmp_path / "gen.json"
    for dims in ("0,3,1", "0,4,2"):
        code, _, _ = run(capsys, "generate", "--dims", dims, "--ambient", "2",
                         "--out", str(path))
        assert code == 0, dims
        assert json.loads(path.read_text())["ambient_n"] == 2
        code, out, _ = run(capsys, "validate", str(path))
        assert code == 0 and out.endswith("verdict: valid monad\n"), dims


def test_a_float_ambient_dimension_is_a_bad_input_file(capsys, tmp_path):
    # 2.0 == 2 passed a membership test, and validate then died in mult_map
    from monadlab import encode, random_monad
    data = encode(random_monad(1, 4, 1, seed=0, ambient_n=2)).decode("utf-8")
    for value in ("2.0", "true", "8"):
        path = tmp_path / "m.json"
        path.write_text(data.replace('"ambient_n": 2', f'"ambient_n": {value}'))
        code, out, err = run(capsys, "validate", str(path))
        assert (code, out) == (2, ""), value
        assert err == ("monadlab: bad input file: ambient_n must be an integer "
                       "from 2 to 7 (at ambient_n)\n")


def test_jumping_scan_at_prime_2(capsys, tmp_path):
    # beta mod 2 of this monad drops rank at all 15 points of P3(F_2), so
    # every line is degenerate; deciding that takes no interpolation points
    from monadlab import random_monad, to_prime_field
    from oracles import projective_points
    M2 = to_prime_field(random_monad(2, 6, 2, seed=1), 2)
    assert all(M2.beta.at(pt).rank() < 2 for pt in projective_points(2, 4))
    path = tmp_path / "m.json"
    run(capsys, "generate", "--dims", "2,6,2", "--seed", "1", "--out", str(path))
    code, out, err = run(capsys, "jumping-scan", str(path), "--prime", "2",
                         "--samples", "50")
    assert code == 0
    rep = json.loads(out)
    assert (rep["degenerate"], rep["jumping"]) == (50, 0)
    assert err == ("monadlab: warning: 50 of 50 sampled lines are degenerate "
                   "mod 2; the reduction is not a monad at some points\n")


def test_splitting_measures_each_twist_once(capsys, tmp_path, monkeypatch):
    # splitting_type measures [-v-3, v'+2]; the printed window [-v-2, v'+2]
    # is read from those measurements, not computed again
    import monadlab.pencil as pencil
    calls = []
    core = pencil.complex_cohomology

    def counting(A, B, k, *args, **kwargs):
        calls.append(k)
        return core(A, B, k, *args, **kwargs)

    monkeypatch.setattr(pencil, "complex_cohomology", counting)
    path = tmp_path / "m.json"
    run(capsys, "generate", "--dims", "2,6,2", "--seed", "1", "--out", str(path))
    code, out, _ = run(capsys, "splitting", str(path), "--seed", "3", "--index", "0")
    assert code == 0
    assert sorted(calls) == list(range(-2 - 3, 2 + 3))     # v + v' + 6 twists
    assert sorted(json.loads(out)["twist_dims"], key=int) == \
        [str(k) for k in range(-2 - 2, 2 + 3)]


def test_codim_evidence_csv(capsys, lf_path):
    code, out, _ = run(capsys, "codim-evidence", lf_path, "--primes", "101,103",
                       "--samples", "400", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "prime,samples,jumping,fraction"
    assert len(lines) == 3


def test_codim_evidence_refuses_repeated_primes(capsys, lf_path):
    code, out, err = run(capsys, "codim-evidence", lf_path, "--primes", "101,101",
                         "--samples", "3000")
    assert code == 2 and out == ""
    assert "two distinct primes" in err and "Traceback" not in err


def test_codim_evidence_refuses_a_composite_before_scanning(capsys, lf_path,
                                                            monkeypatch):
    from monadlab import lines_scan, pointwise

    def no_work(*args, **kwargs):
        raise AssertionError("argument check came after the work")
    monkeypatch.setattr(lines_scan, "jumping_scan", no_work)
    monkeypatch.setattr(pointwise, "classify", no_work)
    code, out, err = run(capsys, "codim-evidence", lf_path, "--primes", "1009,100")
    assert code == 2 and out == ""
    assert "100 is not prime" in err


def test_codim_evidence_reduces_every_prime_before_scanning(capsys, tmp_path,
                                                           lf_path, monkeypatch):
    # a copy of the example under a change of basis of the middle term:
    # row 0 of alpha over 103, column 0 of beta times 103; it has no
    # reduction mod 103
    with open(lf_path) as fh:
        obj = json.load(fh)
    obj["alpha"][0][0][0] = "1/103"
    for coeffs in obj["beta"]:
        coeffs[0][0] = str(103 * int(coeffs[0][0]))
    path = tmp_path / "lf103.json"
    path.write_text(json.dumps(obj))
    from monadlab import lines_scan
    scans = []
    scan = lines_scan._scan

    def counting(*args, **kwargs):
        scans.append(args[1].p)
        return scan(*args, **kwargs)

    monkeypatch.setattr(lines_scan, "_scan", counting)
    code, out, err = run(capsys, "codim-evidence", str(path), "--primes", "101,1009",
                         "--samples", "50")
    assert code == 0 and scans == [101, 1009]
    scans.clear()
    code, out, err = run(capsys, "codim-evidence", str(path), "--primes", "101,103")
    assert code == 1 and out == ""
    assert err == ("monadlab: cannot reduce monad mod 103: "
                   "denominator of 1/103 vanishes mod 103\n")
    assert scans == []


def test_uniformity_subcommand(capsys, lf_path):
    code, out, _ = run(capsys, "uniformity", lf_path, "--samples", "25")
    assert code == 0
    obj = json.loads(out)
    assert obj["refuted"] is False


def test_env_prime_default(capsys, lf_path, monkeypatch):
    monkeypatch.setenv("MONADLAB_PRIME", "101")
    code, out, _ = run(capsys, "jumping-scan", lf_path, "--samples", "50")
    assert code == 0
    assert json.loads(out)["prime"] == 101


def test_bad_env_prime_is_a_usage_error(capsys, lf_path, monkeypatch):
    monkeypatch.setenv("MONADLAB_PRIME", "abc")
    code, out, err = run(capsys, "classify", lf_path)
    assert code == 2 and out == ""
    assert err.startswith("monadlab: ") and "MONADLAB_PRIME" in err
    assert "Traceback" not in err


def test_splitting_with_sampled_line(capsys, lf_path):
    code, out, _ = run(capsys, "splitting", lf_path, "--seed", "1", "--index", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "clean"
    code2, out2, _ = run(capsys, "splitting", lf_path, "--seed", "1", "--index", "2")
    assert out == out2


def test_admissible_on_non_monad_is_a_math_failure(capsys, tmp_path, lf_path):
    with open(lf_path) as fh:
        bad = json.load(fh)
    bad["beta"] = [
        [["1", "0", "0", "0"]], [["0", "1", "0", "0"]],
        [["0", "0", "1", "0"]], [["0", "0", "0", "0"]],
    ]
    path = tmp_path / "notmonad.json"
    path.write_text(json.dumps(bad))
    code, _, err = run(capsys, "admissible", str(path))
    assert code == 1


def test_composite_prime_is_a_usage_error(capsys, lf_path):
    code, _, err = run(capsys, "jumping-scan", lf_path, "--prime", "10",
                       "--samples", "20")
    assert code == 2
    assert "not prime" in err


def test_empty_window_is_a_usage_error(capsys, lf_path):
    code, _, err = run(capsys, "cohomology", lf_path, "--kmin", "2", "--kmax", "-2")
    assert code == 2


@pytest.fixture()
def no_rank(monkeypatch):
    """Make every multiplication map and every elimination an error."""
    from monadlab import exactlin

    def no_work(*args, **kwargs):
        raise AssertionError("a rank was taken before the argument check")
    monkeypatch.setattr(exactlin, "mult_map", no_work)
    monkeypatch.setattr(exactlin, "_echelon", no_work)


def test_slices_above_the_cap_are_refused_before_any_rank(capsys, tmp_path, no_rank):
    tf_path = tmp_path / "tf.json"
    tf2_path = tmp_path / "tf2.json"
    run(capsys, "examples", "--name", "torsion-free", "--out", str(tf_path))
    run(capsys, "dsum", str(tf_path), str(tf_path), "--out", str(tf2_path))
    for command in ("classify", "stability", "dualize"):
        for slices in (10 ** 4 + 1, 10 ** 8):
            code, out, err = run(capsys, command, str(tf2_path), "--slices", str(slices))
            assert (code, out) == (2, ""), command
            assert f"error: unrecognized arguments: --slices {slices}\n" in err


def test_wide_windows_are_refused_before_any_rank(capsys, lf_path, no_rank):
    from monadlab.cohomology import MAX_TWISTS
    for command in ("cohomology", "admissible"):
        for kmin, kmax in ((-5000, 5000), (-7, MAX_TWISTS - 7), (-10 ** 9, 10 ** 9)):
            code, out, err = run(capsys, command, lf_path,
                                 "--kmin", str(kmin), "--kmax", str(kmax))
            assert (code, out) == (2, ""), command
            assert err == (f"monadlab: twist window [{kmin}, {kmax}] exceeds "
                           f"the cap {MAX_TWISTS}\n")


def test_far_twists_of_a_torsion_free_sheaf_are_refused(capsys, tmp_path):
    # a*_j at k_min = -30, j = 26: 4|S_26| x |S_27| cells
    from monadlab.cohomology import MAX_CELLS
    tf_path = tmp_path / "tf.json"
    run(capsys, "examples", "--name", "torsion-free", "--out", str(tf_path))
    for command in ("cohomology", "admissible"):
        code, out, err = run(capsys, command, str(tf_path), "--kmin", "-30", "--kmax", "2")
        assert (code, out) == (2, ""), command
        assert err == ("monadlab: twist -30 would eliminate a matrix of 59340960 cells, "
                       f"over the cap {MAX_CELLS}\n")


def test_proofs_above_the_cap_are_refused_before_any_rank(capsys, tmp_path, no_rank):
    # a (12, 14, 1) monad's alpha^T proof is 5460 x 5096 cells; zero maps
    # keep the file small, and the cap comes before the composite check
    from monadlab import QQ, LinearFormMatrix, SpecialMonad, encode
    from monadlab.cohomology import MAX_CELLS
    path = tmp_path / "big.json"
    path.write_bytes(encode(SpecialMonad(3, LinearFormMatrix.zeros(QQ, 14, 12, 4),
                                         LinearFormMatrix.zeros(QQ, 1, 14, 4))))
    for command in ("cohomology", "admissible"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert err == ("monadlab: the alpha^T proof would eliminate a matrix of 27824160 "
                       f"cells, over the cap {MAX_CELLS}\n")


def test_points_that_are_not_a_line_of_the_monad_are_usage_errors(capsys, lf_path):
    for points, why in (("1,0,0;0,1,0", "line lives in a different projective space"),
                        ("1,0,0,0;2,0,0,0", "spanning points are proportional"),
                        ("1,0,0,0;0,1,0", "spanning points need equal lengths"),
                        ("1,0,0,0;0,x,0,0", "Invalid literal")):
        for command in ("restrict", "splitting"):
            code, out, err = run(capsys, command, lf_path, "--points", points)
            assert (code, out) == (2, ""), (command, points)
            assert err.startswith(f"monadlab: bad --points {points!r}: ") and why in err


def test_a_single_point_is_a_usage_error(capsys, lf_path):
    for command in ("restrict", "splitting"):
        code, out, err = run(capsys, command, lf_path, "--points", "1,0,0,0")
        assert (code, out) == (2, "")
        assert err == ("monadlab: bad --points '1,0,0,0': "
                       "expected two points separated by ';'\n")


def test_a_point_with_no_residue_is_a_usage_error(capsys, tmp_path):
    from monadlab import encode, random_monad, to_prime_field
    path = tmp_path / "m7.json"
    path.write_bytes(encode(to_prime_field(random_monad(2, 6, 2, seed=1), 7)))
    code, out, err = run(capsys, "splitting", str(path), "--points", "1/7,0,0,0;0,1,0,0")
    assert (code, out) == (2, "")
    assert err.startswith("monadlab: bad --points '1/7,0,0,0;0,1,0,0': ")


def test_a_bad_field_names_its_flag(capsys):
    code, out, err = run(capsys, "generate", "--dims", "2,6,2", "--field", "Fp:4")
    assert (code, out) == (2, "")
    assert err == "monadlab: bad --field 'Fp:4': 4 is not prime\n"
    code, out, err = run(capsys, "generate", "--dims", "2,6,2", "--field", "R")
    assert (code, out) == (2, "")
    assert err.startswith("monadlab: bad --field 'R': unknown field")


def test_one_subcommand_parser_is_the_full_parsers_subcommand():
    from monadlab.cli import COMMANDS, build_parser

    def subparsers(parser):
        return next(a for a in parser._actions if a.dest == "command").choices
    full = subparsers(build_parser())
    assert tuple(full) == COMMANDS
    for name in COMMANDS:
        alone = subparsers(build_parser(name))
        assert list(alone) == [name]
        assert alone[name].format_help() == full[name].format_help(), name
        assert alone[name].get_default("func") is full[name].get_default("func"), name


def test_every_subcommand_takes_out(capsys):
    from monadlab.cli import build_parser
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for name, parser in sub.choices.items():
        assert any(a.option_strings == ["--out"] for a in parser._actions), name


def _refused_write(err: str, path: str) -> bool:
    return err.startswith(f"monadlab: cannot write {path}: ") and "Traceback" not in err


def test_examples_out_to_a_directory_is_a_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "examples", "--name", "locally-free", "--out", str(tmp_path))
    assert (code, out) == (2, "") and _refused_write(err, str(tmp_path))


def test_validate_out_to_a_directory_is_a_usage_error(capsys, tmp_path, lf_path):
    code, out, err = run(capsys, "validate", lf_path, "--out", str(tmp_path))
    assert (code, out) == (2, "") and _refused_write(err, str(tmp_path))


def test_cohomology_out_in_a_missing_directory_is_a_usage_error(capsys, tmp_path, lf_path):
    path = str(tmp_path / "missing" / "table.md")
    code, out, err = run(capsys, "cohomology", lf_path, "--out", path)
    assert (code, out) == (2, "") and _refused_write(err, path)


def test_emit_lines_to_a_directory_is_refused_before_the_scan(capsys, tmp_path, lf_path,
                                                               monkeypatch):
    from monadlab import lines_scan

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the path was opened")
    monkeypatch.setattr(lines_scan, "jumping_scan", no_scan)
    code, out, err = run(capsys, "jumping-scan", lf_path, "--prime", "101",
                         "--emit-lines", str(tmp_path))
    assert (code, out) == (2, "") and _refused_write(err, str(tmp_path))


def test_a_composite_prime_flag_is_refused_before_any_rank(capsys, tmp_path, lf_path,
                                                           request):
    path = tmp_path / "s0.json"
    run(capsys, "generate", "--dims", "2,6,2", "--seed", "0", "--out", str(path))
    request.getfixturevalue("no_rank")
    for monad_path in (lf_path, str(path)):
        code, out, err = run(capsys, "jumping-scan", monad_path, "--prime", "4")
        assert (code, out) == (2, "")
        assert err.endswith("monadlab jumping-scan: error: argument --prime: "
                            "4 is not prime\n"), err


def test_a_composite_entry_of_primes_names_the_flag(capsys, lf_path, no_rank):
    code, out, err = run(capsys, "codim-evidence", lf_path, "--primes", "101,9,103")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --primes: 9 is not prime\n")
    code, out, err = run(capsys, "codim-evidence", lf_path, "--primes", "101,x")
    assert (code, out) == (2, "")
    assert err.endswith("error: argument --primes: invalid primes value: '101,x'\n")


def test_a_composite_env_prime_refuses_every_command(capsys, lf_path, monkeypatch,
                                                     no_rank):
    monkeypatch.setenv("MONADLAB_PRIME", "4")
    for command in ("validate", "classify"):
        code, out, err = run(capsys, command, lf_path)
        assert (code, out) == (2, ""), command
        assert err == "monadlab: MONADLAB_PRIME must be a prime, got '4'\n"


def test_a_negative_index_is_a_usage_error(capsys, lf_path):
    for command in ("restrict", "splitting"):
        code, out, err = run(capsys, command, lf_path, "--index", "-1")
        assert (code, out) == (2, ""), command
        assert err.endswith(f"monadlab {command}: error: argument --index: "
                            "-1 is negative; scans draw lines 0, 1, ...\n")
