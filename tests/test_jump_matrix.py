"""Line scans through the Plucker jump matrix J(L) = sum pi_ij beta_j alpha_i.

Each scan certifies its monad once; on a certified monad only the lines
where J(L) drops rank are restricted.  These tests hold the scans to a
reference that restricts and splits every line, count the restrictions,
and gate the time of a 4000-line scan.
"""

import json
import random
import sys
import time

import pytest

from monadlab import (
    GF,
    QQ,
    NotLocallyFreeError,
    SpecialMonad,
    classify,
    direct_sum,
    example_monad,
    forms_matrix,
    jumping_scan,
    random_monad,
    to_prime_field,
    trivial_splitting_test,
    uniformity_evidence,
)
from monadlab import exactlin, lines_scan, pencil
from monadlab.errors import ShapeMismatchError
from monadlab.lines_scan import _ScanContext
from monadlab.pencil import Line
from oracles import ReferenceScan


def _p2_monad():
    a2 = forms_matrix(QQ, 3, [["x"], ["y"], ["z"], ["0"]])
    b2 = forms_matrix(QQ, 3, [["-y", "x", "0", "z"]])
    return SpecialMonad(2, a2, b2)


def _corpus():
    """(name, monad, classification, [(prime, samples)], uniformity lines)."""
    lf = example_monad("locally-free")
    jumper = Line.from_points(QQ, [1, 0, 0, 0], [0, 0, 1, 0])
    cases = [
        ("lf", lf, [(7, 150), (101, 300)], [jumper]),
        ("tf", example_monad("torsion-free"), [(101, 20)], []),
        ("rf", example_monad("reflexive"), [(101, 20)], []),
        ("lf+lf", direct_sum(lf, lf), [(7, 100), (101, 200)], []),
        ("(1,5,1)s2", random_monad(1, 5, 1, seed=2), [(11, 150), (101, 200)], []),
        ("(2,8,2)s1", random_monad(2, 8, 2, seed=1), [(101, 300)], []),
        ("(3,10,3)s1", random_monad(3, 10, 3, seed=1), [(101, 300)], []),
        ("P2", _p2_monad(), [(7, 150), (101, 200)], []),
        ("(1,4,1)s4/F101", random_monad(1, 4, 1, seed=4, field=GF(101)),
         [(101, 200)], []),
    ]
    out = [(name, M, classify(M), scans, extra) for name, M, scans, extra in cases]
    # bad reductions: the scans go mod p, the other reports over the reduction
    for dims, seed, p in (((2, 6, 2), 0, 101), ((2, 6, 2), 3, 5), ((2, 6, 2), 3, 7),
                          ((2, 6, 2), 1, 2)):
        M = random_monad(*dims, seed=seed)
        cls = classify(M)
        out.append((f"{dims}s{seed} mod {p}", M, cls, [(p, 150)], []))
        out.append((f"{dims}s{seed}/F{p}", to_prime_field(M, p), cls, [(p, 60)], []))
    return out


def _reports(M, cls, scans, extra):
    out = {}
    for p, samples in scans:
        try:
            rep = jumping_scan(M, p, samples, seed=3, classification=cls,
                               keep_lines=True)
            out[f"scan{p}"] = {**rep.to_json_obj(),
                               "lines": [o.to_json_obj() for o in rep.outcomes]}
        except NotLocallyFreeError as exc:
            out[f"scan{p}"] = str(exc)
    # over Q a sampled line almost never jumps, so few samples suffice there
    samples = 12 if M.field == QQ else 60
    try:
        out["uniformity"] = uniformity_evidence(
            M, samples, seed=5, extra_lines=extra).to_json_obj()
    except NotLocallyFreeError as exc:
        out["uniformity"] = str(exc)
    out["trivial"] = trivial_splitting_test(M, samples, seed=5).to_json_obj()
    return json.dumps(out, sort_keys=True)


def test_scans_match_the_reference_scan(monkeypatch):
    corpus = _corpus()
    fast = {name: _reports(M, cls, scans, extra)
            for name, M, cls, scans, extra in corpus}
    assert len(fast) == len(corpus)
    monkeypatch.setattr(lines_scan, "_ScanContext", ReferenceScan)
    jumping = degenerate = 0
    for name, M, cls, scans, extra in corpus:
        ref = _reports(M, cls, scans, extra)
        assert fast[name] == ref, name
        for value in json.loads(ref).values():
            if isinstance(value, dict) and "jumping" in value:
                jumping += value["jumping"]
                degenerate += value["degenerate"]
    # both the jump matrix and the per-line fallback were exercised
    assert jumping > 50 and degenerate > 300, (jumping, degenerate)


def _count(monkeypatch, module, name):
    """Count the calls of module.name, at every binding the scan can reach."""
    fn = getattr(module, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in (exactlin, pencil, lines_scan):
        if getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_a_certified_scan_restricts_only_its_jumping_lines(monkeypatch):
    M = random_monad(2, 8, 2, seed=1)
    cls = classify(M)
    assert _ScanContext(to_prime_field(M, 101)).certificate.clean
    restricts = _count(monkeypatch, pencil, "restrict")
    composites = _count(monkeypatch, exactlin, "compose_check")
    rep = jumping_scan(M, 101, 1000, seed=0, classification=cls)
    assert rep.jumping > 0 and rep.degenerate == 0
    assert len(restricts) == rep.jumping
    # one for the scan; a restricted pencil takes the scan's certificate
    assert len(composites) == 1
    # a certified scan skips restrict, but not its refusal of a foreign line
    foreign = Line.from_points(GF(7), [1, 0, 0, 0], [0, 1, 0, 0])
    with pytest.raises(ShapeMismatchError, match="different fields"):
        uniformity_evidence(M, 1, extra_lines=[foreign])


def test_a_certified_scan_draws_bits_and_ranks_the_bare_echelon(monkeypatch):
    # each line is drawn with getrandbits and built from minors computed
    # once, and its jump test mod p ranks J(L) without a DenseMatrix
    M = example_monad("locally-free")
    cls = classify(M)

    def refuse(*args, **kwargs):
        raise AssertionError("a certified scan does not call this")

    monkeypatch.setattr(Line, "from_points", classmethod(refuse))
    monkeypatch.setattr(random.Random, "randrange", refuse)
    monkeypatch.setattr(random.Random, "randint", refuse)
    rank = exactlin.DenseMatrix.rank
    jump_ranks = []

    def rank_by_caller(self):
        if sys._getframe(1).f_code.co_name == "_jumps":
            jump_ranks.append(self)
        return rank(self)

    monkeypatch.setattr(exactlin.DenseMatrix, "rank", rank_by_caller)
    rep = jumping_scan(M, 101, 2000, seed=0, classification=cls)
    assert rep.samples == 2000 and rep.degenerate == 0 and rep.jumping > 0
    assert jump_ranks == []


def test_a_bad_reduction_falls_back_to_line_status(monkeypatch):
    # mod 5 the right map of this monad drops rank at a few points
    M = random_monad(2, 6, 2, seed=3)
    cls = classify(M)
    assert not _ScanContext(to_prime_field(M, 5)).certificate.clean
    restricts = _count(monkeypatch, pencil, "restrict")
    rep = jumping_scan(M, 5, 300, seed=7, classification=cls)
    assert rep.degenerate > 0
    # each line is restricted once, and a jumping line splits that pencil
    assert len(restricts) == rep.samples


def test_plucker_minors_decide_a_line():
    f = GF(7)
    with pytest.raises(ShapeMismatchError, match="proportional"):
        Line.from_points(f, [1, 2, 3, 4], [2, 4, 6, 8])
    with pytest.raises(ShapeMismatchError, match="proportional"):
        Line.from_points(QQ, [0, 0, 0], [1, 2, 3])
    line = Line.from_points(f, [1, 2, 3], [0, 1, 5])
    assert line.minors == (1, 5, (10 - 3) % 7)
    # the minors are not part of the value
    assert line == Line.from_points(f, [1, 2, 3], [0, 1, 5])
    with pytest.raises(ValueError):
        line.plucker()


def test_4000_line_scan_of_a_3_10_3_monad_mod_101_in_under_1_5_s():
    M = random_monad(3, 10, 3, seed=1)
    cls = classify(M)
    start = time.monotonic()
    rep = jumping_scan(M, 101, 4000, classification=cls)
    elapsed = time.monotonic() - start
    assert rep.samples == 4000 and rep.degenerate == 0 and rep.jumping > 0
    assert elapsed < 1.5, f"{elapsed:.2f}s"


def test_a_certified_scan_builds_a_line_only_where_it_needs_one(monkeypatch):
    # one generator for the whole stream; a line whose J(L) has full rank
    # is counted as trivial from its minors, with no Line, check or split
    M = example_monad("locally-free")
    cls = classify(M)
    generators = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            generators.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountingRandom)
    built = []
    init = Line.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Line, "__init__", counting_init)
    checks = _count(monkeypatch, pencil, "check_line")
    splits = _count(monkeypatch, pencil, "splitting_type")
    rep = jumping_scan(M, 101, 2000, seed=0, classification=cls)
    assert rep.jumping > 0 and rep.degenerate == 0 and rep.witnesses
    assert len(generators) == 1
    # the witnesses are jumping lines, which were restricted
    assert len(built) == len(checks) == len(splits) == rep.jumping
    built.clear()
    generators.clear()
    kept = jumping_scan(M, 101, 2000, seed=0, classification=cls, keep_lines=True)
    assert kept.to_json_obj() == rep.to_json_obj()
    assert len(generators) == 1 and len(built) == 2000
    # over Q the first line is trivial: only the witness is built
    built.clear()
    assert trivial_splitting_test(M, 10, seed=0).certified
    assert len(built) == 1
