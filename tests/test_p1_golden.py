"""Golden values of the P1 engine, and the Euler guard of the shared core.

p1_cohomology is the n = 1 case of cohomology.complex_cohomology.  The
digests below were recorded from the earlier P1 engine, a two-chart
Laurent model that lifted principal parts explicitly, on a seeded corpus:
the three examples, sums of them (rank 4), random monads with c1 = 0 and
c1 != 0, P2 monads, a trivial monad, an F_101 monad, and lines over F_5,
several of them jumping.  Each case hashes the canonical JSON of, per
line, its cleanness, (h^0, h^1) over [-v-4, v'+3], the splitting type and
the dual pencil's dimensions over its own window.  Any change in a
reported dimension changes a digest.
"""

import hashlib
import json

import pytest

from monadlab import (
    GF,
    QQ,
    AlphaDegenerateError,
    Line,
    LinearFormMatrix,
    MonadLabError,
    direct_sum,
    dual_pencil,
    example_monad,
    forms_matrix,
    line_status,
    p1_cohomology,
    random_monad,
    restrict,
    sample_line,
    splitting_type,
    to_prime_field,
    trivial_monad,
)
from monadlab.cohomology import complex_cohomology

LINE_ZW = ([1, 0, 0, 0], [0, 1, 0, 0])     # {z = w = 0}
LINE_YW = ([1, 0, 0, 0], [0, 0, 1, 0])     # {y = w = 0}, jumping for locally-free
LINE_XY = ([0, 0, 1, 0], [0, 0, 0, 1])     # {x = y = 0}, singular for torsion-free

GOLDEN = {
    "locally-free/Q": "523f7b580b12be1b",
    "locally-free/F5": "46d80d105f7eb931",
    "torsion-free/Q": "b7c0d372e2b28a90",
    "reflexive/Q": "686133903fb725e0",
    "lf+lf/Q": "7ecae5435ed6d5af",
    "lf+lf/F5": "21b7c50dd42ca223",
    "(1,6,2)/Q": "d13f2d213bfc376d",
    "(2,7,1)/Q": "c9d9825a19db6662",
    "(1,3,0)/Q": "59241ea2f19e351d",
    "(2,6,2)/F5": "11c447cde90a8e88",
    "(1,4,1)/P2/Q": "2e3df983e5b1c895",
    "(2,7,1)/P2/F5": "ee630d265363f936",
    "(0,5,2)/P2/Q": "a49e6017f1e65373",
    "trivial(3)/Q": "cce034402ffbca88",
    "lf+(1,3,0)/Q": "60d37c40801d4955",
    "(1,6,2)/F5": "b47e0b0e78e31387",
    "(2,8,2)/F5": "1225da7d6eaf13cf",
    "(2,6,2)/F7": "ec876345599dabc7",
    "(1,5,1)/F101": "e972b533f7d6dbb0",
}


def _corpus():
    lf = example_monad("locally-free")
    lf2 = direct_sum(lf, lf)
    F5, F101 = GF(5), GF(101)

    def fixed(*pts):
        return [Line.from_points(QQ, *p) for p in pts]

    def sampled(seed, count, field, n=3):
        return [sample_line(seed, i, field, n) for i in range(count)]

    return [
        ("locally-free/Q", lf, fixed(LINE_ZW, LINE_YW) + sampled(1, 2, QQ)),
        ("locally-free/F5", to_prime_field(lf, 5), sampled(2, 25, F5)),
        ("torsion-free/Q", example_monad("torsion-free"),
         fixed(LINE_XY, LINE_ZW) + sampled(3, 1, QQ)),
        ("reflexive/Q", example_monad("reflexive"), fixed(LINE_YW) + sampled(4, 1, QQ)),
        ("lf+lf/Q", lf2, fixed(LINE_YW, LINE_ZW)),
        ("lf+lf/F5", to_prime_field(lf2, 5), sampled(5, 10, F5)),
        ("(1,6,2)/Q", random_monad(1, 6, 2, seed=1), sampled(6, 1, QQ)),
        ("(2,7,1)/Q", random_monad(2, 7, 1, seed=2), sampled(7, 1, QQ)),
        ("(1,3,0)/Q", random_monad(1, 3, 0, seed=3), sampled(8, 2, QQ)),
        ("(2,6,2)/F5", to_prime_field(random_monad(2, 6, 2, seed=1), 5), sampled(9, 12, F5)),
        ("(1,4,1)/P2/Q", random_monad(1, 4, 1, seed=2, ambient_n=2), sampled(10, 2, QQ, 2)),
        ("(2,7,1)/P2/F5", to_prime_field(random_monad(2, 7, 1, seed=1, ambient_n=2), 5),
         sampled(11, 8, F5, 2)),
        ("(0,5,2)/P2/Q", random_monad(0, 5, 2, seed=2, ambient_n=2), sampled(12, 1, QQ, 2)),
        ("trivial(3)/Q", trivial_monad(3), fixed(LINE_ZW)),
        ("lf+(1,3,0)/Q", direct_sum(lf, random_monad(1, 3, 0, seed=3)), fixed(LINE_YW, LINE_ZW)),
        ("(1,6,2)/F5", to_prime_field(random_monad(1, 6, 2, seed=1), 5), sampled(14, 10, F5)),
        ("(2,8,2)/F5", to_prime_field(random_monad(2, 8, 2, seed=1), 5), sampled(16, 8, F5)),
        ("(2,6,2)/F7", to_prime_field(random_monad(2, 6, 2, seed=3), 7), sampled(15, 3, GF(7))),
        ("(1,5,1)/F101", random_monad(1, 5, 1, seed=4, field=F101), sampled(13, 6, F101)),
    ]


def _record(M, line):
    pc = restrict(M, line)
    out = {"line": line.to_json_obj(), "clean": line_status(pc).clean}
    try:
        out["h"] = [list(p1_cohomology(pc, k))
                    for k in range(-pc.v - 4, pc.v_prime + 4)]
        out["split"] = list(splitting_type(pc).parts)
        dp = dual_pencil(pc)
        out["dual"] = [list(p1_cohomology(dp, k))
                       for k in range(-dp.v - 4, dp.v_prime + 4)]
    except AlphaDegenerateError:
        out["h"] = "refused"
    return out


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_p1_engine_reproduces_the_laurent_model():
    got = {name: _digest([_record(M, line) for line in lines])
           for name, M, lines in _corpus()}
    assert got == GOLDEN


@pytest.mark.parametrize("nvars", [2, 4])
def test_core_euler_guard_catches_a_non_injective_left_map(nvars):
    # a zero left column makes ker a_1 = S_0 nonzero: the E_2 term E(-1, 0)
    # that the formula leaves out, so only the Euler identity can see it
    zero = ["0"] * nvars
    A = forms_matrix(QQ, nvars, [zero, zero])
    B = LinearFormMatrix.zeros(QQ, 0, 2, nvars)
    assert complex_cohomology(A, B, 0)[0] == 2
    with pytest.raises(MonadLabError, match="Euler characteristic mismatch at twist 1"):
        complex_cohomology(A, B, 1)
