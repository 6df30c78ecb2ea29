"""Recorded verdicts of the earlier binary-form engine on lines and slices.

Whether a restricted map keeps full rank at every point of a line was
once decided by the gcd of its maximal minors: binary forms obtained by
Lagrange interpolation and reduced by Euclid's algorithm.  Each left and
right map then got one verdict: "c" (the gcd is constant: full rank at
every point), "f" (a nonconstant common factor: a rank drop at some
point) or "z" (every minor vanishes: a rank drop on the whole line).
The tables below were recorded from that engine on a seeded corpus:

- per line, the verdicts of the left and right map and the line_status
  code: "." clean, "Z" left map degenerate on the whole line, "L" left
  map degenerate at a point, "R" right map degenerate;
- the kind and dimension of the degeneracy_dim result of matrices whose
  line-slice level decided, or ruled out, their locus.

Each entry holds a sha256 prefix of the per-line codes (or of the result
JSON) and, readable, their counts (or kind, dim and note).  The one-rank
test exactlin.onto_everywhere must reproduce all of them.  Two slice
entries are corrected: the old engine read a rank drop of a rational
matrix mod p as a drop over Q.  The left map of (2,6,2) seed 1 mod 3 and
the right map of (2,6,2) seed 3 mod 5 drop rank at some points mod p, and
one random line over F_p through such a point read as a surface.  Over Q
both keep full rank at every point, and the rank mod 32003 proves it, so
these two entries are the rational matrices; every other "mod p" entry
is the reduction mod p, which the old engine decided.
"""

import collections
import hashlib
import json

from monadlab import (
    GF,
    QQ,
    Line,
    degeneracy_dim,
    direct_sum,
    example_monad,
    forms_matrix,
    line_status,
    random_monad,
    restrict,
    sample_line,
    to_prime_field,
)
from monadlab.exactlin import mult_map, onto_everywhere

LINE_XY = ([0, 0, 1, 0], [0, 0, 0, 1])

GOLDEN_LINES = {
    "(2,6,2)s3/F5": ("aa4db65d1bff1aa6", {"cc.": 94, "cfR": 23, "czR": 3}),
    "(2,6,2)s3/F7": ("e2d1624bb6e892c4", {"czR": 20}),
    "(2,6,2)s3/Q": ("9d6731b989e2513f", {"cc.": 6}),
    "(2,6,2)s0/F101": ("e2d1624bb6e892c4", {"czR": 20}),
    "(2,6,2)s0/F5": ("5f6e5cabae4c4969", {"cc.": 40}),
    "(1,5,1)s2/F5": ("f5659072c1d721ed", {"cc.": 39, "cfR": 1}),
    "(3,10,3)s1/F7": ("3cbee41572f8e8d4", {"cc.": 30}),
    "torsion-free/Q": ("5606a9321669282d", {"cc.": 4, "zcZ": 1}),
    "torsion-free/F5": ("23ef481f1d83d15d", {"cc.": 30, "fcL": 10}),
    "reflexive/F5": ("2fe3b6d01ac4507d", {"cc.": 37, "fcL": 3}),
    "locally-free/F7": ("e5ccf4ea8ad69162", {"cc.": 20}),
    "lf+tf/Q": ("a25623f242d4326d", {"zcZ": 1}),
    "lf+tf/F5": ("abe41bd4f33faad7", {"cc.": 31, "fcL": 9}),
    "rf+tf/F3": ("ee8f8382662fdc27", {"cc.": 22, "fcL": 18}),
}

# Kind and dimension as recorded from the binary-form engine, except the
# two entries marked "corrected"; digests and notes re-recorded from the
# exact hyperplane count of degeneracy_dim.  The corrected entries are the
# rational matrices (CORRECTED_OVER_Q).
CORRECTED_OVER_Q = ("(2,6,2)s1 alpha mod 3", "(2,6,2)s3 beta mod 5")

GOLDEN_DEGENERACY = {
    "surface/Q": ("b610951ceba87a5c", "dim", 2,
        "all 13 hyperplane sections H_t meet the locus in dimension >= 1, the last with rank 5 < 6 of the 6x8 multiplication map over Q"),
    "p2-curve/Q": ("b248c951489a529a", "dim", 1,
        "all 9 hyperplane sections H_t meet the locus in dimension >= 0, the last with rank 5 < 6 of the 6x8 multiplication map over Q"),
    "lf+rf/Q": ("e60dcb37f1ee38da", "dim", 0,
        "the locus is not empty: rank 19 < 20 of the 20x36 multiplication map over Q; no curve, by 4 slice proofs"),
    "(2,6,2)s0 alpha mod 3": ("3c0eb815dcc753fd", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:3"),
    "(2,6,2)s0 alpha mod 5": ("91001d43301db577", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:5"),
    "(2,6,2)s0 alpha mod 7": ("81c7c4b3c67ba72f", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:7"),
    "(2,6,2)s0 alpha mod 101": ("c42736a81981850d", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:101"),
    "(2,6,2)s0 beta mod 5": ("91001d43301db577", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:5"),
    # corrected: recorded as dim 2 from a rank drop mod 3
    "(2,6,2)s1 alpha mod 3": ("a4959a361bc61574", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:32003"),
    "(2,6,2)s1 alpha mod 5": ("91001d43301db577", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:5"),
    "(2,6,2)s1 alpha mod 7": ("81c7c4b3c67ba72f", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:7"),
    "(2,6,2)s1 alpha mod 101": ("c42736a81981850d", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:101"),
    "(2,6,2)s1 beta mod 5": ("91001d43301db577", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:5"),
    "(2,6,2)s3 alpha mod 3": ("3c0eb815dcc753fd", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:3"),
    "(2,6,2)s3 alpha mod 5": ("91001d43301db577", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:5"),
    "(2,6,2)s3 alpha mod 7": ("81c7c4b3c67ba72f", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:7"),
    "(2,6,2)s3 alpha mod 101": ("c42736a81981850d", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:101"),
    # corrected: recorded as dim 2 from a rank drop mod 5
    "(2,6,2)s3 beta mod 5": ("a4959a361bc61574", "empty", None,
        "full rank at every point: rank 20 = 20 of the 20x24 multiplication map over Fp:32003"),
    "(3,10,3)s1 alpha mod 7": ("452a91bd6680ad0d", "empty", None,
        "full rank at every point: rank 60 = 60 of the 60x100 multiplication map over Fp:7"),
    "(2,7,1)P2 alpha mod 5": ("dcc9f14d5e1b4c9c", "empty", None,
        "full rank at every point: rank 12 = 12 of the 12x21 multiplication map over Fp:5"),
}


def line_cases():
    lf = example_monad("locally-free")
    tf = example_monad("torsion-free")
    rf = example_monad("reflexive")
    F5, F7, F101 = GF(5), GF(7), GF(101)

    def sampled(seed, count, field, n=3):
        return [sample_line(seed, i, field, n) for i in range(count)]

    bad = random_monad(2, 6, 2, seed=3)
    return [
        ("(2,6,2)s3/F5", to_prime_field(bad, 5), sampled(2, 120, F5)),
        ("(2,6,2)s3/F7", to_prime_field(bad, 7), sampled(3, 20, F7)),
        ("(2,6,2)s3/Q", bad, sampled(4, 6, QQ)),
        ("(2,6,2)s0/F101", to_prime_field(random_monad(2, 6, 2, seed=0), 101),
         sampled(5, 20, F101)),
        ("(2,6,2)s0/F5", to_prime_field(random_monad(2, 6, 2, seed=0), 5), sampled(6, 40, F5)),
        ("(1,5,1)s2/F5", to_prime_field(random_monad(1, 5, 1, seed=2), 5), sampled(7, 40, F5)),
        ("(3,10,3)s1/F7", to_prime_field(random_monad(3, 10, 3, seed=1), 7), sampled(8, 30, F7)),
        ("torsion-free/Q", tf, [Line.from_points(QQ, *LINE_XY)] + sampled(9, 4, QQ)),
        ("torsion-free/F5", to_prime_field(tf, 5), sampled(10, 40, F5)),
        ("reflexive/F5", to_prime_field(rf, 5), sampled(11, 40, F5)),
        ("locally-free/F7", to_prime_field(lf, 7), sampled(12, 20, F7)),
        ("lf+tf/Q", direct_sum(lf, tf), [Line.from_points(QQ, *LINE_XY)]),
        ("lf+tf/F5", to_prime_field(direct_sum(lf, tf), 5), sampled(13, 40, F5)),
        ("rf+tf/F3", to_prime_field(direct_sum(rf, tf), 3), sampled(14, 40, GF(3))),
    ]


def degeneracy_cases():
    surface = forms_matrix(QQ, 4, [["x", "0"], ["y", "0"], ["0", "x"], ["0", "x"]])
    p2_curve = forms_matrix(QQ, 3, [["x", "0"], ["y", "0"], ["0", "x"], ["0", "x"]])
    cases = [
        ("surface/Q", surface),
        ("p2-curve/Q", p2_curve),
        ("lf+rf/Q", direct_sum(example_monad("locally-free"),
                               example_monad("reflexive")).alpha),
    ]

    def mod(name, L, p):
        cases.append((name, L if name in CORRECTED_OVER_Q else L.to_field(GF(p))))
    for seed in (0, 1, 3):
        M = random_monad(2, 6, 2, seed=seed)
        for p in (3, 5, 7, 101):
            mod(f"(2,6,2)s{seed} alpha mod {p}", M.alpha, p)
        mod(f"(2,6,2)s{seed} beta mod 5", M.beta, 5)
    mod("(3,10,3)s1 alpha mod 7", random_monad(3, 10, 3, seed=1).alpha, 7)
    mod("(2,7,1)P2 alpha mod 5", random_monad(2, 7, 1, seed=1, ambient_n=2).alpha, 5)
    return cases


STATUS_CODE = {
    "": ".",
    "empty left map": ".",
    "left map drops rank identically on the line": "Z",
    "left map drops rank at a point of the line": "L",
    "right map drops rank at a point of the line": "R",
}


def _verdict(P):
    """The minor-gcd verdict of a pencil P : O^a -> O(1)^b, by ranks.

    All maximal minors vanish identically iff the transpose is not
    injective on sections in twist b.
    """
    b = P.nrows
    if onto_everywhere(P).full:
        return "c"
    return "z" if mult_map(P.transpose(), b - 1).rank() < b * b else "f"


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_line_verdicts_reproduce_the_minor_gcds():
    got = {}
    for name, M, lines in line_cases():
        rows = []
        for line in lines:
            pc = restrict(M, line)
            st = line_status(pc)
            rows.append(_verdict(pc.A.transpose()) + _verdict(pc.B)
                        + STATUS_CODE[st.note])
        got[name] = (_digest(rows), dict(sorted(collections.Counter(rows).items())))
    assert got == GOLDEN_LINES


def test_degeneracy_slices_reproduce_the_minor_gcds():
    got = {}
    for name, L in degeneracy_cases():
        res = degeneracy_dim(L)
        got[name] = (_digest(res.to_json_obj()), res.kind, res.dim, res.note)
    assert got == GOLDEN_DEGENERACY
