"""Validation and classification verdicts recorded from the sampling engines.

validate and classify once decided "onto at every point" by sampling
points, enumerating F_q slices and enumerating P^3(F_q).  The table below
was recorded from those engines, with default budgets, on a seeded corpus:
the 50 random monads of acceptance criterion 3, the three examples and
their pairwise direct sums, seeded (2,6,2), (2,8,2) and (3,10,3) monads,
and the P^2 and F_p monads of test_scalars.  Bad reductions, where the
reduced right map is not onto at some point, are validated only.

Per case: the validate pass flags of (composition, beta, alpha) and their
confidences, then the classify level, locus kind, locus dimension and
confidence.  The pass flags, level, kind and dimension must match, and
every validate check and every classify verdict must now be exact; the
recorded confidences stay as the sampling engines gave them.  The
exceptions are the four entries of CORRECTED, where the sampling engines
reported a locally-free sheaf that is not one.

`PYTHONPATH=src:tests python3 tests/test_verdicts_golden.py` prints the
table for the current tree.
"""

from fractions import Fraction

from monadlab import (
    GF,
    QQ,
    classify,
    direct_sum,
    example_monad,
    invariants,
    random_monad,
    to_prime_field,
    validate,
)
from monadlab.exactlin import onto_everywhere
from test_acceptance import _fifty_random_monads

# "+" passed, "-" failed; "e" exact, "m" monte_carlo
GOLDEN = {
    'crit3 s0 (0, 4, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s1 (0, 5, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s2 (0, 6, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s3 (0, 7, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s4 (0, 8, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s5 (0, 5, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s6 (0, 6, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s7 (0, 7, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s8 (0, 8, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s9 (1, 2, 0)': ('+++', 'eee', 'torsion_free', 'dim', 1, 'exact'),
    'crit3 s10 (1, 3, 0)': ('+++', 'eee', 'reflexive', 'dim', 0, 'exact'),
    'crit3 s11 (1, 4, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s12 (1, 5, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s13 (1, 6, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s14 (1, 7, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s15 (1, 8, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s16 (1, 4, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s17 (1, 5, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s18 (1, 6, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s19 (1, 7, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s20 (1, 8, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s21 (1, 6, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s22 (1, 7, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s23 (1, 8, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s24 (2, 2, 0)': ('+++', 'eee', 'coherent_only', 'dim', 2, 'monte_carlo'),
    'crit3 s25 (2, 3, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s26 (2, 4, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s27 (2, 5, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s28 (2, 6, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s29 (2, 7, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s30 (2, 8, 0)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s31 (2, 4, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s32 (2, 5, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s33 (2, 6, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s34 (2, 7, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s35 (2, 8, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s36 (2, 6, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s37 (2, 7, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s38 (2, 8, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    'crit3 s39 (0, 4, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s40 (0, 5, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s41 (0, 6, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s42 (0, 7, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s43 (0, 8, 1)': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'crit3 s44 (0, 5, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s45 (0, 6, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s46 (0, 7, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s47 (0, 8, 2)': ('+++', 'eme', 'locally_free', 'empty', None, 'exact'),
    'crit3 s48 (1, 2, 0)': ('+++', 'eee', 'torsion_free', 'dim', 1, 'exact'),
    'crit3 s49 (1, 3, 0)': ('+++', 'eee', 'reflexive', 'dim', 0, 'exact'),
    'locally-free': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    'reflexive': ('+++', 'eee', 'reflexive', 'dim', 0, 'exact'),
    'torsion-free': ('+++', 'eee', 'torsion_free', 'dim', 1, 'exact'),
    'lf+lf': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    'lf+rf': ('+++', 'eme', 'reflexive', 'dim', 0, 'monte_carlo'),
    'lf+tf': ('+++', 'eme', 'torsion_free', 'dim', 1, 'monte_carlo'),
    'rf+rf': ('+++', 'eme', 'reflexive', 'dim', 0, 'monte_carlo'),
    'rf+tf': ('+++', 'eme', 'torsion_free', 'dim', 1, 'monte_carlo'),
    'tf+tf': ('+++', 'eme', 'torsion_free', 'dim', 1, 'monte_carlo'),
    '(2, 6, 2) s0': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(2, 6, 2) s1': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(2, 6, 2) s2': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(2, 6, 2) s3': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(2, 8, 2) s1': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(3, 10, 3) s1': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(2, 6, 2) s0 Fp:7 P3': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(1, 5, 1) s3 Fp:7 P3': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    '(2, 6, 2) s1 Fp:101 P3': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(1, 4, 1) s0 Fp:101 P3': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    '(1, 4, 1) s0 Q P2': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    '(1, 5, 1) s1 Fp:101 P2': ('+++', 'eee', 'locally_free', 'empty', None, 'exact'),
    '(3, 8, 1) s1 Fp:101 P3': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    '(2, 6, 1) s2 Fp:7 P2': ('+++', 'eee', 'locally_free', 'empty', None, 'monte_carlo'),
    '(2, 6, 2) s4 Fp:5 P3': ('+++', 'eme', 'locally_free', 'empty', None, 'monte_carlo'),
    '(2, 6, 2) s0 mod 101': ('+-+', 'eee', None, None, None, None),
    '(2, 6, 2) s3 mod 5': ('+-+', 'eee', None, None, None, None),
    '(2, 6, 2) s3 mod 7': ('+-+', 'eee', None, None, None, None),
    '(2, 6, 2) s1 mod 2': ('+-+', 'eee', None, None, None, None),
}

# The sampling engines looked for rank drops at rational points only (F_q
# hits had to lift to Q), so they missed these loci, whose points are not
# rational.  Here the left map's transpose fails onto_everywhere by a rank
# over Q, and the Chern data rule out a locally-free sheaf on their own.
CORRECTED = {
    # rank 1, c1 = 2: a line bundle would be O(2) with ch2 = 2, but ch2 = -1
    'crit3 s25 (2, 3, 0)': ('+++', 'eee', 'torsion_free', 'dim', 1, 'monte_carlo'),
    # rank 2 with c3 = 4; a rank-2 bundle has c3 = 0
    'crit3 s26 (2, 4, 0)': ('+++', 'eee', 'reflexive', 'dim', 0, 'exact'),
    # rank 1, c1 = 1: a line bundle would be O(1) with ch2 = 1/2, but ch2 = -3/2
    'crit3 s31 (2, 4, 1)': ('+++', 'eee', 'torsion_free', 'dim', 1, 'monte_carlo'),
    # rank 2 with c3 = 2
    'crit3 s32 (2, 5, 1)': ('+++', 'eee', 'reflexive', 'dim', 0, 'exact'),
}

_SHORT = {"exact": "e", "monte_carlo": "m"}


def corpus():
    """(name, monad, classify too?) for every case of the table."""
    cases = [(f"crit3 s{seed} {M.dims()}", M, True)
             for seed, M in enumerate(_fifty_random_monads())]
    names = ("locally-free", "reflexive", "torsion-free")
    short = {"locally-free": "lf", "reflexive": "rf", "torsion-free": "tf"}
    for a in names:
        cases.append((a, example_monad(a), True))
    for i, a in enumerate(names):
        for b in names[i:]:
            cases.append((f"{short[a]}+{short[b]}",
                          direct_sum(example_monad(a), example_monad(b)), True))
    for dims, seed in (((2, 6, 2), 0), ((2, 6, 2), 1), ((2, 6, 2), 2), ((2, 6, 2), 3),
                       ((2, 8, 2), 1), ((3, 10, 3), 1)):
        cases.append((f"{dims} s{seed}", random_monad(*dims, seed=seed), True))
    for dims, seed, p, ambient in (((2, 6, 2), 0, 7, 3), ((1, 5, 1), 3, 7, 3),
                                   ((2, 6, 2), 1, 101, 3), ((1, 4, 1), 0, 101, 3),
                                   ((1, 4, 1), 0, None, 2), ((1, 5, 1), 1, 101, 2),
                                   ((3, 8, 1), 1, 101, 3), ((2, 6, 1), 2, 7, 2),
                                   ((2, 6, 2), 4, 5, 3)):
        field = QQ if p is None else GF(p)
        cases.append((f"{dims} s{seed} {field.name} P{ambient}",
                      random_monad(*dims, seed=seed, field=field, ambient_n=ambient),
                      True))
    for seed, p in ((0, 101), (3, 5), (3, 7), (1, 2)):
        cases.append((f"(2, 6, 2) s{seed} mod {p}",
                      to_prime_field(random_monad(2, 6, 2, seed=seed), p), False))
    return cases


def verdict(M, with_class: bool):
    rep = validate(M)
    checks = (rep.composition, rep.beta_surjective, rep.alpha_injective)
    row = ("".join("+" if c.passed else "-" for c in checks),
           "".join(_SHORT[c.confidence] for c in checks))
    if not with_class:
        return row + (None, None, None, None)
    cls = classify(M)
    return row + (cls.level, cls.degeneracy.kind, cls.degeneracy.dim, cls.confidence)


def test_verdicts_match_the_sampling_engines():
    cases = corpus()
    got = {name: verdict(M, with_class) for name, M, with_class in cases}
    assert list(got) == list(GOLDEN)
    for name, want in GOLDEN.items():
        want = CORRECTED.get(name, want)
        flags, confs, level, kind, dim, conf = got[name]
        assert (flags, level, kind, dim) == (want[0],) + want[2:5], (name, got[name])
        assert confs == "eee", (name, got[name])
        assert conf == ("exact" if want[2] else None), (name, got[name])
    for name, M, _ in cases:
        if name in CORRECTED:
            proof = onto_everywhere(M.alpha.transpose())
            assert not proof.full and proof.over == "Q", (name, proof)
            # no line bundle O(c1), and no rank-2 bundle, has these Chern data
            inv = invariants(M)
            if inv.rank == 1:
                assert inv.ch2 != Fraction(inv.c1 ** 2, 2), name
            else:
                assert inv.rank == 2 and inv.c3 != 0, name


if __name__ == "__main__":
    for name, M, with_class in corpus():
        print(f"    {name!r}: {verdict(M, with_class)!r},", flush=True)
