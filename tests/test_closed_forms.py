"""Closed-form twist ranks against the all-ranks path.

cohomology_table and p1_cohomology take most ranks in closed form from
the monad's certificate, and complex_cohomology takes the rank of a map
out of a zero space as 0 without building it.  oracles.reference_twist
and oracles.reference_cohomology eliminate all four ranks, empty maps
included; that path is the reference here.  On every monad of the corpus the two must agree
column by column, and where the reference raises, the table must raise
the same error.

The corpus covers each path: both proofs (locally-free sheaves), a failed
left-map proof (the torsion-free and reflexive examples and their sums, to
twist 8 and 5),
a failed right-map proof (a bad reduction, which the table refuses),
empty maps, P2 and F_p monads, and windows wide enough to reach the
closed forms far from the core.
"""

import itertools
import os
import subprocess
import sys
import time

import pytest

from monadlab import (
    MonadLabError,
    cohomology_table,
    direct_sum,
    example_monad,
    random_monad,
    restrict,
    to_prime_field,
    trivial_monad,
)
from monadlab.cohomology import complex_cohomology
from monadlab.exactlin import onto_everywhere
from monadlab.lines_scan import sample_line
from monadlab.pencil import line_status, p1_cohomology

from oracles import reference_cohomology, reference_twist
from test_acceptance import EXAMPLES, _fifty_random_monads
from test_scalars import GOLDEN_MONADS, _field

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _all_ranks(M, k_min, k_max):
    """Columns by reference_twist, stopping at the first error message."""
    cols = []
    for k in range(k_min, k_max + 1):
        try:
            cols.append(reference_twist(M, k))
        except MonadLabError as exc:
            return cols, str(exc)
    return cols, None


def assert_table_matches(M, k_min, k_max):
    want, error = _all_ranks(M, k_min, k_max)
    if error is not None:
        with pytest.raises(MonadLabError) as info:
            cohomology_table(M, k_min, k_max)
        assert str(info.value) == error, M.dims()
        return
    table = cohomology_table(M, k_min, k_max)
    got = [table.column(k) for k in range(k_min, k_max + 1)]
    assert got == want, (M.dims(), M.field.name)


def test_criterion_3_monads():
    for M in _fifty_random_monads():
        assert_table_matches(M, -6, 2)


def test_examples_and_their_pairwise_sums():
    monads = {name: example_monad(name) for name in EXAMPLES}
    # the left-map proof fails on the torsion-free and reflexive examples
    for name in ("torsion-free", "reflexive"):
        assert not onto_everywhere(monads[name].alpha.transpose()).full
    for M in monads.values():
        assert_table_matches(M, -6, 2)
    for a, b in itertools.combinations_with_replacement(EXAMPLES, 2):
        assert_table_matches(direct_sum(monads[a], monads[b]), -6, 2)


def test_empty_maps():
    assert_table_matches(trivial_monad(3), -6, 2)
    assert_table_matches(trivial_monad(2, ambient_n=2), -6, 2)


@pytest.mark.parametrize("dims,seed,fname,ambient", [
    g[:4] for g in GOLDEN_MONADS if g[3] == 2 or g[2] != "Q"])
def test_p2_and_fp_monads(dims, seed, fname, ambient):
    M = random_monad(*dims, seed=seed, field=_field(fname), ambient_n=ambient)
    assert_table_matches(M, -7, 3)


@pytest.mark.parametrize("names,window", [
    (("torsion-free",), (-7, 8)),
    (("reflexive",), (-7, 8)),
    (("torsion-free", "torsion-free"), (-7, 5)),
    (("reflexive", "torsion-free"), (-7, 5)),
])
def test_sheaves_not_locally_free_at_positive_twists(names, window):
    # the A^T proof fails, so a_k = v|S_{k-1}| rests on A being injective as
    # a sheaf map alone; the reference's Bareiss ranks grow fast beyond these
    M = example_monad(names[0])
    for name in names[1:]:
        M = direct_sum(M, example_monad(name))
    assert not onto_everywhere(M.alpha.transpose()).full
    assert_table_matches(M, *window)


@pytest.mark.parametrize("dims", [(2, 8, 2), (3, 10, 3)])
def test_larger_monads(dims):
    assert_table_matches(random_monad(*dims, seed=1), -7, 2)


def test_bad_reduction_keeps_every_rank():
    # mod 7 the right map of this monad drops rank, so the reduction is not
    # a monad: the all-ranks path stops at an Euler mismatch, and the table
    # refuses it before any rank
    M = to_prime_field(random_monad(2, 6, 2, seed=3), 7)
    assert not onto_everywhere(M.beta).full
    assert _all_ranks(M, -6, 2)[1].startswith("Euler characteristic mismatch")
    with pytest.raises(MonadLabError,
                       match="right map is not onto at every point; not a monad"):
        cohomology_table(M, -6, 2)


@pytest.mark.parametrize("dims,seed,fname,ambient,window", [
    ((1, 5, 1), 3, "Fp:7", 3, (-12, 10)),
    ((1, 4, 1), 0, "Fp:101", 3, (-12, 10)),
    ((1, 4, 1), 0, "Q", 2, (-12, 10)),
    ((1, 5, 1), 1, "Fp:101", 2, (-12, 10)),
    # over Q the reference's Bareiss ranks grow fast beyond this window
    ((1, 5, 1), 2, "Q", 3, (-10, 5)),
])
def test_wide_windows(dims, seed, fname, ambient, window):
    M = random_monad(*dims, seed=seed, field=_field(fname), ambient_n=ambient)
    assert_table_matches(M, *window)


@pytest.mark.parametrize("dims,fname", [((2, 6, 2), "Q"), ((1, 5, 1), "Fp:101")])
def test_clean_lines(dims, fname):
    field = _field(fname)
    M = random_monad(*dims, seed=2, field=field)
    clean = 0
    for index in range(6):
        pc = restrict(M, sample_line(5, index, field))
        if not line_status(pc).clean:
            continue
        clean += 1
        for k in range(-pc.v - 4, pc.v_prime + 4):
            assert (p1_cohomology(pc, k) == complex_cohomology(pc.A, pc.B, k)
                    == reference_cohomology(pc.A, pc.B, k))
    assert clean


def test_cohomology_to_kmax_8_in_under_a_second(tmp_path):
    path = tmp_path / "m.json"
    env = dict(os.environ, PYTHONPATH=SRC)
    entry = "from monadlab.cli import console_entry; console_entry()"
    subprocess.run([sys.executable, "-c", entry, "generate", "--dims", "2,8,2",
                    "--seed", "1", "--out", str(path)], env=env, check=True)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", entry, "cohomology", str(path),
                           "--kmin", "-7", "--kmax", "8", "--format", "csv"],
                          env=env, capture_output=True, text=True, timeout=60)
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stderr
    header = proc.stdout.splitlines()[0]
    assert header == "p," + ",".join(str(k) for k in range(-7, 9))
    assert elapsed < 1.0, f"{elapsed:.2f}s"
