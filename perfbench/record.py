#!/usr/bin/env python3
"""Build the benchmark's input pools and record their reference results.

    python3 perfbench/record.py [--workload NAME ...]

For every pool entry this script generates the inputs (seeded random_monad +
encode, the built-in examples under a seeded unimodular change of
coordinates, seeded scan and line parameters), runs one untraced and one
traced pass through run.py's own pass runner, and stores in
perfbench/ref/NAME.json:

- the inputs, so later code is always measured on the same bytes;
- each job's content and confidence tags (both passes must agree);
- per job, a digest of the traced pass's exact counters, valid for the
  source tree whose sha256 is stored beside them.

Re-record only in a change that redefines the benchmark: references hold
the answers every later change is checked against.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import time
from fractions import Fraction

import run

sys.path.insert(0, str(run.ROOT / "src"))
import monadlab as ml  # noqa: E402

POOL_SIZE = 24


def seed_for(*parts) -> int:
    return int.from_bytes(hashlib.sha256(":".join(map(str, parts)).encode()).digest()[:4], "big")


def monad_obj(M) -> dict:
    return json.loads(ml.encode(M))


def random_obj(dims, seed, ambient_n=3) -> dict:
    return monad_obj(ml.random_monad(*dims, seed=seed, ambient_n=ambient_n))


def example_obj(name: str, seed: int) -> dict:
    """A built-in example under a seeded unimodular change of coordinates.

    x -> A x with det A = +-1 keeps every property the workloads check (it is
    invertible over Q and every F_p) but gives each pass its own input bytes.
    """
    rng = random.Random(seed)
    n = 4
    A = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        A[i] = [a + c * b for a, b in zip(A[i], A[j])]
    rng.shuffle(A)
    obj = monad_obj(ml.example_monad(name))
    for key in ("alpha", "beta"):
        mats = obj[key]
        obj[key] = [[[ml.QQ.fmt(sum(A[s][t] * Fraction(mats[s][r][c]) for s in range(n)))
                      for c in range(len(mats[0][0]))] for r in range(len(mats[0]))]
                    for t in range(n)]
    return obj


# -- pool entries, one function per workload -------------------------------------


def entry_cohomology(i: int) -> dict:
    # Windows stop at k = 2: b_3 of a random (2,8,2) costs 1.2-2.7 s depending
    # on the instance (2-core VM), and one such job a pass made wall_s spread
    # 0.25 across ten seeds.  Four k <= 2 windows average that out; k = -7
    # still reaches the 70 x 160 dual maps.
    s = lambda slot: seed_for("cohomology-q", i, slot)
    monads = {}
    for k, dims in enumerate([(2, 8, 2), (2, 8, 2), (2, 6, 2), (2, 6, 2)]):
        monads[f"wide{k}"] = random_obj(dims, s(k))
    monads["p3_141"] = random_obj((1, 4, 1), s(4))
    monads["p2_151"] = random_obj((1, 5, 1), s(5), ambient_n=2)
    # nine alike small tables, so that the median job is one of them
    small = [f"p3_151_{k}" for k in range(9)]
    for k, name in enumerate(small):
        monads[name] = random_obj((1, 5, 1), s(6 + k))
    jobs = [{"kind": "table", "monad": f"wide{k}", "kmin": -7, "kmax": 2} for k in range(4)]
    jobs += [{"kind": "table", "monad": m, "kmin": -6, "kmax": 2}
             for m in ["p3_141", "p2_151"] + small]
    return {"monads": monads, "jobs": jobs}


def entry_classify(i: int) -> dict:
    # Five re-coordinatized copies of each example: the median job is an
    # example's millisecond desk sequence, which needs many samples a pass.
    s = lambda slot: seed_for("classify-q", i, slot)
    monads = {"r262": random_obj((2, 6, 2), s(0))}
    for k in range(5):
        for slot, name in enumerate(("torsion-free", "reflexive", "locally-free"), 1):
            monads[f"{name}-{k}"] = example_obj(name, s(10 * k + slot))
    jobs = [{"kind": "desk", "monad": m} for m in monads]
    for job in jobs[1:]:
        job["short"] = True     # run.py also times these in short passes
    return {"monads": monads, "jobs": jobs}


def entry_lines_fp(i: int) -> dict:
    s = lambda slot: seed_for("lines-fp", i, slot)
    monads = {"lf": example_obj("locally-free", s(0)),
              "m151": random_obj((1, 5, 1), s(1)),
              "m161": random_obj((1, 6, 1), s(2)),
              "m141": random_obj((1, 4, 1), s(3))}
    scan = lambda m, n: {"kind": "scan", "monad": m, "prime": 101, "samples": n,
                         "seed": s(10)}
    jobs = [scan("lf", 2000), scan("m151", 400), scan("m161", 400),
            {"kind": "codim", "monad": "m141", "primes": [101, 1009], "samples": 500,
             "seed": s(11)}]
    return {"monads": monads, "jobs": jobs}


def entry_lines_q(i: int) -> dict:
    s = lambda slot: seed_for("lines-q", i, slot)
    monads = {"m282": random_obj((2, 8, 2), s(0)), "m3103": random_obj((3, 10, 3), s(1))}
    jobs = [{"kind": "line", "monad": "m282", "seed": s(2), "index": k} for k in range(10)]
    jobs += [{"kind": "line", "monad": "m3103", "seed": s(3), "index": k} for k in range(3)]
    return {"monads": monads, "jobs": jobs}


def entry_cli(i: int) -> dict:
    """The README command sequence on the example files, with seeded arguments."""
    s = lambda slot: seed_for("cli-session", i, slot) % 100_000
    lf_text = run.monad_text(monad_obj(ml.example_monad("locally-free")))
    cut = random.Random(s(0)).randrange(20, len(lf_text) - 20)
    cmds = [
        ["examples", "--name", "locally-free", "--out", "lf.json"],
        ["examples", "--name", "torsion-free", "--out", "tf.json"],
        ["validate", "lf.json"],
        ["invariants", "lf.json"],
        ["classify", "lf.json"],
        ["cohomology", "lf.json", "--kmin", "-6", "--kmax", "2", "--format", "csv"],
        ["admissible", "lf.json"],
        ["stability", "lf.json"],
        ["dualize", "lf.json", "--out", "dual.json"],
        ["dsum", "lf.json", "dual.json", "--out", "sum.json"],
        ["restrict", "lf.json", "--seed", str(s(1)), "--index", str(i % 7)],
        ["splitting", "lf.json", "--seed", str(s(2)), "--index", str(i % 5)],
        ["jumping-scan", "lf.json", "--prime", "101", "--samples", "2000", "--seed", str(s(3))],
        ["uniformity", "lf.json", "--samples", "50", "--seed", str(s(4))],
        ["generate", "--dims", "2,6,2", "--seed", str(s(5))],
    ]
    jobs = [{"kind": "cli", "argv": c} for c in cmds]
    jobs += [
        {"kind": "cli", "argv": ["dualize", "tf.json"], "want": {"exit": 1, "stderr": "message"}},
        {"kind": "cli", "argv": ["validate", "bad.json"], "want": {"exit": 2, "stderr": "message"}},
        {"kind": "cli", "argv": ["classify", "lf.json"], "env": {"MONADLAB_PRIME": "abc"},
         "want": {"exit": 2, "stderr": "message"},
         "known_defect": "MONADLAB_PRIME=abc ends in a traceback and exit 1, not exit 2 "
                         "with a message (ROADMAP item 1)"},
    ]
    return {"files": {"bad.json": lf_text[:cut]}, "jobs": jobs}


ENTRIES = {"cohomology-q": entry_cohomology, "classify-q": entry_classify,
           "lines-fp": entry_lines_fp, "lines-q": entry_lines_q, "cli-session": entry_cli}

EMPTY_SHA = hashlib.sha256(b"").hexdigest()


def expected_for(job: dict, content: dict, tags: list) -> dict:
    want = job.get("want")
    if want is None:
        if content.get("exit", 0) != 0:
            raise SystemExit(f"unexpected failure of {job}: {content}")
        return {"content": content, "tags": tags}
    desired = {"exit": want["exit"], "stdout": EMPTY_SHA, "stderr": want["stderr"]}
    if content == desired:
        return {"content": desired, "tags": tags}
    if "known_defect" not in job:
        raise SystemExit(f"{job['argv']} gave {content}, expected {desired}")
    return {"content": desired, "tags": tags,
            "known_defect": {"content": content, "note": job["known_defect"]}}


def record(workload: str) -> None:
    src = run.src_digest()
    pool = []
    for i in range(POOL_SIZE):
        t0 = time.monotonic()
        entry = ENTRIES[workload](i)
        plain = run.run_pass(workload, entry, trace=False)
        traced = run.run_pass(workload, entry, trace=True, in_process=True)
        for r in (plain, traced):
            if "crash" in r:
                raise SystemExit(f"{workload} entry {i}: {r['crash']}")
            for job, res in zip(entry["jobs"], r["jobs"]):
                if "error" in res:
                    raise SystemExit(f"{workload} entry {i} {job}: {res['error']}")
        for job, a, b in zip(entry["jobs"], plain["jobs"], traced["jobs"]):
            if (a["content"], a["tags"]) != (b["content"], b["tags"]):
                raise SystemExit(f"{workload} entry {i} {job}: traced and untraced results "
                                 f"differ:\n{a['content']}\n{b['content']}")
        entry["expected"] = [expected_for(job, r["content"], r["tags"])
                             for job, r in zip(entry["jobs"], plain["jobs"])]
        entry["counters"] = run.counter_digests(traced)
        pool.append(entry)
        print(f"{workload} entry {i}: {time.monotonic() - t0:.1f} s", flush=True)
    head = {"workload": workload, "src_sha256": src, "python": sys.version.split()[0]}
    text = json.dumps(head, sort_keys=True)[:-1] + ', "pool": [\n'
    text += ",\n".join(json.dumps(e, sort_keys=True, separators=(",", ":")) for e in pool)
    (run.BENCH / "ref").mkdir(exist_ok=True)
    (run.BENCH / "ref" / f"{workload}.json").write_text(text + "\n]}\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=run.WORKLOADS)
    args = ap.parse_args()
    run.OUT.mkdir(exist_ok=True)
    for workload in args.workload or run.WORKLOADS:
        record(workload)


if __name__ == "__main__":
    main()
