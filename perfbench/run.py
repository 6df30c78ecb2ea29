#!/usr/bin/env python3
"""monadlab benchmark: one workload, closed loop, exact-answer gate.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is the tree under src/
and nothing is installed.  The run measures for about S seconds, prints a
table of every metric (the median over its per-pass samples, which is the
reported value, with quartiles and count) and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  It exits 1 when
any output differs from the recorded reference, and 2 when it cannot run.

A run is a sequence of passes.  A pass is the workload's fixed job list, run
one job at a time in a fresh Python process (perfbench/worker.py), so every
pass pays set-up again and no in-process cache outlives it.  Its inputs are
one entry of the workload's recorded pool (perfbench/ref/NAME.json, written
by perfbench/record.py).  The seed fixes the order in which the run visits
the pool, so the same seed gives the same inputs and no input repeats inside
a pass; an entry comes round again only after the whole pool has been used,
and then in another process.  Every job's content must equal the recorded
one and every confidence tag must be at least as strong as recorded.  After
each full pass an untraced classify-q run makes short passes of its
millisecond jobs only (SHORT_PASSES), on the next pool entries.

--trace 0 reports the end-to-end metrics of untraced passes, each as the
median over the run's passes.  --trace 1 runs
pairs of passes on the same inputs, one untraced and one traced, and reports
the per-layer metrics of the traced ones plus trace.overhead (traced over
untraced wall time, minus one) and trace.coverage.  Traced passes also check
that exact counters repeat: against the recorded ones when the source tree
is the recorded one, and against earlier runs of the same source tree in
this checkout (.perfbench/counters-*.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("cohomology-q", "classify-q", "lines-fp", "lines-q", "cli-session")

# (name, unit).  Each pass yields one sample of each metric, and a run reports
# the median over its passes.  On a shared machine other tenants slow the
# code down for moments at a time; the fastest pass of a run depends on
# whether such a moment was missed, and spread across runs far more than the
# median did (up to 0.32 against 0.12 as IQR/median, five seeds a workload).
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("exact_frac", "ratio"),
)

_CALLS_SELF = ("calls", "count"), ("self_s", "s")
PER_LAYER = (
    *[(f"exactlin.rank_q.{m}", u) for m, u in
      (*_CALLS_SELF, ("cells", "count"), ("max_cells", "count"))],
    *[(f"exactlin.{op}.{m}", u) for op in ("kernel_q", "kernel_fp", "at")
      for m, u in _CALLS_SELF],
    *[(f"exactlin.rank_fp.{m}", u) for m, u in (*_CALLS_SELF, ("cells", "count"))],
    *[(f"exactlin.mult_map.{m}", u) for m, u in (*_CALLS_SELF, ("cells", "count"))],
    *[(f"exactlin.{op}.{m}", u) for op in ("matmul", "compose_check")
      for m, u in _CALLS_SELF],
    *[(f"binforms.minor_gcd.{m}", u) for m, u in (*_CALLS_SELF, ("nonconstant", "count"))],
    ("monad.validate.calls", "count"), ("monad.validate.self_s", "s"),
    ("monad.decode.self_s", "s"), ("monad.encode.self_s", "s"),
    ("monad.to_prime_field.self_s", "s"),
    ("pointwise.classify.calls", "count"), ("pointwise.classify.self_s", "s"),
    ("pointwise.degeneracy_dim.self_s", "s"),
    ("pointwise.points_tried", "count"), ("pointwise.exact_verdicts", "count"),
    ("cohomology.twist.calls", "count"), ("cohomology.twist.self_s", "s"),
    ("cohomology.ranks_per_twist", "count"),
    ("cohomology.stability.self_s", "s"), ("cohomology.admissibility.self_s", "s"),
    ("pencil.restrict.calls", "count"), ("pencil.restrict.self_s", "s"),
    ("pencil.line_status.self_s", "s"),
    *[(f"pencil.{op}.{m}", u) for op in ("p1_cohomology", "splitting_type", "jump_size_rank2")
      for m, u in _CALLS_SELF],
    ("lines_scan.lines", "count"), ("lines_scan.degenerate", "count"),
    ("lines_scan.jumping", "count"),
    ("lines_scan.line_ms_p50", "ms"), ("lines_scan.line_ms_p99", "ms"),
    ("cli.import_s", "s"), ("cli.main.self_s", "s"),
    ("trace.overhead", "ratio"), ("trace.coverage", "ratio"),
)

STRENGTH = {"unknown": 0, "monte_carlo": 1, "exact": 2, "certified": 2}
MIN_PASSES = 3
# Short passes made after each full untraced pass.  A short pass runs only the
# jobs record.py marks "short" (classify-q's millisecond desk jobs on the
# examples) of the next pool entry, in a fresh process like a full pass.  A
# full classify-q pass spends 2.5 s on one Monte-Carlo job and times its short
# jobs within 20 ms, so without short passes job_p50_s would sample the
# machine at one instant every 2.7 s.
SHORT_PASSES = {"classify-q": 4}
# A run must end within 180 s: no pass starts after 160 s and none runs past 175 s.
PASS_TIMEOUT_S = 150


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- environment ----------------------------------------------------------------


def src_digest() -> str:
    """sha256 over the package sources: identifies the code without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "monadlab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        text = (git / "HEAD").read_text().strip()
        if not text.startswith("ref: "):
            return text
        ref = text[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_s() -> float:
    """Machine-speed probe: a fixed pure-Python loop, median of three timings.

    Timed before, between and after the passes and printed beside the
    metrics, so that a slow period of a shared machine can be told from a
    regression; never used to rescale a metric.
    """
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- one pass ---------------------------------------------------------------------


def monad_text(obj) -> str:
    """Canonical monad-file text, byte-identical to monadlab.encode."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def run_pass(workload: str, entry: dict, trace: bool, in_process: bool = False,
             timeout: float = PASS_TIMEOUT_S) -> dict:
    """Run one pass in a fresh interpreter; returns the worker's result.

    in_process runs CLI commands through cli.main instead of subprocesses.

    Adds "setup_s": spawn to first job, read on CLOCK_MONOTONIC in both
    processes.  On a crash or timeout returns {"crash": text}.
    """
    spec = {"monads": {k: monad_text(v) for k, v in entry.get("monads", {}).items()},
            "jobs": entry["jobs"], "files": entry.get("files", {})}
    cwd = None
    if workload == "cli-session":
        cwd = OUT / "tmp" / f"{os.getpid()}-{time.monotonic_ns()}"
        cwd.mkdir(parents=True)
        spec["cwd"] = str(cwd)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    cmd = [sys.executable, str(BENCH / "worker.py"), workload]
    cmd += (["--trace"] if trace else []) + (["--in-process"] if in_process else [])
    try:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=env, cwd=ROOT)
        try:
            out, err = proc.communicate(json.dumps(spec).encode(), timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return {"crash": f"pass exceeded {timeout:.0f} s"}
        if proc.returncode != 0:
            return {"crash": err.decode(errors="replace")[-2000:]}
        try:
            result = json.loads(out.decode().splitlines()[-1])
        except (ValueError, IndexError):
            return {"crash": "unreadable worker output: " + out.decode(errors="replace")[-500:]}
    finally:
        if cwd is not None:
            shutil.rmtree(cwd, ignore_errors=True)
    result["setup_s"] = result["setup_end"] - t_spawn
    return result


# -- checking -----------------------------------------------------------------------


def not_weaker(tags, expected) -> bool:
    return len(tags) == len(expected) and all(
        STRENGTH.get(t, -1) >= STRENGTH[e] for t, e in zip(tags, expected))


def verdict(job: dict, expected: dict) -> str:
    """"ok", "known" (matches a recorded known defect) or a failure message."""
    if "error" in job:
        return "exception:\n" + job["error"]
    if job["content"] == expected["content"]:
        if not_weaker(job["tags"], expected["tags"]):
            return "ok"
        return f"confidence weaker: {job['tags']} < {expected['tags']}"
    defect = expected.get("known_defect")
    if defect is not None and job["content"] == defect["content"]:
        return "known"
    return f"content differs:\n  got      {job['content']}\n  expected {expected['content']}"


def counter_digests(result: dict) -> list:
    """Per-job digest of the traced pass's integer counters."""
    out = []
    for job in result["jobs"]:
        flat = job.get("trace", {}).get("flat", {})
        ints = {k: v for k, v in flat.items() if isinstance(v, int)}
        out.append(hashlib.sha256(json.dumps(ints, sort_keys=True).encode()).hexdigest()[:16])
    return out


# -- metrics --------------------------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end_samples(passes, short_passes) -> dict:
    """One sample per full pass of each end-to-end metric, and one of
    setup_s and job_p50_s per short pass as well."""
    s = {name: [] for name, _ in END_TO_END}
    for r in passes:
        jobs = [j for j in r["jobs"] if "wall" in j]
        s["wall_s"].append(sum(j["wall"] for j in jobs))
        s["peak_rss_mib"].append(r["maxrss_kib"] / 1024)
        tags = [t for j in jobs for t in j["tags"]]
        s["exact_frac"].append(sum(STRENGTH.get(t, 0) == 2 for t in tags) / max(1, len(tags)))
    for r in passes + short_passes:
        s["setup_s"].append(r["setup_s"])
        s["job_p50_s"].append(statistics.median(j["wall"] for j in r["jobs"] if "wall" in j))
    return s


def short_entry(entry: dict) -> dict:
    """The entry cut down to its short jobs and the monads they use."""
    keep = [i for i, job in enumerate(entry["jobs"]) if job.get("short")]
    jobs = [entry["jobs"][i] for i in keep]
    return {"monads": {m: entry["monads"][m] for m in {job["monad"] for job in jobs}},
            "jobs": jobs, "expected": [entry["expected"][i] for i in keep]}


def jobs_wall(r: dict) -> float:
    return sum(j.get("wall", 0.0) for j in r["jobs"])


def per_layer_values(workload: str, r: dict) -> dict:
    """Per-layer metrics of one traced pass (set-up spans included)."""
    flat, line_ms = {}, []
    traces = [r["setup_trace"]] + [j["trace"] for j in r["jobs"] if "trace" in j]
    for t in traces:
        for k, v in t["flat"].items():
            flat[k] = max(flat.get(k, 0), v) if k.endswith(".max_cells") else flat.get(k, 0) + v
        line_ms.extend(t["line_ms"])
    top_s = sum(j["trace"]["top_s"] for j in r["jobs"] if "trace" in j)
    job_s = jobs_wall(r)
    vals = {name: float(flat.get(name, 0)) for name, _ in PER_LAYER}
    twists = flat.get("cohomology.twist.calls", 0)
    vals["cohomology.ranks_per_twist"] = flat.get("cohomology.twist_ranks", 0) / twists if twists else 0.0
    if line_ms:
        line_ms.sort()
        vals["lines_scan.line_ms_p50"] = statistics.median(line_ms)
        vals["lines_scan.line_ms_p99"] = line_ms[min(len(line_ms) - 1, int(0.99 * len(line_ms)))]
    vals["cli.import_s"] = r["import_s"] if workload == "cli-session" else 0.0
    vals["trace.coverage"] = top_s / job_s if job_s else 0.0
    return vals


def print_table(title, rows):
    """rows: (name, unit, samples); the reported value is the median."""
    print(f"{title:<34} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
    for name, unit, values in rows:
        q1, q2, q3 = quartiles(values)
        print(f"{name:<34} {unit:<6} {q2:>12.6g} {q1:>12.6g} {q3:>12.6g} {len(values):>4}")


# -- the run ----------------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about `seconds`, print its tables, return the result."""
    t_start = time.monotonic()
    ref_path = BENCH / "ref" / f"{workload}.json"
    try:
        ref = json.loads(ref_path.read_text())
    except (OSError, ValueError) as exc:
        die(f"cannot read the reference pool {ref_path}: {exc}")
    pool = ref["pool"]
    src = src_digest()
    probes = [probe_s()]

    order = list(range(len(pool)))
    random.Random(f"{workload}:{seed}").shuffle(order)

    # Exact counters of a traced pass must repeat for the same code: check them
    # against the recorded digests (same source tree only) and against earlier
    # runs of this source tree in this checkout.
    recorded_counters = ref.get("src_sha256") == src
    cache_path = OUT / f"counters-{src[:16]}.json"
    try:
        cache = json.loads(cache_path.read_text())
    except (OSError, ValueError):
        cache = {}
    seen = cache.setdefault(workload, {})

    attempted = failed = known = 0
    untraced, traced, short = [], [], []

    def run_checked(k: int, traced_pass: bool, short_pass: bool = False):
        nonlocal attempted, failed, known
        index = order[k % len(order)]
        entry = short_entry(pool[index]) if short_pass else pool[index]
        remaining = 175 - (time.monotonic() - t_start)
        # both sides of a traced run's pair run CLI commands in-process, so
        # that trace.overhead compares like with like
        r = run_pass(workload, entry, traced_pass, in_process=trace,
                     timeout=max(5.0, min(PASS_TIMEOUT_S, remaining)))
        attempted += len(entry["jobs"])
        if "crash" in r:
            failed += len(entry["jobs"])
            print(f"FAIL pass {k} (pool entry {index}) crashed:\n{r['crash']}", file=sys.stderr)
            return None
        for j, (job, expected) in enumerate(zip(r["jobs"], entry["expected"])):
            v = verdict(job, expected)
            if v == "known":
                known += 1
            elif v != "ok":
                failed += 1
                print(f"FAIL pool entry {index} job {j} {entry['jobs'][j]}: {v}", file=sys.stderr)
        if traced_pass:
            got = counter_digests(r)
            wants = [seen.setdefault(str(index), got)]
            if recorded_counters:
                wants.append(entry["counters"])
            for j, g in enumerate(got):
                if any(g != want[j] for want in wants):
                    failed += 1
                    print(f"FAIL pool entry {index} job {j}: exact counters differ "
                          "between runs of the same code", file=sys.stderr)
            if r.get("missing"):
                print(f"note: not traced (absent): {', '.join(r['missing'])}", file=sys.stderr)
        return r

    n_short = 0 if trace else SHORT_PASSES.get(workload, 0)
    k = 0       # pool entries used so far, in the seed's order
    rounds = 0  # full passes (pairs when traced) so far
    last = 0.0
    while True:
        elapsed = time.monotonic() - t_start
        if rounds >= (2 if trace else MIN_PASSES) and (elapsed + last > seconds or elapsed > 160):
            break
        t_pass = time.monotonic()
        if trace:
            first_traced = rounds % 2 == 1  # alternate the order against drift
            a = run_checked(k, first_traced)
            b = run_checked(k, not first_traced)
            if a and b:
                untraced.append(b if first_traced else a)
                traced.append(a if first_traced else b)
        else:
            r = run_checked(k, False)
            if r:
                untraced.append(r)
            for _ in range(n_short):
                k += 1
                r = run_checked(k, False, short_pass=True)
                if r:
                    short.append(r)
        k += 1
        rounds += 1
        last = time.monotonic() - t_pass
        probes.append(probe_s())

    cache_path.write_text(json.dumps(cache, sort_keys=True))

    try:
        load = ",".join(f"{x:.2f}" for x in os.getloadavg())
    except OSError:
        load = "unknown"
    print(f"monadlab benchmark: workload={workload} seed={seed} "
          f"seconds={seconds:g} trace={int(trace)}")
    q1, q2, q3 = quartiles(probes)
    print(f"env: python={sys.version.split()[0]} nproc={os.cpu_count()} loadavg={load} "
          f"commit={git_commit()[:12]} src={src[:12]}")
    print(f"machine-speed probe: median {q2:.5f} s, quartiles {q1:.5f}-{q3:.5f}, "
          f"n {len(probes)} (between passes; never used to rescale)")
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced, {len(short)} short; "
          f"pool of {len(pool)} entries, {len(pool[0]['jobs'])} jobs each")

    if not untraced or (trace and not traced):
        die("no pass completed")
    if trace:
        layer = [per_layer_values(workload, r) for r in traced]
        for v, u, t in zip(layer, untraced, traced):
            v["trace.overhead"] = jobs_wall(t) / jobs_wall(u) - 1
        rows = [(name, unit, [v[name] for v in layer]) for name, unit in PER_LAYER]
        print_table("per-layer metric (traced passes)", rows)
        out_path = OUT / "trace" / f"{workload}-seed{seed}.json"
        out_path.parent.mkdir(exist_ok=True)
        out_path.write_text(json.dumps({
            "workload": workload, "seed": seed, "src_sha256": src,
            "passes": [{"per_layer": v, "setup_paths": r["setup_trace"]["paths"],
                        "job_paths": [j.get("trace", {}).get("paths", {}) for j in r["jobs"]]}
                       for v, r in zip(layer, traced)]}, sort_keys=True))
        print(f"spans (aggregated by call path) written to {out_path.relative_to(ROOT)}")
    else:
        e2e = end_to_end_samples(untraced, short)
        rows = [(name, unit, e2e[name]) for name, unit in END_TO_END]
        print_table("end-to-end metric (untraced passes)", rows)
        print(f"job_p50_s: median job latency of a pass, over {len(untraced[0]['jobs'])} "
              f"jobs a full pass" + (f" and {len(short[0]['jobs'])} a short one" if short else "")
              + f", {sum(len(r['jobs']) for r in untraced + short)} jobs in all")
    fail_frac = (failed + known) / attempted
    print(f"{'fail_frac':<34} {'ratio':<6} {fail_frac:>12.6g}   {failed + known} of {attempted} "
          f"jobs failed ({known} of them the recorded known defect)")
    metrics = {name: {"value": statistics.median(values), "unit": unit}
               for name, unit, values in rows}
    samples_path = OUT / "runs" / f"{workload}-seed{seed}-trace{int(trace)}.json"
    samples_path.parent.mkdir(exist_ok=True)
    samples_path.write_text(json.dumps({
        "samples": {n: v for n, _, v in rows}, "probe_s": probes, "metrics": metrics,
        "job_walls": [[j.get("wall") for j in r["jobs"]] for r in untraced],
        "short_job_walls": [[j.get("wall") for j in r["jobs"]] for r in short]}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                    help="one workload, or all of them one after another")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "monadlab" / "__init__.py").is_file():
        die(f"no monadlab source tree under {ROOT / 'src'}; run from a source checkout")
    OUT.mkdir(exist_ok=True)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            r = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            print()
            result["correct"] &= r["correct"]
            result["attempted"] += r["attempted"]
            result["failed"] += r["failed"]
            result["metrics"].update({f"{workload}/{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
