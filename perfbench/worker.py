"""One benchmark pass, run in a fresh interpreter by run.py.

Usage (run.py builds the input):
    python3 perfbench/worker.py WORKLOAD [--trace] [--in-process]
with PYTHONPATH pointing at the source tree.  The pass specification comes
as JSON on stdin: the monads as canonical monad-file text, and the job list.

Set-up ends, and the first job starts, after the interpreter has started,
imported monadlab (monadlab.cli for the CLI session) and decoded the pass's
monad files.  Jobs then run one at a time.  The result goes to stdout as
one JSON object: per job its wall time, its mathematical content and its
confidence tags, and, in a traced pass, its exact counters.

CLI commands run as subprocesses, the way a user runs them, unless
--in-process is given: then each goes through cli.main(argv) in this
process, which is what a traced pass needs to see inside the commands.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time
import traceback

CLI_ENTRY = "from monadlab.cli import console_entry; console_entry()"
_TAG = re.compile(r"[\[(](exact|certified|monte_carlo|unknown)[\])]")


# -- jobs -------------------------------------------------------------------
#
# Each runner makes all its monadlab calls inside the timed region of main and
# returns (content, tags) extracted from the results afterwards.  Content is
# what must stay equal; tags are confidence labels, which may only get
# stronger.


def job_table(ml, monads, job):
    table = ml.cohomology_table(monads[job["monad"]], job["kmin"], job["kmax"])
    return lambda: ({"h": table.rows}, ["exact"])


def job_desk(ml, monads, job):
    M = monads[job["monad"]]
    report = ml.validate(M)
    cls = ml.classify(M)
    stab = ml.stability_report(M, cls)

    def extract():
        checks = (report.composition, report.beta_surjective, report.alpha_injective)
        deg = cls.degeneracy
        content = {"valid": [[c.name, c.passed] for c in checks],
                   "level": cls.level, "locus": [deg.kind, deg.dim],
                   "stability": stab.to_json_obj()}
        return content, [c.confidence for c in checks] + [cls.confidence]
    return extract


def job_scan(ml, monads, job):
    M = monads[job["monad"]]
    cls = ml.classify(M)
    rep = ml.jumping_scan(M, job["prime"], job["samples"], job["seed"],
                          classification=cls)

    def extract():
        content = {"level": cls.level, "samples": rep.samples,
                   "jumping": rep.jumping, "degenerate": rep.degenerate,
                   "spectrum": sorted([list(k), c] for k, c in rep.spectrum.items())}
        # scan statistics are Monte-Carlo claims (labelled by prime, samples, seed)
        return content, [cls.confidence, "monte_carlo"]
    return extract


def job_codim(ml, monads, job):
    M = monads[job["monad"]]
    cls = ml.classify(M)
    rep = ml.codim_evidence(M, job["primes"], job["samples"], job["seed"],
                            classification=cls)
    return lambda: ({"level": cls.level, "codim": rep.to_json_obj()},
                    [cls.confidence, "monte_carlo"])


def job_line(ml, monads, job):
    # what `monadlab splitting --seed S --index I` computes
    M = monads[job["monad"]]
    line = ml.sample_line(job["seed"], job["index"], M.field, M.ambient_n)
    pc = ml.restrict(M, line)
    if not ml.line_status(pc).clean:
        return lambda: ({"clean": False}, ["exact"])
    parts = ml.splitting_type(pc)
    dims = [list(ml.p1_cohomology(pc, k)) for k in range(-pc.v - 2, pc.v_prime + 3)]
    return lambda: ({"clean": True, "splitting": list(parts), "dims": dims}, ["exact"])


RUNNERS = {"table": job_table, "desk": job_desk, "scan": job_scan,
           "codim": job_codim, "line": job_line}


# -- CLI session --------------------------------------------------------------


def _stderr_kind(text: str) -> str:
    if "Traceback (most recent call last)" in text:
        return "traceback"
    return "message" if text.strip() else ""


def _cli_outcome(job, code, out, err, cwd):
    """Content and tags of one command from its exit code and output."""
    tags = _TAG.findall(out)
    if code == 0 and job["argv"][0] in ("cohomology", "splitting"):
        tags.append("exact")
    content = {"exit": code,
               "stdout": hashlib.sha256(_TAG.sub("<tag>", out).encode()).hexdigest(),
               "stderr": _stderr_kind(err)}
    if "--out" in job["argv"]:
        target = os.path.join(cwd, job["argv"][job["argv"].index("--out") + 1])
        with open(target, "rb") as fh:
            content["out"] = hashlib.sha256(fh.read()).hexdigest()
    return content, tags


def cli_subprocess(job, cwd, env):
    """The command as a user runs it: a new interpreter per command."""
    proc_env = dict(env, **job.get("env", {}))
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CLI_ENTRY, *job["argv"]],
                          cwd=cwd, env=proc_env, capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - t0
    return wall, _cli_outcome(job, proc.returncode, proc.stdout, proc.stderr, cwd)


def cli_in_process(cli, job, cwd):
    """The same command through cli.main(argv), so the tracer sees inside it."""
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in job.get("env", {})}
    os.environ.update(job.get("env", {}))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(job["argv"])
            except Exception:           # what the console script would show
                traceback.print_exc(file=err)
                code = 1
            wall = time.perf_counter() - t0
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return wall, _cli_outcome(job, code, out.getvalue(), err.getvalue(), cwd)


# -- the pass -----------------------------------------------------------------


def main() -> int:
    workload = sys.argv[1]
    trace = "--trace" in sys.argv[2:]
    in_process = "--in-process" in sys.argv[2:]
    t0 = time.perf_counter()
    if workload == "cli-session":
        import monadlab.cli as cli
        import monadlab as ml
    else:
        import monadlab as ml
        cli = None
    import_s = time.perf_counter() - t0

    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    spec = json.load(sys.stdin)
    monads = {key: ml.decode(text) for key, text in spec["monads"].items()}
    cwd = spec.get("cwd")
    if cwd:
        os.chdir(cwd)       # commands name their files relative to the session directory
    for name, text in spec.get("files", {}).items():
        with open(os.path.join(cwd, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    setup = tracer.take() if tracer else None
    env = dict(os.environ)
    setup_end = time.monotonic()

    jobs = []
    for job in spec["jobs"]:
        record = {}
        try:
            if job["kind"] == "cli":
                if in_process:
                    wall, (content, tags) = cli_in_process(cli, job, cwd)
                else:
                    wall, (content, tags) = cli_subprocess(job, cwd, env)
            else:
                t = time.perf_counter()
                extract = RUNNERS[job["kind"]](ml, monads, job)
                wall = time.perf_counter() - t
                content, tags = extract()
            record.update(wall=wall, content=content, tags=tags)
        except Exception:
            record["error"] = traceback.format_exc(limit=8)
        if tracer:
            record["trace"] = tracer.take()
        jobs.append(record)

    who = resource.RUSAGE_CHILDREN if workload == "cli-session" and not in_process \
        else resource.RUSAGE_SELF
    result = {"setup_end": setup_end, "import_s": import_s, "jobs": jobs,
              "maxrss_kib": resource.getrusage(who).ru_maxrss}
    if tracer:
        result["setup_trace"] = setup
        result["missing"] = tracer.missing
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
