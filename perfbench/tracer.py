"""Outside-in tracing of monadlab for the benchmark's traced passes.

The tracer wraps public functions and methods of the monadlab modules from
the benchmark's own code; nothing under src/ changes.  A function is
wrapped at every binding of the same function object across the loaded
``monadlab.*`` modules, so names imported with ``from .x import f`` are
traced too.  Methods are wrapped on their class.

Each wrapped call is a span.  Spans are kept in memory, aggregated by name
(calls, self time, size counts) and by call path (calls, total time), and
handed to the caller when a job ends; nothing is written while jobs run.
Self time is the span's duration minus the time of its child spans.

Size counts are computed from shapes (rows x columns), never measured.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, attribute, span name).  "rank" and "kernel" spans are named per
# field at call time; see _PICK.
TARGETS = (
    ("exactlin", "DenseMatrix.rank", "exactlin.rank"),
    ("exactlin", "DenseMatrix.right_kernel", "exactlin.kernel"),
    ("exactlin", "DenseMatrix.matmul", "exactlin.matmul"),
    ("exactlin", "LinearFormMatrix.at", "exactlin.at"),
    ("exactlin", "mult_map", "exactlin.mult_map"),
    ("exactlin", "compose_check", "exactlin.compose_check"),
    ("_binforms", "pencil_minor_gcd", "binforms.minor_gcd"),
    ("monad", "validate", "monad.validate"),
    ("monad", "decode", "monad.decode"),
    ("monad", "encode", "monad.encode"),
    ("monad", "to_prime_field", "monad.to_prime_field"),
    ("pointwise", "classify", "pointwise.classify"),
    ("pointwise", "degeneracy_dim", "pointwise.degeneracy_dim"),
    ("cohomology", "twist_cohomology", "cohomology.twist"),
    ("cohomology", "stability_report", "cohomology.stability"),
    ("cohomology", "admissibility_check", "cohomology.admissibility"),
    ("pencil", "restrict", "pencil.restrict"),
    ("pencil", "line_status", "pencil.line_status"),
    ("pencil", "p1_cohomology", "pencil.p1_cohomology"),
    ("pencil", "splitting_type", "pencil.splitting_type"),
    ("pencil", "jump_size_rank2", "pencil.jump_size_rank2"),
    ("lines_scan", "jumping_scan", "lines_scan.jumping_scan"),
    ("lines_scan", "codim_evidence", "lines_scan.codim_evidence"),
    ("lines_scan", "sample_line", "lines_scan.sample_line"),
    ("cli", "main", "cli.main"),
)


def _by_field(base):
    def pick(args):
        return base + ("_fp" if args[0].field.kind == "Fp" else "_q")
    return pick


_PICK = {
    "exactlin.rank": _by_field("exactlin.rank"),
    "exactlin.kernel": _by_field("exactlin.kernel"),
}


class Tracer:
    """Spans and counters for one process; install() once, then read per job."""

    def __init__(self):
        self.stack = []            # frames: [name, child_s, path]
        self.stats = {}            # name -> [calls, self_s, cells, max_cells]
        self.counts = {}           # derived counters, e.g. pointwise.points_tried
        self.paths = {}            # "a;b;c" -> [calls, total_s]
        self.top_s = 0.0           # time inside spans with no traced parent
        self.line_ms = []          # per-line cost inside jumping_scan
        self.missing = []          # targets absent from this version of monadlab
        self._active = {"pointwise.degeneracy_dim": 0, "cohomology.twist": 0,
                        "lines_scan.jumping_scan": 0}
        self._line_mark = None

    # -- installation -------------------------------------------------------

    def install(self):
        loaded = [m for name, m in sorted(sys.modules.items())
                  if m is not None and (name == "monadlab" or name.startswith("monadlab."))]
        for mod_name, attr, span in TARGETS:
            owner = sys.modules.get("monadlab." + mod_name)
            if owner is None:
                if mod_name != "cli":       # only the CLI workload imports the CLI
                    self.missing.append(span)
                continue
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = meth
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(span)
                continue
            wrapped = self._wrap(span, fn)
            if cls_name:
                setattr(owner, attr, wrapped)
                continue
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)

    def _wrap(self, span, fn):
        clock = time.perf_counter
        stack = self.stack
        stats = self.stats
        paths = self.paths
        active = self._active
        pick = _PICK.get(span)
        after = _AFTER.get(span)
        tracer = self

        def traced(*args, **kwargs):
            name = pick(args) if pick else span
            path = stack[-1][2] + ";" + name if stack else name
            frame = [name, 0.0, path]
            stack.append(frame)
            if name in active:
                active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                stack.pop()
                if name in active:
                    active[name] -= 1
                st = stats.get(name)
                if st is None:
                    st = stats[name] = [0, 0.0, 0, 0]
                st[0] += 1
                st[1] += d - frame[1]
                if stack:
                    stack[-1][1] += d
                else:
                    tracer.top_s += d
                p = paths.get(path)
                if p is None:
                    p = paths[path] = [0, 0.0]
                p[0] += 1
                p[1] += d
            if after is not None:
                after(tracer, name, args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- reading --------------------------------------------------------------

    def bump(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def take(self):
        """Counters, times and path profile since the last take(); resets them."""
        flat = {}
        for name, (calls, self_s, cells, max_cells) in self.stats.items():
            flat[name + ".calls"] = calls
            flat[name + ".self_s"] = self_s
            if cells:
                flat[name + ".cells"] = cells
                flat[name + ".max_cells"] = max_cells
        flat.update(self.counts)
        out = {"flat": flat, "paths": self.paths.copy(), "top_s": self.top_s,
               "line_ms": self.line_ms[:]}
        self.stats.clear()
        self.counts.clear()
        self.paths.clear()
        self.line_ms.clear()
        self.top_s = 0.0
        return out


# -- per-span hooks: size counts and derived counters --------------------------


def _add_cells(tracer, name, cells):
    st = tracer.stats[name]
    st[2] += cells
    if cells > st[3]:
        st[3] = cells


def _after_rank(tracer, name, args, result):
    _add_cells(tracer, name, args[0].nrows * args[0].ncols)
    if tracer._active["cohomology.twist"]:
        tracer.bump("cohomology.twist_ranks")


def _after_mult_map(tracer, name, args, result):
    _add_cells(tracer, name, result.nrows * result.ncols)


def _after_at(tracer, name, args, result):
    if tracer._active["pointwise.degeneracy_dim"]:
        tracer.bump("pointwise.points_tried")


def _after_minor_gcd(tracer, name, args, result):
    if result[0] != "constant":
        tracer.bump("binforms.minor_gcd.nonconstant")


def _after_classify(tracer, name, args, result):
    if result.confidence == "exact":
        tracer.bump("pointwise.exact_verdicts")


def _after_sample_line(tracer, name, args, result):
    # A line of a scan starts when the scan samples it and ends when the
    # next one is sampled or the scan returns.
    if tracer._active["lines_scan.jumping_scan"]:
        now = time.perf_counter()
        if tracer._line_mark is not None:
            tracer.line_ms.append((now - tracer._line_mark) * 1e3)
        tracer._line_mark = now


def _after_scan(tracer, name, args, result):
    if tracer._line_mark is not None:
        tracer.line_ms.append((time.perf_counter() - tracer._line_mark) * 1e3)
        tracer._line_mark = None
    tracer.bump("lines_scan.lines", result.samples)
    tracer.bump("lines_scan.degenerate", result.degenerate)
    tracer.bump("lines_scan.jumping", result.jumping)


_AFTER = {
    "exactlin.rank": _after_rank,
    "exactlin.mult_map": _after_mult_map,
    "exactlin.at": _after_at,
    "binforms.minor_gcd": _after_minor_gcd,
    "pointwise.classify": _after_classify,
    "lines_scan.sample_line": _after_sample_line,
    "lines_scan.jumping_scan": _after_scan,
}
