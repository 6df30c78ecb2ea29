"""Command-line surface: one subcommand per pipeline, file-based and seeded.

Every subcommand is a pure function of its input file bytes and flags
(plus MONADLAB_PRIME, the default scan prime of jumping-scan, which every
command reads so that a bad value refuses each of them), so repeated runs
produce byte-identical output.  Exit codes: 0 success, 1 mathematical failure
(validation failure, classification refusal, unrepresentable dims),
2 usage errors and malformed input files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import cohomology, lines_scan, monad, pencil, pointwise
from .errors import MonadDecodeError, MonadLabError, ShapeMismatchError
from .exactlin import DEFAULT_PRIME, GF, field_from_name

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2


def _default_prime() -> int:
    raw = os.environ.get("MONADLAB_PRIME", "")
    try:
        return prime(raw) if raw else DEFAULT_PRIME
    except ValueError:
        raise ValueError(f"MONADLAB_PRIME must be an integer, got {raw!r}") from None
    except argparse.ArgumentTypeError:
        raise ValueError(f"MONADLAB_PRIME must be a prime, got {raw!r}") from None


# argparse names a flag's type in its messages ("invalid prime value: 'x'")
def prime(text: str) -> int:
    """argparse type of --prime: an int that is prime."""
    p = int(text)
    try:
        GF(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def primes(text: str) -> list[int]:
    """argparse type of --primes: comma-separated primes."""
    return [prime(part) for part in text.split(",")]


def index(text: str) -> int:
    """argparse type of --index: the index of a line that a scan draws."""
    i = int(text)
    if i < 0:
        raise argparse.ArgumentTypeError(f"{i} is negative; scans draw lines 0, 1, ...")
    return i


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


@contextlib.contextmanager
def _writing(path: str):
    """The text file at path, opened for writing; an OSError, such as a
    directory or a missing parent, is a usage error naming the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _emit(text: str, out_path: str | None):
    if out_path:
        with _writing(out_path) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_monad(path: str) -> monad.SpecialMonad:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise MonadDecodeError(f"cannot read {path}: {exc}") from exc
    return monad.decode(data)


def _parse_points(text: str, M) -> pencil.Line:
    try:
        parts = text.split(";")
        if len(parts) != 2:
            raise ValueError("expected two points separated by ';'")
        line = pencil.Line.from_points(M.field, *(part.split(",") for part in parts))
        pencil.check_line(M, line)
    except (ValueError, ZeroDivisionError, ShapeMismatchError) as exc:
        raise ValueError(f"bad --points {text!r}: {exc}") from exc
    return line


def _line_for(args, M) -> pencil.Line:
    if args.points:
        return _parse_points(args.points, M)
    return lines_scan.sample_line(args.seed, args.index, M.field, M.ambient_n)


# ---------------------------------------------------------------------------
# handlers


def _cmd_examples(args) -> int:
    M = monad.example_monad(args.name)
    _emit(monad.encode(M).decode("utf-8"), args.out)
    return EXIT_OK


def _cmd_generate(args) -> int:
    try:
        v, w, vp = (int(x) for x in args.dims.split(","))
    except ValueError as exc:
        raise ValueError(f"bad --dims {args.dims!r}: expected v,w,v'") from exc
    try:
        field = field_from_name(args.field)
    except MonadDecodeError as exc:
        raise ValueError(f"bad --field {args.field!r}: {exc}") from exc
    M = monad.random_monad(v, w, vp, seed=args.seed, field=field,
                           ambient_n=args.ambient)
    _emit(monad.encode(M).decode("utf-8"), args.out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    M = _load_monad(args.monad)
    report = monad.validate(M)
    if args.format == "json":
        _emit(_dump(report.to_json_obj()), args.out)
    else:
        lines = []
        for check in (report.composition, report.beta_surjective, report.alpha_injective):
            status = "ok" if check.passed else "FAIL"
            extra = f" [{check.confidence}]"
            if check.witness and not check.passed:
                extra += f" witness [{':'.join(check.witness)}]"
            lines.append(f"{check.name}: {status}{extra}")
        lines.append("verdict: " + ("valid monad" if report.overall else "NOT a monad"))
        _emit("\n".join(lines) + "\n", args.out)
    if not report.overall:
        for check in (report.composition, report.beta_surjective, report.alpha_injective):
            if not check.passed:
                msg = f"monadlab: {check.name} failed: {check.detail}"
                if check.witness:
                    msg += f" (witness [{':'.join(check.witness)}])"
                print(msg, file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _cmd_invariants(args) -> int:
    M = _load_monad(args.monad)
    inv = monad.invariants(M)
    if args.format == "json":
        _emit(_dump(inv.to_json_obj()), args.out)
    else:
        _emit(f"rank {inv.rank}, c1 = {inv.c1}, c2 = {inv.c2}, c3 = {inv.c3}\n",
              args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    M = _load_monad(args.monad)
    report = pointwise.classify(M)
    if args.format == "json":
        _emit(_dump(report.to_json_obj()), args.out)
    else:
        _emit(report.display + "\n", args.out)
    for warning in report.warnings:
        print(f"monadlab: warning: {warning}", file=sys.stderr)
    return EXIT_OK


def _cmd_cohomology(args) -> int:
    M = _load_monad(args.monad)
    table = cohomology.cohomology_table(M, args.kmin, args.kmax)
    if args.format == "csv":
        _emit(table.to_csv(), args.out)
    elif args.format == "json":
        _emit(_dump(table.to_json_obj()), args.out)
    else:
        _emit(table.to_markdown(), args.out)
    return EXIT_OK


def _cmd_admissible(args) -> int:
    M = _load_monad(args.monad)
    report = cohomology.admissibility_check(M, (args.kmin, args.kmax))
    _emit(_dump(report.to_json_obj()), args.out)
    if not report.passed:
        print(f"monadlab: admissibility violated at {report.violations}",
              file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def _cmd_stability(args) -> int:
    M = _load_monad(args.monad)
    report = cohomology.stability_report(M, pointwise.classify(M))
    _emit(_dump(report.to_json_obj()), args.out)
    return EXIT_OK


def _cmd_dualize(args) -> int:
    M = _load_monad(args.monad)
    _emit(monad.encode(monad.dualize(M)).decode("utf-8"), args.out)
    return EXIT_OK


def _cmd_dsum(args) -> int:
    M1 = _load_monad(args.left)
    M2 = _load_monad(args.right)
    _emit(monad.encode(monad.direct_sum(M1, M2)).decode("utf-8"), args.out)
    return EXIT_OK


def _pencil_obj(pc: pencil.PencilComplex, line: pencil.Line):
    f = pc.field
    def mat(m):
        return [[f.fmt(x) for x in row] for row in m.data]
    return {
        "field": f.name,
        "v": pc.v, "w": pc.w, "v_prime": pc.v_prime,
        "line": line.to_json_obj(),
        "A_s": mat(pc.A.coeffs[0]), "A_t": mat(pc.A.coeffs[1]),
        "B_s": mat(pc.B.coeffs[0]), "B_t": mat(pc.B.coeffs[1]),
    }


def _cmd_restrict(args) -> int:
    M = _load_monad(args.monad)
    line = _line_for(args, M)
    pc = pencil.restrict(M, line)
    _emit(_dump(_pencil_obj(pc, line)), args.out)
    return EXIT_OK


def _cmd_splitting(args) -> int:
    M = _load_monad(args.monad)
    line = _line_for(args, M)
    pc = pencil.restrict(M, line)
    status = pencil.line_status(pc)
    if not status.clean:
        obj = {"line": line.to_json_obj(), "status": "degenerate",
               "detail": status.to_json_obj()}
        _emit(_dump(obj), args.out)
        print(f"monadlab: {status.degenerate_map} map degenerates on this line; "
              "no splitting", file=sys.stderr)
        return EXIT_MATH
    parts = pencil.splitting_type(pc)
    lo, hi = -pc.v - 2, pc.v_prime + 2
    dims = {str(k): list(parts.dims[k]) for k in range(lo, hi + 1)}
    obj = {
        "line": line.to_json_obj(),
        "status": "clean",
        "splitting": list(parts),
        "trivial": parts.is_trivial,
        "twist_dims": dims,
    }
    if M.ambient_n == 3:
        obj["plucker"] = [M.field.fmt(x) for x in line.plucker()]
    _emit(_dump(obj), args.out)
    return EXIT_OK


def _cmd_jumping_scan(args) -> int:
    M = _load_monad(args.monad)
    if args.emit_lines:
        # opened before the scan, so an unwritable path costs no scan
        with _writing(args.emit_lines) as fh:
            report = lines_scan.jumping_scan(M, args.prime, args.samples, args.seed,
                                             keep_lines=True)
            for outcome in report.outcomes:
                fh.write(json.dumps(outcome.to_json_obj(), sort_keys=True) + "\n")
    else:
        report = lines_scan.jumping_scan(M, args.prime, args.samples, args.seed)
    _emit(_dump(report.to_json_obj()), args.out)
    if report.degenerate:
        print(f"monadlab: warning: {report.degenerate} of {report.samples} sampled "
              f"lines are degenerate mod {report.prime}; the reduction is not a "
              "monad at some points", file=sys.stderr)
    return EXIT_OK


def _cmd_codim_evidence(args) -> int:
    M = _load_monad(args.monad)
    report = lines_scan.codim_evidence(M, args.primes, args.samples, args.seed)
    if args.format == "csv":
        _emit(report.to_csv(), args.out)
    else:
        _emit(_dump(report.to_json_obj()), args.out)
    return EXIT_OK


def _cmd_uniformity(args) -> int:
    M = _load_monad(args.monad)
    report = lines_scan.uniformity_evidence(M, args.samples, args.seed)
    _emit(_dump(report.to_json_obj()), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_common(sp):
    sp.add_argument("--out", help="write output to this file instead of stdout")


COMMANDS = ("examples", "generate", "validate", "invariants", "classify", "cohomology",
            "admissible", "stability", "dualize", "dsum", "restrict", "splitting",
            "jumping-scan", "codim-evidence", "uniformity")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or of `command` alone."""
    # read whatever the command, so a bad MONADLAB_PRIME refuses every command
    env_prime = _default_prime()
    parser = argparse.ArgumentParser(
        prog="monadlab",
        description="Exact calculus for special monads on projective space.")
    # one subcommand alone still names them all in its usage line
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar=command and "{" + ",".join(COMMANDS) + "}")

    def add(name, func, help_text):
        if command not in (None, name):
            return None
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=func)
        return sp

    if sp := add("examples", _cmd_examples, "emit one of the built-in monads"):
        sp.add_argument("--name", required=True, choices=monad.EXAMPLE_NAMES)
        _add_common(sp)

    if sp := add("generate", _cmd_generate, "seeded random monad with given dims"):
        sp.add_argument("--dims", required=True, help="v,w,v'")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--field", default="Q", help='"Q" or "Fp:<p>"')
        sp.add_argument("--ambient", type=int, default=3, choices=(2, 3))
        _add_common(sp)

    if sp := add("validate", _cmd_validate, "check the monad conditions"):
        sp.add_argument("monad")
        sp.add_argument("--format", choices=("human", "json"), default="human")
        _add_common(sp)

    if sp := add("invariants", _cmd_invariants, "rank and Chern classes"):
        sp.add_argument("monad")
        sp.add_argument("--format", choices=("human", "json"), default="human")
        _add_common(sp)

    if sp := add("classify", _cmd_classify, "regularity of the cohomology sheaf"):
        sp.add_argument("monad")
        sp.add_argument("--format", choices=("human", "json"), default="human")
        _add_common(sp)

    if sp := add("cohomology", _cmd_cohomology, "twist cohomology table"):
        sp.add_argument("monad")
        sp.add_argument("--kmin", type=int, default=cohomology.DEFAULT_WINDOW[0])
        sp.add_argument("--kmax", type=int, default=cohomology.DEFAULT_WINDOW[1])
        sp.add_argument("--format", choices=("md", "csv", "json"), default="md")
        _add_common(sp)

    if sp := add("admissible", _cmd_admissible, "admissibility vanishing pattern"):
        sp.add_argument("monad")
        sp.add_argument("--kmin", type=int, default=cohomology.DEFAULT_WINDOW[0])
        sp.add_argument("--kmax", type=int, default=cohomology.DEFAULT_WINDOW[1])
        _add_common(sp)

    if sp := add("stability", _cmd_stability, "semistability/stability verdicts"):
        sp.add_argument("monad")
        _add_common(sp)

    if sp := add("dualize", _cmd_dualize, "dual monad (locally free only)"):
        sp.add_argument("monad")
        _add_common(sp)

    if sp := add("dsum", _cmd_dsum, "block-diagonal direct sum"):
        sp.add_argument("left")
        sp.add_argument("right")
        _add_common(sp)

    for name, func, help_text in (
        ("restrict", _cmd_restrict, "restrict the monad to a line"),
        ("splitting", _cmd_splitting, "splitting type on a line"),
    ):
        if sp := add(name, func, help_text):
            sp.add_argument("monad")
            sp.add_argument("--points", help="line as 'a0,a1,a2,a3;b0,b1,b2,b3'")
            sp.add_argument("--seed", type=int, default=0, help="seed for a sampled line")
            sp.add_argument("--index", type=index, default=0, help="index of the sampled line")
            _add_common(sp)

    if sp := add("jumping-scan", _cmd_jumping_scan, "jumping-line statistics mod p"):
        sp.add_argument("monad")
        sp.add_argument("--prime", type=prime, default=env_prime)
        sp.add_argument("--samples", type=int, default=2000)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--emit-lines", help="write one JSON line per sampled line")
        _add_common(sp)

    if sp := add("codim-evidence", _cmd_codim_evidence,
                 "jumping-fraction scaling across primes"):
        sp.add_argument("monad")
        sp.add_argument("--primes", type=primes, default="101,1009",
                        help="comma-separated primes")
        sp.add_argument("--samples", type=int, default=20000)
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        _add_common(sp)

    if sp := add("uniformity", _cmd_uniformity, "uniformity evidence from sampled lines"):
        sp.add_argument("monad")
        sp.add_argument("--samples", type=int, default=50)
        sp.add_argument("--seed", type=int, default=0)
        _add_common(sp)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(command).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except MonadDecodeError as exc:
        print(f"monadlab: bad input file: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"monadlab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MonadLabError as exc:
        print(f"monadlab: {exc}", file=sys.stderr)
        return EXIT_MATH


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
