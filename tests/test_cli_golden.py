"""Byte-golden CLI corpus: every report pinned by the hashes of its bytes.

Each case runs cli.main in process on one input and pins
sha256(stdout)[:16], sha256(stderr)[:16] and the exit code.  A change
that keeps every report byte-identical passes unchanged; a change to any
report, error text or exit code shows here, case by case.

The inputs are the three examples; a fractional copy of the locally-free
one (row 0 of alpha divided by 7, column 0 of beta multiplied by 7, an
isomorphic monad whose coefficients are not all integers); the random
monads (2,6,2) seed 0 and (2,8,2) seed 1 over Q; a (1,4,1) on P2; the
reduction mod 7 of (2,6,2) seed 3, which is not a monad; the
null-correlation monad on P5; copies of the P2 monad whose ambient_n is 8
or 2.0, or whose v and v_prime are true; alpha = 0 with
beta = (-y, x, z, w), which is not a monad either; a rank-3 reflexive
sheaf with c1 = 0 and no sections (test_cohomology's _reflexive_rank3);
and the reduction mod 5 of the torsion-free example summed with itself,
whose curve locus F_5 has too few hyperplanes to prove.  A command that
names {out} writes a file there; its bytes are pinned as a fourth digest.

The parser surface is pinned too: --help of the program and of each
subcommand, and its usage errors.  A command may start with NAME=value
words, set in the environment for that run alone, as in a shell.  Every
case runs with COLUMNS=80, the width argparse wraps its text to.  Python
3.13's argparse wraps the program's usage line differently, so the cases
that print it have their own digests there (GOLDEN_313).

To print the table for the current code and interpreter, or to check
every case without pytest (exit 1, naming each mismatch):

    PYTHONPATH=src python tests/test_cli_golden.py
    PYTHONPATH=src python tests/test_cli_golden.py --check
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

try:
    import pytest
except ImportError:  # the script form below runs without pytest
    def _keep(*args, **kwargs):
        return lambda fn: fn
    pytest = SimpleNamespace(fixture=_keep, mark=SimpleNamespace(parametrize=_keep))

from monadlab.cli import main
from monadlab.exactlin import QQ, forms_matrix
from monadlab.monad import (
    SpecialMonad,
    direct_sum,
    encode,
    example_monad,
    random_monad,
    to_prime_field,
)

# (name, argv with {name} standing for an input file) -> digests
CASES = [
    ("validate-tf", "validate {tf} --format json"),
    ("validate-lf", "validate {lf} --format json"),
    ("validate-rf", "validate {rf} --format json"),
    ("validate-lf7", "validate {lf7} --format json"),
    ("validate-s1", "validate {s1} --format json"),
    ("validate-p2", "validate {p2} --format json"),
    ("validate-bad7", "validate {bad7} --format json"),
    ("classify-tf", "classify {tf} --format json"),
    ("classify-lf", "classify {lf} --format json"),
    ("classify-rf", "classify {rf} --format json"),
    ("classify-lf7", "classify {lf7} --format json"),
    ("classify-s0", "classify {s0} --format json"),
    ("classify-p2", "classify {p2} --format json"),
    ("classify-bad7", "classify {bad7} --format json"),
    ("invariants-lf", "invariants {lf}"),
    ("invariants-lf7", "invariants {lf7}"),
    ("invariants-p2", "invariants {p2} --format json"),
    ("cohomology-lf", "cohomology {lf} --kmin -7 --kmax 3 --format json"),
    ("cohomology-lf7", "cohomology {lf7} --kmin -7 --kmax 3 --format json"),
    ("cohomology-s0", "cohomology {s0} --kmin -7 --kmax 3 --format json"),
    ("cohomology-p2", "cohomology {p2} --kmin -7 --kmax 3 --format json"),
    ("cohomology-bad7", "cohomology {bad7} --kmin -7 --kmax 3 --format json"),
    ("admissible-lf7", "admissible {lf7}"),
    ("admissible-s0", "admissible {s0}"),
    ("stability-lf7", "stability {lf7}"),
    ("stability-s0", "stability {s0}"),
    ("dualize-lf7", "dualize {lf7}"),
    ("dualize-tf", "dualize {tf}"),
    ("restrict-lf7", "restrict {lf7} --seed 3 --index 5"),
    ("restrict-s1", "restrict {s1} --points 1/2,0,1,0;0,3,0,-1/3"),
    ("splitting-lf7", "splitting {lf7} --seed 1 --index 2"),
    ("splitting-s1", "splitting {s1} --seed 3 --index 0"),
    ("splitting-p2", "splitting {p2} --seed 0 --index 4"),
    ("splitting-tf", "splitting {tf} --points 0,0,1,0;0,0,0,1"),
    ("jumping-lf7-101", "jumping-scan {lf7} --prime 101 --samples 300 --seed 2"),
    ("jumping-s1-101", "jumping-scan {s1} --prime 101 --samples 300"),
    ("jumping-s0-7", "jumping-scan {s0} --prime 7 --samples 300"),
    ("jumping-bad7-7", "jumping-scan {bad7} --prime 7 --samples 300"),
    ("emit-lf-101", "jumping-scan {lf} --prime 101 --samples 400 --seed 1 --emit-lines {out}"),
    ("emit-p2-7", "jumping-scan {p2} --prime 7 --samples 200 --seed 2 --emit-lines {out}"),
    ("emit-p2-13", "jumping-scan {p2} --prime 13 --samples 200 --seed 2 --emit-lines {out}"),
    ("restrict-lf-1999", "restrict {lf} --seed 4 --index 1999"),
    ("restrict-p2-1999", "restrict {p2} --seed 6 --index 1999"),
    ("splitting-s1-1999", "splitting {s1} --seed 4 --index 1999"),
    ("splitting-lf7-1999", "splitting {lf7} --seed 8 --index 1999"),
    ("uniformity-lf7", "uniformity {lf7} --samples 25"),
    ("uniformity-s0", "uniformity {s0} --samples 10 --seed 1"),
    ("codim-lf7", "codim-evidence {lf7} --primes 101,103 --samples 300 --format csv"),
    ("generate-q", "generate --dims 2,6,2 --seed 0"),
    ("generate-f7", "generate --dims 2,6,2 --seed 3 --field Fp:7"),
    ("generate-p2", "generate --dims 1,4,1 --seed 0 --ambient 2"),
    ("help", "--help"),
    *((f"help-{cmd}", f"{cmd} --help") for cmd in (
        "examples", "generate", "validate", "invariants", "classify", "cohomology",
        "admissible", "stability", "dualize", "dsum", "restrict", "splitting",
        "jumping-scan", "codim-evidence", "uniformity")),
    ("unknown-command", "frobnicate {lf}"),
    ("no-command", ""),
    ("classify-unknown-flag", "classify {lf} --frobnicate"),
    ("cohomology-bad-kmin", "cohomology {lf} --kmin x"),
    ("badprime-validate", "MONADLAB_PRIME=abc validate {lf}"),
    ("badprime-help", "MONADLAB_PRIME=abc --help"),
    ("badprime-jumping", "MONADLAB_PRIME=abc jumping-scan {lf} --samples 20"),
    ("validate-p5", "validate {p5} --format json"),
    ("cohomology-p5", "cohomology {p5} --kmin -8 --kmax 2 --format json"),
    ("splitting-p5", "splitting {p5} --seed 1"),
    ("dsum-p5", "dsum {p5} {p5}"),
    ("invariants-p5", "invariants {p5}"),
    ("classify-p5", "classify {p5}"),
    ("admissible-p5", "admissible {p5}"),
    ("stability-p5", "stability {p5}"),
    ("jumping-p5", "jumping-scan {p5} --prime 101 --samples 20"),
    ("validate-n8", "validate {n8}"),
    ("validate-f2", "validate {f2}"),
    ("generate-p2-031", "generate --dims 0,3,1 --ambient 2"),
    ("cohomology-a0", "cohomology {a0}"),
    ("validate-t1", "validate {t1}"),
    ("stability-r3", "stability {r3}"),
    ("dualize-p5", "dualize {p5}"),
    ("dualize-tf2f5", "dualize {tf2f5}"),
    ("stability-tf2f5", "stability {tf2f5}"),
]

GOLDEN = {
    'validate-tf': ('fcba5a26adf321fb', 'e3b0c44298fc1c14', 0),
    'validate-lf': ('fcba5a26adf321fb', 'e3b0c44298fc1c14', 0),
    'validate-rf': ('ac4e6b34dfa86bf4', 'e3b0c44298fc1c14', 0),
    'validate-lf7': ('fcba5a26adf321fb', 'e3b0c44298fc1c14', 0),
    'validate-s1': ('465459194b50849a', 'e3b0c44298fc1c14', 0),
    'validate-p2': ('4904a063a53a3f0a', 'e3b0c44298fc1c14', 0),
    'validate-bad7': ('1326c61dd4d8305b', '215a89ae203e36e9', 1),
    'classify-tf': ('756b7ecf269d4363', 'e3b0c44298fc1c14', 0),
    'classify-lf': ('684866d13532789c', 'e3b0c44298fc1c14', 0),
    'classify-rf': ('17c1170bb76faa97', 'e3b0c44298fc1c14', 0),
    'classify-lf7': ('684866d13532789c', 'e3b0c44298fc1c14', 0),
    'classify-s0': ('d71643b2f93610b2', 'e3b0c44298fc1c14', 0),
    'classify-p2': ('684866d13532789c', 'e3b0c44298fc1c14', 0),
    'classify-bad7': ('3971c34a450660d9', 'e3b0c44298fc1c14', 0),
    'invariants-lf': ('5b7f3e9cf910f541', 'e3b0c44298fc1c14', 0),
    'invariants-lf7': ('5b7f3e9cf910f541', 'e3b0c44298fc1c14', 0),
    'invariants-p2': ('75849dfdff052e6e', 'e3b0c44298fc1c14', 0),
    'cohomology-lf': ('a29546192fc3d59f', 'e3b0c44298fc1c14', 0),
    'cohomology-lf7': ('a29546192fc3d59f', 'e3b0c44298fc1c14', 0),
    'cohomology-s0': ('7ebd41b7c7816970', 'e3b0c44298fc1c14', 0),
    'cohomology-p2': ('878c2fea8a1b52d1', 'e3b0c44298fc1c14', 0),
    'cohomology-bad7': ('e3b0c44298fc1c14', '50fe74f186ecaecb', 1),
    'admissible-lf7': ('75fcbad593c3935c', 'e3b0c44298fc1c14', 0),
    'admissible-s0': ('75fcbad593c3935c', 'e3b0c44298fc1c14', 0),
    'stability-lf7': ('695c2db28ffbf816', 'e3b0c44298fc1c14', 0),
    'stability-s0': ('695c2db28ffbf816', 'e3b0c44298fc1c14', 0),
    'dualize-lf7': ('4da6b2168cfca463', 'e3b0c44298fc1c14', 0),
    'dualize-tf': ('e3b0c44298fc1c14', '940f3740017266d5', 1),
    'restrict-lf7': ('afeb5b8845cf188d', 'e3b0c44298fc1c14', 0),
    'restrict-s1': ('a5224f2469ce6399', 'e3b0c44298fc1c14', 0),
    'splitting-lf7': ('fab9c6ed09af4a81', 'e3b0c44298fc1c14', 0),
    'splitting-s1': ('de656ed0c6f125f0', 'e3b0c44298fc1c14', 0),
    'splitting-p2': ('efae8e6e841d5608', 'e3b0c44298fc1c14', 0),
    'splitting-tf': ('60fe61fa36fdaab9', '10f03ce4c62559ee', 1),
    'jumping-lf7-101': ('754da97ae7671633', 'e3b0c44298fc1c14', 0),
    'jumping-s1-101': ('92cfa40752e4f36a', 'e3b0c44298fc1c14', 0),
    'jumping-s0-7': ('d2f2dce3a8ec161d', '4784eaca0510e919', 0),
    'jumping-bad7-7': ('c320845bba8aa24f', 'c80c1d5a37a903f3', 0),
    'emit-lf-101': ('83f37fd6dd396d87', 'e3b0c44298fc1c14', 0, '41d86414fefa546b'),
    'emit-p2-7': ('5ee0cdc6a33964c9', 'a56d84933074c5b7', 0, '926176ae92c7574f'),
    'emit-p2-13': ('4e80848e45b2d9f8', 'e3b0c44298fc1c14', 0, 'f9ad58ab77931324'),
    'restrict-lf-1999': ('4613b16c7238adf5', 'e3b0c44298fc1c14', 0),
    'restrict-p2-1999': ('69b9473177bcbbd8', 'e3b0c44298fc1c14', 0),
    'splitting-s1-1999': ('86e3ef2a614a7579', 'e3b0c44298fc1c14', 0),
    'splitting-lf7-1999': ('885e7d4b679f2b13', 'e3b0c44298fc1c14', 0),
    'uniformity-lf7': ('7062a9c0bb5e2641', 'e3b0c44298fc1c14', 0),
    'uniformity-s0': ('70006983edec8105', 'e3b0c44298fc1c14', 0),
    'codim-lf7': ('191a44f7d371156f', 'e3b0c44298fc1c14', 0),
    'generate-q': ('61908cb0755e57f7', 'e3b0c44298fc1c14', 0),
    'generate-f7': ('23a38a33cec72a7e', 'e3b0c44298fc1c14', 0),
    'generate-p2': ('336f088271591b1e', 'e3b0c44298fc1c14', 0),
    'help': ('9c91a4e2f20529d4', 'e3b0c44298fc1c14', 0),
    'help-examples': ('c9084352015c7c42', 'e3b0c44298fc1c14', 0),
    'help-generate': ('cf4a8314d2eecf0d', 'e3b0c44298fc1c14', 0),
    'help-validate': ('0cbdb23f23454291', 'e3b0c44298fc1c14', 0),
    'help-invariants': ('5f25d7d577a3adda', 'e3b0c44298fc1c14', 0),
    'help-classify': ('808f03dd5e3c09a5', 'e3b0c44298fc1c14', 0),
    'help-cohomology': ('a50294dc262ce9f7', 'e3b0c44298fc1c14', 0),
    'help-admissible': ('dfc06cfe0d25b61f', 'e3b0c44298fc1c14', 0),
    'help-stability': ('540c5395b2b6c5b9', 'e3b0c44298fc1c14', 0),
    'help-dualize': ('767df3ff22de75a0', 'e3b0c44298fc1c14', 0),
    'help-dsum': ('292516f7f49680bb', 'e3b0c44298fc1c14', 0),
    'help-restrict': ('f32bd97f7be3aec9', 'e3b0c44298fc1c14', 0),
    'help-splitting': ('493c86eb4bdef803', 'e3b0c44298fc1c14', 0),
    'help-jumping-scan': ('fb47d013e6dd4e19', 'e3b0c44298fc1c14', 0),
    'help-codim-evidence': ('9f0287a58dd97f87', 'e3b0c44298fc1c14', 0),
    'help-uniformity': ('1530c0dc334064bf', 'e3b0c44298fc1c14', 0),
    'unknown-command': ('e3b0c44298fc1c14', 'baad3dbfcf7b2906', 2),
    'no-command': ('e3b0c44298fc1c14', 'f0011d63a69ce633', 2),
    'classify-unknown-flag': ('e3b0c44298fc1c14', 'f0ab3db6f3db051c', 2),
    'cohomology-bad-kmin': ('e3b0c44298fc1c14', '82c1430f8df513d6', 2),
    'badprime-validate': ('e3b0c44298fc1c14', '53d7023d94f82750', 2),
    'badprime-help': ('e3b0c44298fc1c14', '53d7023d94f82750', 2),
    'badprime-jumping': ('e3b0c44298fc1c14', '53d7023d94f82750', 2),
    'validate-p5': ('1c66fb6d5a6d70d7', 'e3b0c44298fc1c14', 0),
    'cohomology-p5': ('1ce1878df349ce93', 'e3b0c44298fc1c14', 0),
    'splitting-p5': ('56e38dc0c8f8c324', 'e3b0c44298fc1c14', 0),
    'dsum-p5': ('70b1a7b85b3f41d3', 'e3b0c44298fc1c14', 0),
    'invariants-p5': ('e3b0c44298fc1c14', '75318a1c81c46d2b', 2),
    'classify-p5': ('e3b0c44298fc1c14', '853fc4f591f1f35c', 2),
    'admissible-p5': ('e3b0c44298fc1c14', '5624936db43604d7', 2),
    'stability-p5': ('e3b0c44298fc1c14', '75318a1c81c46d2b', 2),
    'jumping-p5': ('e3b0c44298fc1c14', '75318a1c81c46d2b', 2),
    'validate-n8': ('e3b0c44298fc1c14', '72094a7bf540a66f', 2),
    'validate-f2': ('e3b0c44298fc1c14', '72094a7bf540a66f', 2),
    'generate-p2-031': ('e3c3a58e0a51ff48', 'e3b0c44298fc1c14', 0),
    'cohomology-a0': ('e3b0c44298fc1c14', 'b3c8199b078e8999', 1),
    'validate-t1': ('e3b0c44298fc1c14', 'ba5952e805178d4c', 2),
    'stability-r3': ('8f184b69d21f1c0c', 'e3b0c44298fc1c14', 0),
    'dualize-p5': ('9e51c50cf4fa65f9', 'e3b0c44298fc1c14', 0),
    'dualize-tf2f5': ('e3b0c44298fc1c14', 'a15108bb80ea113d', 1),
    'stability-tf2f5': ('55e55b27d8a25126', 'e3b0c44298fc1c14', 0),
}

# Python 3.13's argparse wraps the program's usage line differently
GOLDEN_313 = {
    'help': ('854c8b30673f3435', 'e3b0c44298fc1c14', 0),
    'unknown-command': ('e3b0c44298fc1c14', '0996a06aa8c954ed', 2),
    'no-command': ('e3b0c44298fc1c14', 'd8e5c38e6f593bcf', 2),
    'classify-unknown-flag': ('e3b0c44298fc1c14', 'c8681c219774ca99', 2),
}


def _fractional_lf() -> bytes:
    obj = json.loads(encode(example_monad("locally-free")))
    for coeffs in obj["alpha"]:
        coeffs[0][0] = str(Fraction(coeffs[0][0]) / 7)
    for coeffs in obj["beta"]:
        coeffs[0][0] = str(Fraction(coeffs[0][0]) * 7)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _with(data: bytes, **keys) -> bytes:
    obj = json.loads(data)
    obj.update(keys)
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def write_inputs(directory) -> dict:
    p2 = encode(random_monad(1, 4, 1, seed=0, ambient_n=2))
    p5 = SpecialMonad(5, forms_matrix(QQ, 6, [["x0"], ["x1"], ["x2"], ["x3"], ["x4"], ["x5"]]),
                      forms_matrix(QQ, 6, [["-x1", "x0", "-x3", "x2", "-x5", "x4"]]))
    a0 = SpecialMonad(3, forms_matrix(QQ, 4, [["0"], ["0"], ["0"], ["0"]]),
                      forms_matrix(QQ, 4, [["-y", "x", "z", "w"]]))
    r3 = SpecialMonad(3, forms_matrix(QQ, 4, [["x", "0"], ["y", "0"], ["z", "0"], ["0", "x"],
                                              ["0", "y"], ["0", "z"], ["w", "w"]]),
                      forms_matrix(QQ, 4, [
                          ["-y + 2*z - w", "x", "-2*x - w", "-y - 2*z - w", "x - z",
                           "2*x + y - w", "x + z"],
                          ["z + w", "-2*z + 2*w", "-x + 2*y - 2*w", "-2*y + z + w",
                           "2*x + 2*w", "-x - 2*w", "-x - 2*y + 2*z"]]))
    monads = {
        "tf": encode(example_monad("torsion-free")),
        "rf": encode(example_monad("reflexive")),
        "lf": encode(example_monad("locally-free")),
        "lf7": _fractional_lf(),
        "s0": encode(random_monad(2, 6, 2, seed=0)),
        "s1": encode(random_monad(2, 8, 2, seed=1)),
        "p2": p2,
        "bad7": encode(to_prime_field(random_monad(2, 6, 2, seed=3), 7)),
        "p5": encode(p5),
        "n8": _with(p2, ambient_n=8),
        "f2": _with(p2, ambient_n=2.0),
        "a0": encode(a0),
        "t1": _with(p2, v=True, v_prime=True),
        "r3": encode(r3),
        "tf2f5": encode(to_prime_field(direct_sum(example_monad("torsion-free"),
                                                  example_monad("torsion-free")), 5)),
    }
    paths = {}
    for name, data in monads.items():
        path = directory / f"{name}.json"
        path.write_bytes(data)
        paths[name] = str(path)
    paths["out"] = str(directory / "out.txt")
    return paths


def run_case(command: str, paths: dict):
    argv = [part.format(**paths) for part in command.split()]
    if os.path.exists(paths["out"]):
        os.remove(paths["out"])
    env = {"COLUMNS": "80"}
    while argv and "=" in argv[0]:
        key, value = argv.pop(0).split("=", 1)
        env[key] = value
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    def digest(text):
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
    result = (digest(out.getvalue()), digest(err.getvalue()), code)
    if "{out}" in command:
        with open(paths["out"], encoding="utf-8") as fh:
            result += (digest(fh.read()),)
    return result


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden"))


def expected(name: str):
    if sys.version_info >= (3, 13) and name in GOLDEN_313:
        return GOLDEN_313[name]
    return GOLDEN[name]


@pytest.mark.parametrize("name,command", CASES, ids=[c[0] for c in CASES])
def test_cli_bytes_are_pinned(name, command, paths):
    assert run_case(command, paths) == expected(name)


def test_the_inputs_are_the_described_monads(paths):
    from monadlab.monad import decode
    with open(paths["lf7"], "rb") as fh:
        lf7 = decode(fh.read())
    assert lf7.alpha.coeffs[0].data[0][0] == Fraction(1, 7)
    assert lf7.beta.coeffs[1].data[0][0] == -7


def _script(check: bool) -> int:
    import pathlib
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        ps = write_inputs(pathlib.Path(tmp))
        got = {name: run_case(command, ps) for name, command in CASES}
    if not check:
        sys.stdout.write("GOLDEN = {\n")
        for name, digests in got.items():
            sys.stdout.write(f"    {name!r}: {digests!r},\n")
        sys.stdout.write("}\n")
        return 0
    bad = [name for name in got if got[name] != expected(name)]
    for name in bad:
        print(f"mismatch: {name}: got {got[name]}, pinned {expected(name)}")
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"{len(got) - len(bad)} of {len(got)} cases match on Python {version}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_script("--check" in sys.argv[1:]))
