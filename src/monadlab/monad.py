"""Special monads on projective space and their basic calculus.

A special monad is a three-term complex

    O(-1)^v --alpha--> O^w --beta--> O(1)^v'

on P^n (2 <= n <= MAX_N) whose left map is injective as a sheaf map and whose
right map is surjective at every point.  The middle cohomology is a
coherent sheaf; everything this package computes is a function of the
dimension triple (v, w, v') and the two matrices of linear forms.

This module owns the data model: construction, validation, Chern
invariants, the built-in example monads, direct sums, duals, a seeded
random generator (sample-and-verify) and the JSON wire format.  Each of
the three conditions is decided exactly, over the algebraic closure and on
every field: the composite is an identity of quadrics, and each map's
condition is one rank of a multiplication map (exactlin.onto_everywhere,
exactlin.generically_injective).
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from . import exactlin
from ._record import Record
from ._seeds import rng_for
from .errors import (
    MonadDecodeError,
    MonadLabError,
    NotLocallyFreeError,
    NotRepresentableError,
    RetryExhaustedError,
    ShapeMismatchError,
)
from .exactlin import (
    GF,
    QQ,
    DenseMatrix,
    LinearFormMatrix,
    forms_matrix,
)

COEFF_BOUND = 9          # generator coefficient box [-9, 9]
GENERATOR_RETRIES = 200
MAX_N = 7                # largest ambient dimension P^n a monad may live on

EXAMPLE_NAMES = ("torsion-free", "reflexive", "locally-free")


def _check_ambient(ambient_n) -> None:
    """Refuse an ambient dimension that is not an int from 2 to MAX_N."""
    if type(ambient_n) is not int or not 2 <= ambient_n <= MAX_N:
        raise ShapeMismatchError(f"ambient dimension must be 2 to {MAX_N}, got {ambient_n!r}")


class SpecialMonad:
    """A special monad; immutable."""

    __slots__ = ("ambient_n", "v", "w", "v_prime", "alpha", "beta", "field")

    def __init__(self, ambient_n: int, alpha: LinearFormMatrix, beta: LinearFormMatrix):
        _check_ambient(ambient_n)
        nvars = ambient_n + 1
        if alpha.nvars != nvars or beta.nvars != nvars:
            raise ShapeMismatchError("maps must use one linear form per homogeneous coordinate")
        if alpha.field != beta.field:
            raise ShapeMismatchError("alpha and beta live over different fields")
        if beta.ncols != alpha.nrows:
            raise ShapeMismatchError(
                f"middle dimension mismatch: beta has {beta.ncols} columns, "
                f"alpha has {alpha.nrows} rows"
            )
        self.ambient_n = ambient_n
        self.alpha = alpha
        self.beta = beta
        self.field = alpha.field
        self.v = alpha.ncols
        self.w = alpha.nrows
        self.v_prime = beta.nrows

    def dims(self) -> tuple[int, int, int]:
        return (self.v, self.w, self.v_prime)

    @property
    def monad_id(self) -> str:
        return hashlib.sha256(encode(self)).hexdigest()[:12]

    def __eq__(self, other):
        return (
            isinstance(other, SpecialMonad)
            and self.ambient_n == other.ambient_n
            and self.field == other.field
            and self.alpha == other.alpha
            and self.beta == other.beta
        )

    def __repr__(self):
        return (f"SpecialMonad(P{self.ambient_n}, v={self.v}, w={self.w}, "
                f"v'={self.v_prime}, {self.field!r})")


def special_monad_exists(v: int, w: int, v_prime: int, ambient_n: int = 3) -> bool:
    """Existence criterion (Floystad) for dimensions of a special monad on P^n.

    Implemented verbatim, including its asymmetry in v and v'.
    """
    if min(v, w, v_prime) < 0:
        raise ValueError("dimensions must be non-negative")
    n = ambient_n
    return (w >= 2 * v_prime + n - 1 and w >= v + v_prime) or (w >= v + v_prime + n)


# ---------------------------------------------------------------------------
# built-in examples


def example_monad(name: str) -> SpecialMonad:
    """One of the three built-in monads on P3, by regularity class.

    Names: "torsion-free", "reflexive", "locally-free".  All three have
    (c1, c2, c3) = (0, 1, 0); they differ in where the left map degenerates
    (a line, a point, nowhere).
    """
    if name == "torsion-free":
        alpha = forms_matrix(QQ, 4, [["x"], ["y"], ["0"], ["0"]])
        beta = forms_matrix(QQ, 4, [["-y", "x", "z", "w"]])
    elif name == "reflexive":
        alpha = forms_matrix(QQ, 4, [["x"], ["y"], ["0"], ["0"], ["z"]])
        beta = forms_matrix(QQ, 4, [["-y", "x", "z", "w", "0"]])
    elif name == "locally-free":
        alpha = forms_matrix(QQ, 4, [["x"], ["y"], ["-w"], ["z"]])
        beta = forms_matrix(QQ, 4, [["-y", "x", "z", "w"]])
    else:
        raise ValueError(f"unknown example {name!r}; expected one of {EXAMPLE_NAMES}")
    return SpecialMonad(3, alpha, beta)


def trivial_monad(w: int, ambient_n: int = 3, field=QQ) -> SpecialMonad:
    """The monad (0, w, 0) with empty maps; its cohomology is O^w."""
    if w < 0:
        raise ValueError("w must be non-negative")
    _check_ambient(ambient_n)
    nvars = ambient_n + 1
    alpha = LinearFormMatrix.zeros(field, w, 0, nvars)
    beta = LinearFormMatrix.zeros(field, 0, w, nvars)
    return SpecialMonad(ambient_n, alpha, beta)


# ---------------------------------------------------------------------------
# Chern invariants


class ChernData(Record):
    """Rank and Chern data of the cohomology sheaf on P2 or P3, determined by
    (v, w, v'); immutable."""

    # ch3 and c3 are None on P2; invariants refuses n > 3
    __slots__ = ("rank", "c1", "ch2", "c2", "ch3", "c3")
    defaults = {"ch3": None, "c3": None}

    def to_json_obj(self):
        return {
            "rank": self.rank,
            "c1": self.c1,
            "c2": self.c2,
            "c3": self.c3,
            "ch2": QQ.fmt(self.ch2),
            "ch3": None if self.ch3 is None else QQ.fmt(self.ch3),
        }


def invariants(M: SpecialMonad) -> ChernData:
    """Chern data from ch(E) = w - v*ch(O(-1)) - v'*ch(O(1)), on P2 and P3."""
    if M.ambient_n > 3:
        raise ValueError(f"Chern data stop at c3: invariants need P2 or P3, not P{M.ambient_n}")
    v, w, vp = M.dims()
    r = w - v - vp
    if r < 0:
        raise MonadLabError(f"negative rank {r}: dims ({v}, {w}, {vp}) are not a monad's")
    c1 = v - vp
    ch2 = Fraction(-(v + vp), 2)
    c2_frac = Fraction(c1 * c1, 2) - ch2
    assert c2_frac.denominator == 1
    c2 = int(c2_frac)
    if M.ambient_n == 2:
        return ChernData(rank=r, c1=c1, ch2=ch2, c2=c2)
    ch3 = Fraction(v - vp, 6)
    c3_frac = (6 * ch3 - c1 ** 3 + 3 * c1 * c2) / 3
    assert c3_frac.denominator == 1
    return ChernData(rank=r, c1=c1, ch2=ch2, c2=c2, ch3=ch3, c3=int(c3_frac))


# ---------------------------------------------------------------------------
# validation


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail", "witness")
    defaults = {"detail": "", "witness": None}
    confidence = "exact"                 # every check is decided exactly

    def to_json_obj(self):
        return {"name": self.name, "passed": self.passed, "confidence": self.confidence,
                "detail": self.detail, "witness": self.witness}


class ValidationReport(Record):
    __slots__ = ("composition", "beta_surjective", "alpha_injective", "rank_zero", "notes")
    defaults = {"notes": list}

    @property
    def overall(self) -> bool:
        return (self.composition.passed and self.beta_surjective.passed
                and self.alpha_injective.passed)

    def to_json_obj(self):
        return {
            "overall": self.overall,
            "checks": [c.to_json_obj() for c in
                       (self.composition, self.beta_surjective, self.alpha_injective)],
            "rank_zero": self.rank_zero,
            "notes": self.notes,
        }


def fmt_point(field, point) -> list[str]:
    return [field.fmt(x) for x in point]


def random_point(rng, field, nvars: int):
    """A random nonzero vector: residues over F_p, the coefficient box over Q
    (drawn as low + randrange(n), which is how CPython draws randint)."""
    n, low = (field.p, 0) if field.kind == "Fp" else (2 * COEFF_BOUND + 1, -COEFF_BOUND)
    while True:
        pt = [low + rng.randrange(n) for _ in range(nvars)]
        if any(pt):
            return pt


def _check_beta_surjective(M: SpecialMonad) -> CheckResult:
    vp = M.v_prime
    n = M.ambient_n
    name = "beta_surjective"
    if vp == 0:
        return CheckResult(name, True, "no conditions (v' = 0)")
    if vp == 1:
        # a single row: its common zero locus is a linear subspace, and a
        # failure names one of its points
        basis = exactlin.linear_locus(M.beta)
        r = n + 1 - len(basis)
        if not basis:
            return CheckResult(name, True, f"coefficient rank {r} = n+1, no common zero")
        return CheckResult(name, False,
                           f"coefficient rank {r} < {n + 1}: common zero locus "
                           f"of dimension {n - r}",
                           witness=fmt_point(M.field, basis[0]))
    proof = exactlin.onto_everywhere(M.beta)
    if proof.full:
        return CheckResult(name, True, f"onto at every point: {proof}")
    return CheckResult(name, False,
                       f"rank drop at a point over the algebraic closure of "
                       f"{M.field.name}: {proof}")


def _check_alpha_injective(M: SpecialMonad) -> CheckResult:
    v = M.v
    name = "alpha_injective"
    if v == 0:
        return CheckResult(name, True, "empty left map")
    # one cheap try first: full column rank at a point proves injectivity
    pt = random_point(rng_for("validate-alpha", 0, M.w, M.v), M.field, M.ambient_n + 1)
    if M.alpha.at(pt).rank() == v:
        return CheckResult(name, True, "full column rank at a sampled point",
                           witness=fmt_point(M.field, pt))
    proof = exactlin.generically_injective(M.alpha)
    if proof.full:
        return CheckResult(name, True, f"injective as a sheaf map: {proof}")
    return CheckResult(name, False, f"all maximal minors vanish identically: {proof}")


def validate(M: SpecialMonad) -> ValidationReport:
    """Check the three monad conditions; every verdict is exact.

    Composition is an identity of quadrics.  The right map is onto at every
    point, over the algebraic closure, iff one rank is full
    (exactlin.onto_everywhere); for a single row that rank is the
    coefficient rank, and a failure names a common zero.  The left map is
    injective as a sheaf map iff one rank is full
    (exactlin.generically_injective); a point where it has full column rank
    proves the same at less cost, so one seeded point is tried first and
    named as the witness when it succeeds.  Neither rank depends on the
    size of the field.
    """
    comp_ok = exactlin.compose_check(M.beta, M.alpha)
    composition = CheckResult("composition_zero", comp_ok,
                              "" if comp_ok else "beta*alpha has a nonzero quadric entry")
    beta_check = _check_beta_surjective(M)
    alpha_check = _check_alpha_injective(M)
    rank_zero = (M.w == M.v + M.v_prime)
    notes = []
    if rank_zero:
        notes.append("rank-0 monad: cohomology sheaf has rank 0")
    return ValidationReport(composition, beta_check, alpha_check, rank_zero, notes)


# ---------------------------------------------------------------------------
# constructions


def direct_sum(M1: SpecialMonad, M2: SpecialMonad) -> SpecialMonad:
    """Block-diagonal sum; dimensions add and Chern characters add."""
    if M1.ambient_n != M2.ambient_n:
        raise ShapeMismatchError("direct sum needs a common ambient space")
    if M1.field != M2.field:
        raise ShapeMismatchError("direct sum needs a common field")
    return SpecialMonad(M1.ambient_n,
                        M1.alpha.block_diag(M2.alpha),
                        M1.beta.block_diag(M2.beta))


def require_locally_free(M: SpecialMonad, what: str) -> None:
    """Refuse, naming `what`, unless the cohomology sheaf is locally free.

    It is iff alpha is injective at every point, on any P^n: one rank
    decides it (exactlin.onto_everywhere of alpha^T), and the
    NotLocallyFreeError names that rank when it falls short.
    """
    proof = exactlin.onto_everywhere(M.alpha.transpose())
    if not proof.full:
        raise NotLocallyFreeError(f"{what} requires a locally-free sheaf; the left map "
                                  f"drops rank at a point: {proof}")


def dualize(M: SpecialMonad) -> SpecialMonad:
    """The dual monad (v', w, v) with maps (beta^T, alpha^T), on any P^n.

    Only valid when the cohomology sheaf is locally free
    (require_locally_free).
    """
    require_locally_free(M, "dual monad")
    return SpecialMonad(M.ambient_n, M.beta.transpose(), M.alpha.transpose())


def to_prime_field(M: SpecialMonad, p: int) -> SpecialMonad:
    """Reduce a monad mod p; refuses when a denominator vanishes mod p."""
    fp = GF(p)
    if M.field == fp:
        return M
    if M.field.kind == "Fp":
        raise MonadLabError(f"cannot move a monad from {M.field.name} to Fp:{p}")
    try:
        return SpecialMonad(M.ambient_n, M.alpha.to_field(fp), M.beta.to_field(fp))
    except ZeroDivisionError as exc:
        raise MonadLabError(f"cannot reduce monad mod {p}: {exc}") from exc


def _random_forms(field, nrows: int, ncols: int, nvars: int, rng) -> LinearFormMatrix:
    out = LinearFormMatrix.zeros(field, nrows, ncols, nvars)
    for t in range(nvars):
        for i in range(nrows):
            for j in range(ncols):
                out.coeffs[t].data[i][j] = field.coerce(
                    rng.randint(-COEFF_BOUND, COEFF_BOUND))
    return out


def random_monad(v: int, w: int, v_prime: int, seed: int = 0, field=QQ,
                 ambient_n: int = 3) -> SpecialMonad:
    """Seeded random monad with the given dimensions.

    Draws one map with small random integer coefficients and the other
    from the solution space of the (linear) vanishing-composite
    constraint, then retries until validate() passes.  The drawn side is
    the one with the fewer constraints: the left map when v <= v', the
    right map otherwise (for v > v' a generic left map admits no nonzero
    right map at all).  Deterministic in (seed, dims, field).

    Known limit: dims that pass special_monad_exists may still never be
    drawn.  (1, 3, 1) on P2 exists, but a generic left map leaves every
    right map with a common zero, so it ends in RetryExhaustedError.
    """
    if min(v, w, v_prime) < 0:
        raise ValueError("dimensions must be non-negative")
    _check_ambient(ambient_n)
    if v == 0 and v_prime == 0:
        return trivial_monad(w, ambient_n, field)
    if not special_monad_exists(v, w, v_prime, ambient_n):
        raise NotRepresentableError(
            f"no special monad with (v, w, v') = ({v}, {w}, {v_prime})"
        )
    nvars = ambient_n + 1
    for attempt in range(GENERATOR_RETRIES):
        rng = rng_for("random-monad", seed, v, w, v_prime, field.name, attempt)
        if v_prime == 0 or v <= v_prime:
            alpha = _random_forms(field, w, v, nvars, rng)
            beta = _solve_beta(alpha, v_prime, rng)
        else:
            beta = _random_forms(field, v_prime, w, nvars, rng)
            # solve beta * alpha = 0 for alpha via the transposed system
            alpha_t = _solve_beta(beta.transpose(), v, rng)
            alpha = None if alpha_t is None else alpha_t.transpose()
        if beta is None or alpha is None:
            continue
        M = SpecialMonad(ambient_n, alpha, beta)
        if validate(M).overall:
            return M
    raise RetryExhaustedError(
        f"no valid monad with dims ({v}, {w}, {v_prime}) after {GENERATOR_RETRIES} draws"
    )


def _solve_beta(alpha: LinearFormMatrix, v_prime: int, rng) -> LinearFormMatrix | None:
    """Random beta with beta*alpha = 0; None when the solution space is trivial."""
    field = alpha.field
    w = alpha.nrows
    nvars = alpha.nvars
    if v_prime == 0:
        return LinearFormMatrix.zeros(field, 0, w, nvars)
    # Unknowns: one row u of beta.  mult_map(alpha^T, 1) maps u to the
    # quadric coefficients of u*alpha, taking the coefficient of x_t in u[l]
    # from its column l*nvars + t; laid out as t*w + l, the kernel is as before.
    nunk = nvars * w
    m = exactlin.mult_map(alpha.transpose(), 1)
    order = [l * nvars + t for t in range(nvars) for l in range(w)]
    constraints = DenseMatrix(field, m.nrows, nunk, [[row[c] for c in order] for row in m.data])
    kern = constraints.right_kernel()
    if kern.ncols == 0:
        return None
    beta = LinearFormMatrix.zeros(field, v_prime, w, nvars)
    for i in range(v_prime):
        for _ in range(8):
            combo = [0] * nunk
            for c in range(kern.ncols):
                coeff = rng.randint(-2, 2)
                if coeff == 0:
                    continue
                for r in range(nunk):
                    x = kern.data[r][c]
                    if x:
                        combo[r] += coeff * x
            field.reduce([combo])
            if any(combo):
                break
        for t in range(nvars):
            for l in range(w):
                beta.coeffs[t].data[i][l] = combo[t * w + l]
    return beta


# ---------------------------------------------------------------------------
# serialization (JSON wire format)


def _coeff_matrices_obj(L: LinearFormMatrix):
    field = L.field
    return [[[field.fmt(x) for x in row] for row in c.data] for c in L.coeffs]


def encode(M: SpecialMonad) -> bytes:
    """Canonical JSON bytes; decode(encode(M)) == M and encoding is stable."""
    obj = {
        "ambient_n": M.ambient_n,
        "field": M.field.name,
        "v": M.v,
        "w": M.w,
        "v_prime": M.v_prime,
        "alpha": _coeff_matrices_obj(M.alpha),
        "beta": _coeff_matrices_obj(M.beta),
    }
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode("utf-8")


def _require(cond: bool, message: str, position: str):
    if not cond:
        raise MonadDecodeError(message, position=position)


def _parse_map(obj, field, nvars: int, nrows: int, ncols: int, key: str) -> LinearFormMatrix:
    _require(isinstance(obj, list) and len(obj) == nvars,
             f"expected {nvars} coefficient matrices", key)
    mats = []
    for t, mat in enumerate(obj):
        _require(isinstance(mat, list) and len(mat) == nrows,
                 f"expected {nrows} rows", f"{key}[{t}]")
        rows = []
        for i, row in enumerate(mat):
            _require(isinstance(row, list) and len(row) == ncols,
                     f"expected {ncols} entries, got "
                     f"{len(row) if isinstance(row, list) else type(row).__name__}",
                     f"{key}[{t}][{i}]")
            parsed = []
            for j, cell in enumerate(row):
                _require(isinstance(cell, str), "scalar entries must be strings",
                         f"{key}[{t}][{i}][{j}]")
                try:
                    parsed.append(field.parse(cell))
                except MonadDecodeError as exc:
                    raise MonadDecodeError(str(exc), position=f"{key}[{t}][{i}][{j}]") from exc
            rows.append(parsed)
        mats.append(DenseMatrix(field, nrows, ncols, rows))
    return LinearFormMatrix(field, nrows, ncols, nvars, mats)


def decode(data: bytes | str) -> SpecialMonad:
    """Parse the JSON wire format, with position diagnostics on bad input."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MonadDecodeError(f"not UTF-8: {exc}") from exc
    try:
        obj = json.loads(data)
    except json.JSONDecodeError as exc:
        raise MonadDecodeError(f"invalid JSON: {exc.msg}",
                               position=f"line {exc.lineno} column {exc.colno}") from exc
    _require(isinstance(obj, dict), "top level must be an object", "$")
    for key in ("ambient_n", "field", "v", "w", "v_prime", "alpha", "beta"):
        _require(key in obj, f"missing key {key!r}", "$")
    n = obj["ambient_n"]
    _require(type(n) is int and 2 <= n <= MAX_N,
             f"ambient_n must be an integer from 2 to {MAX_N}", "ambient_n")
    _require(isinstance(obj["field"], str), "field must be a string", "field")
    field = exactlin.field_from_name(obj["field"])
    dims = {}
    for key in ("v", "w", "v_prime"):
        _require(type(obj[key]) is int and obj[key] >= 0,
                 f"{key} must be a non-negative integer", key)
        dims[key] = obj[key]
    alpha = _parse_map(obj["alpha"], field, n + 1, dims["w"], dims["v"], "alpha")
    beta = _parse_map(obj["beta"], field, n + 1, dims["v_prime"], dims["w"], "beta")
    return SpecialMonad(n, alpha, beta)
