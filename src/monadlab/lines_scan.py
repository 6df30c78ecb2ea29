"""Randomized exploration of the lines in projective space.

Jumping loci over Q have measure zero, so the only way to see them at
desk scale is to sample lines over finite fields and count.  Everything
here is seeded: line i of a scan is drawn from hash(seed, i), so serial
and parallel runs agree and reports are byte-identical across machines.
A scan draws its lines from one stream (_draws): one generator, reseeded
from hash(seed, i) for line i, that yields each line's points and
Plucker coordinates; sample_line(seed, i) is line i of that stream.

Every scan splits its lines through one path, _ScanContext.split_drawn,
set up once per scan on the scanned monad (alpha, beta).  Write alpha_i,
beta_i for the coefficient matrices of x_i.

- The monad is certified once (exactlin.certify), or refused: the
  composite beta alpha vanishes iff beta_i alpha_i = 0 for every i and
  beta_i alpha_j + beta_j alpha_i = 0 for every i < j.  jumping_scan and
  uniformity_evidence run in one exactlin._proofs() scope, so when the
  local-freeness check (monad.require_locally_free) has taken alpha^T's
  proof on the monad the scan splits, the certificate reads that verdict.
  jumping_scan and codim_evidence accept a classification= argument and
  ignore it; it stays only until the benchmark's worker stops passing it.
- The certificate's two proofs say that beta is onto at every point of
  P^n, and alpha^T too, that is alpha is injective at every point.  Both
  hold over the algebraic closure, so they prove every line clean: no line
  is checked on its own, and a restricted line takes the scan's
  certificate instead of proving its own.  If either fails (a bad
  reduction, or a sheaf that is not locally free), every line is
  restricted and checked by pencil.line_status: a line where either map
  drops rank somewhere is counted as degenerate, so a prime where the
  reduction is not a monad at some points only loses the lines through
  those points.  The composite vanishes on every line with the monad's,
  so such a line takes its pencil's two onto_everywhere proofs and no
  composite check.
- When c1 = 0 (v = v'), a clean line L through the points p0, p1 restricts
  to a monad on P1 whose one differential at twist -1 is
  J(L) = beta(p1) alpha(p0) (cohomology.complex_cohomology), so
  h^0(E|_L(-1)) = v - rank J(L).  The summand degrees a_i sum to 0, so
  h^0(E|_L(-1)) = sum max(0, a_i) vanishes iff the splitting is trivial:
  L jumps iff rank J(L) < v, in every rank (Barth 1977, Math. Ann. 226;
  Okonek-Schneider-Spindler, ch. II).  J(L) is linear in the Plucker
  coordinates pi_ij = p0_i p1_j - p0_j p1_i of L (Line.minors):

      beta(p1) alpha(p0) = sum_{i,j} p1_j p0_i beta_j alpha_i
                         = sum_{i<j} (p0_i p1_j - p0_j p1_i) beta_j alpha_i
                         = sum_{i<j} pi_ij beta_j alpha_i,

  because the terms i = j vanish by beta_i alpha_i = 0, and the term
  p1_i p0_j beta_i alpha_j of each pair i < j equals
  -p1_i p0_j beta_j alpha_i by beta_i alpha_j + beta_j alpha_i = 0.  The
  matrices beta_j alpha_i are formed once per scan (six on P3, three on
  P2), and each line costs one v x v rank.  On a certified scan a line
  with rank J(L) = v is counted as trivial from its Plucker coordinates
  alone: no Line is built for it unless the scan reports it (a witness,
  or an emitted line).
- Only a line where J(L) drops rank, and every line when c1 != 0, is
  restricted and split by pencil.splitting_type, which re-verifies the
  splitting against every twist it measures.

"Certified" is reserved for exact positive witnesses over Q (a trivial
splitting computed in exact arithmetic); every negative or statistical
statement carries its (prime, samples, seed).
"""

from __future__ import annotations

import math
import random
from itertools import chain, combinations, count, islice
from operator import mul

from ._record import Record
from ._seeds import seed_of_text
from .errors import MonadLabError
from .exactlin import GF, QQ, DenseMatrix, PrimeField, _echelon, _proofs, certify
from .monad import COEFF_BOUND, SpecialMonad, invariants, require_locally_free, to_prime_field
from .pencil import Line, check_line, line_status, restrict, splitting_type

MAX_SAMPLES = 10 ** 6
WITNESS_CAP = 32


def _draws(seed: int, field, ambient_n: int, start: int = 0):
    """The stream of a scan: (points, minors) of lines start, start+1, ...

    One generator, reseeded for line i as rng_for("line", seed, i,
    field.name) seeds its own, so line i is the same whichever line the
    stream starts at.  Each entry is the value of rng.randrange(p)
    over F_p and of rng.randint(-COEFF_BOUND, COEFF_BOUND) over Q, drawn as
    CPython draws a value below n: k = n.bit_length() random bits, drawn
    again while they reach n.  Proportional points are drawn again.  minors
    are the Plucker coordinates of the line, as in Line.minors.
    """
    rng = random.Random()
    # the C seed under Random.seed: for an int, Random.seed only adds a
    # type check and clears the gauss cache, which no draw here reads
    reseed, bits = super(random.Random, rng).seed, rng.getrandbits
    nvars = ambient_n + 1
    pairs = tuple(combinations(range(nvars), 2))
    p = field.p if field.kind == "Fp" else None
    n, low = (p, 0) if p else (2 * COEFF_BOUND + 1, -COEFF_BOUND)
    k = n.bit_length()
    for index in count(start):
        reseed(seed_of_text(f"line:{seed}:{index}:{field.name}"))
        while True:
            draws = []
            for _ in range(2 * nvars):
                r = bits(k)
                while r >= n:
                    r = bits(k)
                draws.append(low + r)
            a, b = draws[:nvars], draws[nvars:]
            if p:
                minors = [(a[i] * b[j] - a[j] * b[i]) % p for i, j in pairs]
            else:
                minors = [a[i] * b[j] - a[j] * b[i] for i, j in pairs]
            if any(minors):
                break
        yield (tuple(a), tuple(b)), tuple(minors)


def sample_line(seed: int, index: int, field, ambient_n: int = 3) -> Line:
    """Line `index` of the scan stream of (seed, field) in P^ambient_n.

    Deterministic and of rank 2 (_draws); the generator is reseeded once,
    for this line alone.
    """
    points, minors = next(_draws(seed, field, ambient_n, index))
    return Line(field, points, minors)


def _scan_field(M: SpecialMonad, prime: int) -> PrimeField:
    field = GF(prime)
    if M.field not in (QQ, field):
        raise MonadLabError(f"monad lives over {M.field.name}, cannot scan mod {prime}")
    return field


def _check_samples(samples: int):
    if samples > MAX_SAMPLES:
        raise ValueError(f"sample count {samples} exceeds the cap {MAX_SAMPLES}")
    if samples < 1:
        raise ValueError("need at least one sample")


class _ScanContext:
    """The per-scan part of splitting lines of one monad M (module docstring).

    split_drawn returns (status, splitting parts or None) and the Line it
    restricted, for a line of the scan's stream.
    """

    __slots__ = ("M", "rank", "certificate", "jump_cells")

    def __init__(self, M: SpecialMonad):
        self.M = M
        self.rank = M.w - M.v - M.v_prime
        self.certificate = certify(M.alpha, M.beta)
        # jump_cells[r][c] lists entry (r, c) of beta_j alpha_i, i < j in the
        # order of Line.minors, so J(L)[r][c] is its dot product with them
        self.jump_cells = None
        if M.v == M.v_prime:
            a, b = M.alpha.coeffs, M.beta.coeffs
            terms = [b[j].matmul(a[i]).data
                     for i, j in combinations(range(M.alpha.nvars), 2)]
            self.jump_cells = [[[t[r][c] for t in terms] for c in range(M.v)]
                               for r in range(M.v)]

    def _jumps(self, minors) -> bool:
        """Whether rank J(L) < v, J(L) = sum_{i<j} pi_ij beta_j alpha_i."""
        f, v = self.M.field, self.M.v
        J = [[sum(map(mul, minors, cell)) for cell in row] for row in self.jump_cells]
        if f.kind == "Fp":
            return len(_echelon(f.reduce(J), v, f.p)) < v
        return DenseMatrix(f, v, v, J).rank() < v

    def split_drawn(self, points, minors, line: Line | None = None):
        """(status, parts, line) of a line of M's field and space, given by
        its points and minors (_draws).

        line is the Line that was restricted: the one given, or one built
        here.  It is None for a clean line with trivial splitting that the
        jump matrix settled on a certified scan, which builds no Line.
        """
        M, cert = self.M, self.certificate
        if not cert.clean:
            # the scan has checked M's composite, so the line takes only
            # its two onto_everywhere proofs (pencil.restrict)
            line = line or Line(M.field, points, minors)
            pc = restrict(M, line, cert)
            if not line_status(pc).clean:
                return ("degenerate", None, line)
        if self.jump_cells is not None and not self._jumps(minors):
            return ("clean", (0,) * self.rank, line)
        if cert.clean:
            line = line or Line(M.field, points, minors)
            pc = restrict(M, line, cert)
        return ("clean", splitting_type(pc).parts, line)


class LineOutcome(Record):
    # status: "clean" | "degenerate"
    __slots__ = ("index", "line", "status", "splitting")

    @property
    def jumping(self) -> bool | None:
        if self.splitting is None:
            return None
        return any(a != 0 for a in self.splitting)

    def to_json_obj(self):
        return {
            "index": self.index,
            "line": self.line.to_json_obj(),
            "status": self.status,
            "splitting": None if self.splitting is None else list(self.splitting),
            "jumping": self.jumping,
        }


class ScanReport(Record):
    __slots__ = ("monad_id", "field_name", "prime", "samples", "seed", "jumping",
                 "degenerate", "spectrum", "witnesses", "outcomes")
    defaults = {"outcomes": list}

    @property
    def fraction(self) -> float:
        return self.jumping / self.samples

    def to_json_obj(self):
        return {
            "monad_id": self.monad_id,
            "field": self.field_name,
            "prime": self.prime,
            "samples": self.samples,
            "seed": self.seed,
            "jumping": self.jumping,
            "degenerate": self.degenerate,
            "fraction": f"{self.fraction:.6f}",
            "spectrum": {str(list(k)): c for k, c in sorted(self.spectrum.items())},
            "witnesses": [l.to_json_obj() for l in self.witnesses],
        }


@_proofs()
def jumping_scan(M: SpecialMonad, prime: int, samples: int, seed: int = 0,
                 classification=None, keep_lines: bool = False) -> ScanReport:
    """Splitting statistics over `samples` random lines mod a prime.

    A line is jumping when its splitting is non-trivial; lines where the
    reduced left or right map drops rank are counted separately as
    degenerate.  Requires a locally-free sheaf with c1 = 0, decided by
    monad.require_locally_free; classification is accepted and ignored.
    """
    field = _scan_field(M, prime)
    _check_samples(samples)
    require_locally_free(M, "line scans")
    if invariants(M).c1 != 0:
        raise ValueError("jumping scans are defined for c1 = 0 sheaves")
    return _scan(M, field, samples, seed, keep_lines)


def _scan(M: SpecialMonad, field: PrimeField, samples: int, seed: int,
          keep_lines: bool = False) -> ScanReport:
    """jumping_scan of M over `field`, its conditions already checked."""
    split = _ScanContext(to_prime_field(M, field.p)).split_drawn
    jumping = 0
    degenerate = 0
    spectrum: dict[tuple[int, ...], int] = {}
    witnesses: list[Line] = []
    outcomes: list[LineOutcome] = []
    draws = islice(_draws(seed, field, M.ambient_n), samples)
    for i, (points, minors) in enumerate(draws):
        status, parts, line = split(points, minors)
        if status == "degenerate":
            degenerate += 1
        else:
            spectrum[parts] = spectrum.get(parts, 0) + 1
            if any(parts):
                # a jumping line was restricted, so it has its Line
                jumping += 1
                if len(witnesses) < WITNESS_CAP:
                    witnesses.append(line)
        if keep_lines:
            outcomes.append(LineOutcome(i, line or Line(field, points, minors),
                                        status, parts))
    return ScanReport(M.monad_id, field.name, field.p, samples, seed,
                      jumping, degenerate, spectrum, witnesses, outcomes)


# ---------------------------------------------------------------------------
# trivial splitting type


class TrivialSplittingReport(Record):
    __slots__ = ("monad_id", "field_name", "samples", "seed", "certified", "witness",
                 "spectrum", "degenerate", "note")
    defaults = {"note": ""}

    def to_json_obj(self):
        return {
            "monad_id": self.monad_id,
            "field": self.field_name,
            "samples": self.samples,
            "seed": self.seed,
            "certified": self.certified,
            "witness": None if self.witness is None else self.witness.to_json_obj(),
            "spectrum": {str(list(k)): c for k, c in sorted(self.spectrum.items())},
            "degenerate": self.degenerate,
            "note": self.note,
        }


def trivial_splitting_test(M: SpecialMonad, samples: int = 10, seed: int = 0) -> TrivialSplittingReport:
    """Look for one line with trivial splitting, in the monad's own field.

    Over Q the first trivial witness is an exact certificate.  Rank 0
    (trivial sheaf summand counting) still works: the empty splitting is
    trivial.  Without a witness the observed spectrum is reported.
    """
    _check_samples(samples)
    split = _ScanContext(M).split_drawn
    spectrum: dict[tuple[int, ...], int] = {}
    degenerate = 0
    for points, minors in islice(_draws(seed, M.field, M.ambient_n), samples):
        status, parts, line = split(points, minors)
        if status == "degenerate":
            degenerate += 1
            continue
        spectrum[parts] = spectrum.get(parts, 0) + 1
        if not any(parts):
            exact = M.field == QQ
            return TrivialSplittingReport(
                M.monad_id, M.field.name, samples, seed, exact,
                line or Line(M.field, points, minors),
                spectrum, degenerate,
                "trivial splitting type certified" if exact
                else "trivial splitting observed (finite field; not a certificate)")
    return TrivialSplittingReport(
        M.monad_id, M.field.name, samples, seed, False, None, spectrum, degenerate,
        "no trivial line found; observed spectrum reported")


# ---------------------------------------------------------------------------
# codimension evidence


class CodimEvidenceReport(Record):
    # rows, one per prime: prime, samples, jumping, fraction
    __slots__ = ("monad_id", "rows", "exponent", "exponent_stderr", "tolerance", "verdict")

    def to_json_obj(self):
        return {
            "monad_id": self.monad_id,
            "per_prime": [
                {**row, "fraction": f"{row['fraction']:.6f}"} for row in self.rows
            ],
            "exponent": None if self.exponent is None else f"{self.exponent:.4f}",
            "exponent_stderr": (None if self.exponent_stderr is None
                                else f"{self.exponent_stderr:.4f}"),
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }

    def to_csv(self) -> str:
        lines = ["prime,samples,jumping,fraction"]
        for row in self.rows:
            lines.append(f"{row['prime']},{row['samples']},{row['jumping']},"
                         f"{row['fraction']:.6f}")
        return "\n".join(lines) + "\n"


def codim_evidence(M: SpecialMonad, primes, samples: int, seed: int = 0,
                   classification=None, tolerance: float = 0.5) -> CodimEvidenceReport:
    """Fit the jumping fraction to c/p^e across primes; e near 1 supports
    a pure codimension-1 jumping locus.

    Requires rank 2, locally free, c1 = 0 (the codimension statement is a
    rank-2 theorem; for higher rank the scanner reports data only); local
    freeness is decided by monad.require_locally_free, and classification
    is accepted and ignored.  The exponent is the least-squares slope of
    -log(fraction) against log(p); its standard error propagates the
    binomial noise of the counts.
    """
    primes = list(primes)
    for p in primes:
        _scan_field(M, p)
    if len(set(primes)) < 2:
        raise ValueError("need at least two distinct primes to estimate an exponent")
    _check_samples(samples)
    require_locally_free(M, "line scans")
    inv = invariants(M)
    if inv.rank != 2 or inv.c1 != 0:
        raise ValueError("codimension evidence is defined for rank 2, c1 = 0")
    # a prime with no reduction is refused before any scan
    reduced = [to_prime_field(M, p) for p in primes]
    rows = []
    for p, Mp in zip(primes, reduced):
        rep = _scan(Mp, Mp.field, samples, seed)
        rows.append({"prime": p, "samples": rep.samples, "jumping": rep.jumping,
                     "fraction": rep.fraction})
    if all(r["jumping"] == 0 for r in rows):
        return CodimEvidenceReport(M.monad_id, rows, None, None, tolerance,
                                   "empty jumping locus (no jumping lines found)")
    if any(r["jumping"] == 0 for r in rows):
        return CodimEvidenceReport(M.monad_id, rows, None, None, tolerance,
                                   "inconclusive (zero count at some primes)")
    xs = [math.log(r["prime"]) for r in rows]
    ys = [math.log(r["fraction"]) for r in rows]
    n = len(xs)
    xbar = sum(xs) / n
    ybar = sum(ys) / n
    sxx = sum((x - xbar) ** 2 for x in xs)
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sxx
    exponent = -slope
    # binomial noise of each log-fraction, propagated through the slope
    var = 0.0
    for r, x in zip(rows, xs):
        f = r["fraction"]
        sigma2 = (1 - f) / (f * r["samples"])
        var += ((x - xbar) / sxx) ** 2 * sigma2
    stderr = math.sqrt(var)
    if abs(exponent - 1.0) <= tolerance:
        verdict = "consistent with codimension 1"
    else:
        verdict = "not consistent with codimension 1"
    return CodimEvidenceReport(M.monad_id, rows, exponent, stderr, tolerance, verdict)


# ---------------------------------------------------------------------------
# uniformity


class UniformityReport(Record):
    __slots__ = ("monad_id", "field_name", "samples", "seed", "refuted", "witness",
                 "spectrum", "degenerate", "notes")

    def to_json_obj(self):
        return {
            "monad_id": self.monad_id,
            "field": self.field_name,
            "samples": self.samples,
            "seed": self.seed,
            "refuted": self.refuted,
            "witness": None if self.witness is None else self.witness.to_json_obj(),
            "spectrum": {str(list(k)): c for k, c in sorted(self.spectrum.items())},
            "degenerate": self.degenerate,
            "notes": self.notes,
        }


@_proofs()
def uniformity_evidence(M: SpecialMonad, samples: int = 50, seed: int = 0,
                        extra_lines=()) -> UniformityReport:
    """Sample splittings; equal splittings everywhere never certify
    uniformity, but a second splitting refutes it with a witness.

    For a rank 2, c1 = 0 sheaf whose sampled splittings are all trivial, a
    nonzero c2 is flagged: a uniform such sheaf would be trivial, so
    jumping lines must exist even if sampling missed them.
    """
    _check_samples(samples)
    require_locally_free(M, "line scans")
    inv = invariants(M)
    spectrum: dict[tuple[int, ...], int] = {}
    degenerate = 0
    first_parts = None
    witness = None
    extra = list(extra_lines)
    for line in extra:
        check_line(M, line)
    split = _ScanContext(M).split_drawn
    given = ((line.points, line.minors, line) for line in extra)
    drawn = ((points, minors, None) for points, minors
             in islice(_draws(seed, M.field, M.ambient_n), samples))
    for points, minors, line in chain(given, drawn):
        status, parts, line = split(points, minors, line)
        if status == "degenerate":
            degenerate += 1
            continue
        spectrum[parts] = spectrum.get(parts, 0) + 1
        if first_parts is None:
            first_parts = parts
        elif parts != first_parts and witness is None:
            witness = line or Line(M.field, points, minors)
    refuted = witness is not None
    notes = []
    if not refuted:
        notes.append("uniformity not refuted (sampling never certifies it)")
        if (inv.rank == 2 and inv.c1 == 0 and inv.c2 != 0
                and first_parts is not None and all(a == 0 for a in first_parts)):
            notes.append(
                "tension: a uniform rank 2 sheaf with trivial splitting would be "
                f"trivial, but c2 = {inv.c2} != 0; jumping lines exist and were missed")
    return UniformityReport(M.monad_id, M.field.name, samples, seed, refuted,
                            witness, spectrum, degenerate, notes)
