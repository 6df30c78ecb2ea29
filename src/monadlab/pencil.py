"""Restriction of a monad to a line and the resulting pencil on P1.

A line is parametrized by two spanning points; substituting the
parametrization into the monad's linear forms gives a pencil complex

    (s A_s + t A_t,  s B_s + t B_t)

of binary linear forms.  When the line is clean, that is the left pencil
keeps full column rank and the right pencil full row rank at every point
of the line, the pencil is a monad on P1 and computes the restricted
sheaf.  Each condition is one rank (exactlin.onto_everywhere, applied to
the right pencil and to the transpose of the left one); exactlin.certify
takes both, with the composite check, once per pencil (see line_status).  Its
twist cohomology is the n = 1 case of cohomology.complex_cohomology: Serre
duality gives the H^1 ranks, and the single differential d_2 = B_t A_s
acts at twist -1.  The splitting type is then reconstructed from the
section counts across a twist window and re-verified against every
measured dimension.
"""

from __future__ import annotations

from itertools import combinations

from ._record import Record
from .errors import AlphaDegenerateError, ReconstructionError, ShapeMismatchError
from .cohomology import complex_cohomology
from .exactlin import (
    Certificate,
    LinearFormMatrix,
    certify,
    generically_injective,
    onto_everywhere,
)
from .monad import SpecialMonad


class Line(Record):
    """A line in P^n, parametrized by two spanning points (rows); immutable.

    minors holds the 2x2 minors pi_ij = a_i b_j - a_j b_i, i < j in
    lexicographic order, of the spanning points a, b: the Plucker
    coordinates of the line.  They follow from the points, so they are not
    part of the value: equality and hash ignore them.
    """

    __slots__ = ("field", "points", "minors")

    def __eq__(self, other):
        return isinstance(other, Line) and (self.field, self.points) == (other.field, other.points)

    def __hash__(self):
        return hash((self.field, self.points))

    @classmethod
    def from_points(cls, field, p0, p1) -> "Line":
        a = tuple(map(field.coerce, p0))
        b = tuple(map(field.coerce, p1))
        if len(a) != len(b):
            raise ShapeMismatchError("spanning points need equal lengths")
        minors = field.reduce([[a[i] * b[j] - a[j] * b[i]
                                for i, j in combinations(range(len(a)), 2)]])[0]
        if not any(minors):
            raise ShapeMismatchError("spanning points are proportional; not a line")
        return cls(field, (a, b), tuple(minors))

    @property
    def nvars(self) -> int:
        return len(self.points[0])

    def plucker(self):
        """The six Plucker coordinates p01, p02, p03, p12, p13, p23 (n = 3)."""
        if self.nvars != 4:
            raise ValueError("Plucker coordinates are defined for lines in P3")
        return self.minors

    def to_json_obj(self):
        return [[self.field.fmt(x) for x in pt] for pt in self.points]


class PencilComplex:
    """A monad restricted to a line: two pencils of scalar matrices, and
    their exactlin.certify, taken here unless the caller passes it."""

    __slots__ = ("field", "v", "w", "v_prime", "A", "B", "certificate")

    def __init__(self, A: LinearFormMatrix, B: LinearFormMatrix,
                 certificate: Certificate | None = None):
        if A.nvars != 2 or B.nvars != 2:
            raise ShapeMismatchError("pencil matrices live in two parameters")
        if B.ncols != A.nrows or A.field != B.field:
            raise ShapeMismatchError("pencil shapes or fields disagree")
        self.certificate = certificate or certify(A, B)
        self.field = A.field
        self.A = A
        self.B = B
        self.v = A.ncols
        self.w = A.nrows
        self.v_prime = B.nrows

    @property
    def rank(self) -> int:
        return self.w - self.v - self.v_prime

    @property
    def c1(self) -> int:
        return self.v - self.v_prime

    def __repr__(self):
        return f"PencilComplex(v={self.v}, w={self.w}, v'={self.v_prime})"


def check_line(M: SpecialMonad, line: Line) -> None:
    """Refuse a line of another field or another projective space than M's."""
    if line.field != M.field:
        raise ShapeMismatchError("line and monad live over different fields")
    if line.nvars != M.ambient_n + 1:
        raise ShapeMismatchError("line lives in a different projective space")


def restrict(M: SpecialMonad, line: Line,
             certificate: Certificate | None = None) -> PencilComplex:
    """Restrict a monad to a line by evaluating the forms at the two points.

    certificate is M's exactlin.certify, if the caller has it.  A clean one
    holds on every line, so the pencil takes it.  Any other still shows
    that M's composite vanishes, and with it the pencil's, so the pencil
    takes only its own two onto_everywhere proofs.  Without one the pencil
    certifies itself.
    """
    check_line(M, line)
    p0, p1 = line.points
    A = LinearFormMatrix(M.field, M.w, M.v, 2, [M.alpha.at(p0), M.alpha.at(p1)])
    B = LinearFormMatrix(M.field, M.v_prime, M.w, 2, [M.beta.at(p0), M.beta.at(p1)])
    if certificate and not certificate.clean:
        certificate = Certificate(onto_everywhere(A.transpose()).full,
                                  onto_everywhere(B).full)
    return PencilComplex(A, B, certificate)


class LineStatus(Record):
    # degenerate_map: "left" or "right", when not clean
    __slots__ = ("clean", "note", "degenerate_map")
    defaults = {"note": "", "degenerate_map": ""}

    def to_json_obj(self):
        return {"clean": self.clean, "note": self.note}


def line_status(pc: PencilComplex) -> LineStatus:
    """Clean iff both maps keep full rank at every point of the line.

    Decided exactly, over the algebraic closure of the whole line, by the
    pencil's certificate (exactlin.certify): the right map O^w -> O(1)^v'
    must be onto at every point, and the left map O(-1)^v -> O^w injective
    at every point, that is its transpose O^w -> O(1)^v onto.  No rank is
    taken here, except for a failing left map: it drops rank on the whole
    line iff it is not injective as a sheaf map, one more rank
    (exactlin.generically_injective) that phrases the note.
    """
    cert = pc.certificate
    if not cert.left:
        if not generically_injective(pc.A).full:
            note = "left map drops rank identically on the line"
        else:
            note = "left map drops rank at a point of the line"
        return LineStatus(False, note, "left")
    if not cert.right:
        return LineStatus(False, "right map drops rank at a point of the line", "right")
    return LineStatus(True, "empty left map" if pc.v == 0 else "")


def p1_cohomology(pc: PencilComplex, k: int) -> tuple[int, int]:
    """(h^0, h^1) of the restricted sheaf twisted by k; exact.

    The n = 1 case of cohomology.complex_cohomology, once line_status has
    shown that the pencil is a monad on P1.  A clean line carries both
    onto_everywhere proofs, so the closed-form ranks apply.  A line that
    is not clean raises AlphaDegenerateError.
    """
    status = line_status(pc)
    if not status.clean:
        raise AlphaDegenerateError(
            f"{status.degenerate_map} map degenerates on the line; restricted "
            "cohomology is not the sheaf restriction")
    return complex_cohomology(pc.A, pc.B, k, pc.certificate)


def dual_pencil(pc: PencilComplex) -> PencilComplex:
    """The pencil of the dual sheaf: transposed matrices, swapped roles."""
    return PencilComplex(pc.B.transpose(), pc.A.transpose(), pc.certificate.dual())


# ---------------------------------------------------------------------------
# splitting type


class SplittingType(Record):
    """Non-increasing degrees of the line-bundle summands on the line; immutable.

    dims maps each twist of the measured window to its (h^0, h^1); it is
    not part of the value.
    """

    __slots__ = ("parts", "dims")
    defaults = {"dims": dict}

    @property
    def is_trivial(self) -> bool:
        return all(a == 0 for a in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __str__(self):
        return "(" + ", ".join(str(a) for a in self.parts) + ")"


def splitting_type(pc: PencilComplex) -> SplittingType:
    """Reconstruct the splitting type from section counts across a window.

    h^0 of the restriction is measured for twists in [-v-3, v'+2]; its
    first differences count the summands of each degree (any summand
    degree lies in [-v', v] by the two-step presentation through ker of
    the right map and its dual).  The reconstruction is then re-verified
    against every measured h^0 and h^1; a mismatch raises
    ReconstructionError and signals an engine defect.  A line that is not
    clean raises AlphaDegenerateError.  The measured dimensions come back
    as the dims of the result.
    """
    v, vp = pc.v, pc.v_prime
    lo, hi = -v - 3, vp + 2
    measured = {k: p1_cohomology(pc, k) for k in range(lo, hi + 1)}
    f = {k: h[0] for k, h in measured.items()}
    counts = {}
    for m in range(-vp, v + 1):
        g_hi = f[-m] - f[-m - 1]
        g_lo = f[-m - 1] - f[-m - 2]
        counts[m] = g_hi - g_lo
        if counts[m] < 0:
            raise ReconstructionError(f"negative multiplicity at degree {m}")
    parts = tuple(sorted(
        (m for m, c in counts.items() for _ in range(c)), reverse=True))
    if len(parts) != pc.rank:
        raise ReconstructionError(
            f"reconstructed {len(parts)} summands for a rank {pc.rank} pencil")
    if sum(parts) != pc.c1:
        raise ReconstructionError(
            f"reconstructed degree {sum(parts)} != first Chern class {pc.c1}")
    for k in range(lo, hi + 1):
        want_h0 = sum(max(0, a + k + 1) for a in parts)
        want_h1 = sum(max(0, -a - k - 1) for a in parts)
        if (want_h0, want_h1) != measured[k]:
            raise ReconstructionError(
                f"splitting {parts} predicts {(want_h0, want_h1)} at twist {k}, "
                f"measured {measured[k]}")
    return SplittingType(parts, measured)
