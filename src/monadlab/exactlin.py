"""Exact scalar arithmetic and dense exact linear algebra.

Two computable coefficient fields are supported: the rationals and prime
fields F_p.  A scalar is a plain Python number: over F_p an int in
[0, p), over Q an int when integral and a stdlib Fraction in lowest terms
otherwise, as QQ.coerce alone decides (a computed Fraction may have
denominator 1; neither equality nor fmt depends on the type).  Loops
compute with Python's own +, - and *, and hand each finished matrix to
field.reduce once: the identity over Q, x % p over F_p.  A field object is
otherwise only a codec (coerce, parse, fmt).  Every elimination is integer
elimination, by one routine: mod p over F_p, fraction-free (Bareiss) over
Z for a matrix over Q, its rows first cleared of denominators.  A rank is
the number of pivots.  A rank over Q is taken mod 32003 first
(DenseMatrix.rank_over), and Bareiss runs only when that rank falls short
of the largest possible one.  A kernel is back-substituted from the
echelon form, in integers over Q.

The module also provides monomial bases of the graded pieces of a
polynomial ring (graded-lex, variable 0 highest), matrices of linear
forms together with the multiplication maps they induce on graded pieces,
the two one-rank tests built on them: onto_everywhere (onto at every
point) and generically_injective (injective as a sheaf map), and certify,
which checks a complex's composite and takes both onto_everywhere proofs
once, for every pipeline to read.
Matrices are dense; the intended scale is a few thousand rows at most.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm

from .errors import MonadDecodeError, MonadLabError, ShapeMismatchError

# ---------------------------------------------------------------------------
# fields


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    # deterministic Miller-Rabin for anything that survives trial division
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class RationalField:
    """The field Q. A scalar is an int when integral, else a Fraction in lowest terms."""

    kind = "Q"
    name = "Q"

    def coerce(self, x) -> int | Fraction:
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def reduce(self, rows):
        """Canonical form of computed rows: rational scalars already are."""
        return rows

    def parse(self, text: str) -> int | Fraction:
        try:
            return self.coerce(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MonadDecodeError(f"bad rational scalar {text!r}: {exc}") from exc

    def fmt(self, x) -> str:
        return str(x)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The field F_p for a prime p. Scalars are ints in [0, p)."""

    kind = "Fp"

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.name = f"Fp:{p}"

    def coerce(self, x) -> int:
        if type(x) is int:
            return x % self.p
        x = Fraction(x)
        den = x.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {x} vanishes mod {self.p}")
        return x.numerator * pow(den, -1, self.p) % self.p

    def reduce(self, rows):
        """Reduce computed integer rows into [0, p), in place; returns rows."""
        p = self.p
        for row in rows:
            for j, x in enumerate(row):
                row[j] = x % p
        return rows

    def parse(self, text: str) -> int:
        try:
            return self.coerce(text.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise MonadDecodeError(f"bad residue {text!r} mod {self.p}: {exc}") from exc

    def fmt(self, x) -> str:
        return str(x % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

DEFAULT_PRIME = 32003


@lru_cache(maxsize=None)
def GF(p: int) -> PrimeField:
    """The field F_p, built once per prime: p is tested for primality once."""
    return PrimeField(p)


def field_from_name(name: str):
    """Inverse of field.name: "Q" or "Fp:<p>"."""
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        try:
            p = int(name[3:])
        except ValueError as exc:
            raise MonadDecodeError(f"bad field name {name!r}") from exc
        try:
            return GF(p)
        except ValueError as exc:
            raise MonadDecodeError(str(exc)) from exc
    raise MonadDecodeError(f"unknown field {name!r} (expected 'Q' or 'Fp:<p>')")


# ---------------------------------------------------------------------------
# elimination kernels (destructive, list-of-lists)


def _echelon(rows: list[list[int]], ncols: int, p: int | None) -> list[int]:
    """Row echelon form of an integer matrix, in place; returns the pivot columns.

    Over F_p (p given, entries reduced mod p) each pivot row is scaled to 1.
    With p None the elimination is fraction-free (Bareiss) over Z:
    intermediate entries are exact minors of the input, so every division
    below is an exact integer division, and the rows keep the row space
    over Q.  Only rows below a pivot change, so row r ends with zeros left
    of pivots[r] and a nonzero entry there.
    """
    nrows = len(rows)
    pivots = []
    rank = 0
    prev = 1
    for col in range(ncols):
        if rank == nrows:
            break
        for piv in range(rank, nrows):
            if rows[piv][col]:
                break
        else:
            continue
        if piv != rank:
            rows[rank], rows[piv] = rows[piv], rows[rank]
        prow = rows[rank]
        if p:
            inv = pow(prow[col], -1, p)
            for j in range(col, ncols):
                prow[j] = prow[j] * inv % p
            for i in range(rank + 1, nrows):
                row = rows[i]
                f = row[col]
                if f:
                    for j in range(col, ncols):
                        row[j] = (row[j] - f * prow[j]) % p
        else:
            pval = prow[col]
            for i in range(rank + 1, nrows):
                row = rows[i]
                f = row[col]
                if f:
                    for j in range(col + 1, ncols):
                        row[j] = (pval * row[j] - f * prow[j]) // prev
                    row[col] = 0
                elif prev != 1 or pval != 1:
                    for j in range(col + 1, ncols):
                        row[j] = pval * row[j] // prev
            prev = pval
        pivots.append(col)
        rank += 1
    return pivots


def _int_rows(data) -> list[list[int]]:
    """Clear denominators row by row and strip content; rank/kernel safe."""
    out = []
    for row in data:
        mult = lcm(*(x.denominator for x in row)) if row else 1
        ints = [int(x * mult) for x in row]
        g = 0
        for x in ints:
            g = gcd(g, x)
            if g == 1:
                break
        if g > 1:
            ints = [x // g for x in ints]
        out.append(ints)
    return out


def _rank_mod_p(data, ncols: int, p: int) -> int | None:
    """Rank mod p of a matrix over Q given by its rows, or None when a
    denominator vanishes mod p.  An int is reduced with % p and a Fraction
    through GF(p).coerce, so integral rows make no Fraction operation."""
    coerce = GF(p).coerce
    try:
        rows = [[x % p if type(x) is int else coerce(x) for x in row] for row in data]
    except ZeroDivisionError:
        return None
    return len(_echelon(rows, ncols, p))


# ---------------------------------------------------------------------------
# matrices


class DenseMatrix:
    """Dense matrix over Q or F_p. Treated as immutable after construction."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field, nrows: int, ncols: int, data):
        if len(data) != nrows or any(len(r) != ncols for r in data):
            raise ShapeMismatchError(f"expected {nrows}x{ncols} data")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = data

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int) -> "DenseMatrix":
        return cls(field, nrows, ncols, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def identity(cls, field, n: int) -> "DenseMatrix":
        m = cls.zeros(field, n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def from_rows(cls, field, rows) -> "DenseMatrix":
        data = [[field.coerce(x) for x in row] for row in rows]
        nrows = len(data)
        ncols = len(data[0]) if data else 0
        return cls(field, nrows, ncols, data)

    def copy_data(self):
        return [row[:] for row in self.data]

    def transpose(self) -> "DenseMatrix":
        data = [[self.data[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        return DenseMatrix(self.field, self.ncols, self.nrows, data)

    def matmul(self, other: "DenseMatrix") -> "DenseMatrix":
        if self.ncols != other.nrows:
            raise ShapeMismatchError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        if self.field != other.field:
            raise ShapeMismatchError("matrix product across different fields")
        bt = other.transpose().data
        out = []
        for row in self.data:
            out_row = []
            for col in bt:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc += a * b
                out_row.append(acc)
            out.append(out_row)
        return DenseMatrix(self.field, self.nrows, other.ncols, self.field.reduce(out))

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def _echelon(self):
        """Echelon rows (integers over Q, residues over F_p) and pivot columns."""
        if self.field.kind == "Fp":
            rows, p = self.copy_data(), self.field.p
        else:
            rows, p = _int_rows(self.data), None
        return rows, _echelon(rows, self.ncols, p)

    def rank(self) -> int:
        """The number of pivots of the echelon form (rank_over)."""
        return self.rank_over()[0]

    def rank_over(self) -> tuple[int, str]:
        """The rank, and the name of the field whose elimination gave it.

        Over Q the rank is taken mod DEFAULT_PRIME first, and returned, over
        "Fp:32003", when it reaches min(nrows, ncols).  When no denominator
        vanishes mod p, every entry lies in Z_(p), and Z_(p) -> F_p is a
        ring map, so a minor of the reduction is the reduction of the minor
        over Q: a nonzero r x r minor mod p is a nonzero minor over Q, and
        the rank over Q is at least the rank mod p.  A rank mod p that
        reaches the largest possible value is therefore the rank over Q.
        Otherwise, or when a denominator vanishes mod p, Bareiss decides,
        over "Q".  A full-rank matrix thus costs one elimination mod p in
        place of Bareiss, and a rank-deficient one costs both, the mod-p
        pass being the cheaper of the two.
        """
        if self.field.kind == "Q":
            r = _rank_mod_p(self.data, self.ncols, DEFAULT_PRIME)
            if r == min(self.nrows, self.ncols):
                return r, GF(DEFAULT_PRIME).name
        return len(self._echelon()[1]), self.field.name

    def right_kernel(self) -> "DenseMatrix":
        """Basis of {x : M x = 0}, returned as the columns of a matrix.

        Back-substitution on the echelon rows: the vector of a free column
        is 1 there and 0 at every other free column.  Over Q it is solved
        in integers and returned primitive, with positive leading entry.
        """
        f = self.field
        n = self.ncols
        p = f.p if f.kind == "Fp" else None
        rows, pivots = self._echelon()
        pivot_set = set(pivots)
        cols = []
        for fc in range(n):
            if fc in pivot_set:
                continue
            x = [0] * n
            x[fc] = 1
            for r in range(len(pivots) - 1, -1, -1):
                pc = pivots[r]
                row = rows[r]
                s = sum(a * b for a, b in zip(row[pc + 1:], x[pc + 1:]) if b)
                if not s:
                    continue
                if p:
                    x[pc] = -s % p
                else:
                    g = gcd(s, row[pc])
                    x = [row[pc] // g * y for y in x]
                    x[pc] = -s // g
            cols.append(x if p else _primitive(x))
        data = [[col[i] for col in cols] for i in range(n)]
        return DenseMatrix(f, n, len(cols), data)

    def __eq__(self, other):
        return (
            isinstance(other, DenseMatrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols} over {self.field!r})"


def _primitive(vec):
    """Divide an integer vector by its content, leading nonzero entry positive."""
    g = gcd(*vec)
    if next(x for x in vec if x) < 0:
        g = -g
    return [x // g for x in vec]


rank = DenseMatrix.rank
kernel_basis = DenseMatrix.right_kernel


# ---------------------------------------------------------------------------
# monomial bases of graded pieces


@lru_cache(maxsize=None)
def monomial_exponents(m: int, d: int) -> tuple[tuple[int, ...], ...]:
    """Exponent vectors of degree d in m variables, graded-lex, var 0 highest."""
    if m < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        return ()
    if m == 1:
        return ((d,),)
    out = []
    for e0 in range(d, -1, -1):
        for rest in monomial_exponents(m - 1, d - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(m: int, d: int) -> dict:
    return {e: i for i, e in enumerate(monomial_exponents(m, d))}


def monomial_count(m: int, d: int) -> int:
    return comb(d + m - 1, m - 1) if d >= 0 else 0


class MonomialBasis:
    """Ordered monomial basis of the degree-d piece in m variables; immutable."""

    __slots__ = ("m", "d", "exponents")
    def __init__(self, m: int, d: int, exponents: tuple[tuple[int, ...], ...]):
        self.m = m
        self.d = d
        self.exponents = exponents

    def __len__(self):
        return len(self.exponents)


def monomial_basis(m: int, d: int) -> MonomialBasis:
    return MonomialBasis(m, d, monomial_exponents(m, d))


# ---------------------------------------------------------------------------
# matrices of linear forms


class LinearFormMatrix:
    """Matrix of homogeneous linear forms, one coefficient matrix per variable.

    Entry (i, j) is sum_t coeffs[t][i][j] * x_t.
    """

    __slots__ = ("field", "nrows", "ncols", "nvars", "coeffs")

    def __init__(self, field, nrows: int, ncols: int, nvars: int, coeffs):
        if len(coeffs) != nvars:
            raise ShapeMismatchError(f"expected {nvars} coefficient matrices")
        for c in coeffs:
            if c.nrows != nrows or c.ncols != ncols or c.field != field:
                raise ShapeMismatchError("coefficient matrices must share shape and field")
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.nvars = nvars
        self.coeffs = tuple(coeffs)

    @classmethod
    def zeros(cls, field, nrows: int, ncols: int, nvars: int) -> "LinearFormMatrix":
        return cls(field, nrows, ncols, nvars,
                   [DenseMatrix.zeros(field, nrows, ncols) for _ in range(nvars)])

    @classmethod
    def from_entry_forms(cls, field, nvars: int, entries) -> "LinearFormMatrix":
        """Build from entries[i][j] = coefficient vector of length nvars."""
        nrows = len(entries)
        ncols = len(entries[0]) if nrows else 0
        out = cls.zeros(field, nrows, ncols, nvars)
        for i, row in enumerate(entries):
            if len(row) != ncols:
                raise ShapeMismatchError("ragged entry rows")
            for j, form in enumerate(row):
                if len(form) != nvars:
                    raise ShapeMismatchError(f"entry ({i},{j}) has {len(form)} coefficients")
                for t, c in enumerate(form):
                    out.coeffs[t].data[i][j] = field.coerce(c)
        return out

    def entry_form(self, i: int, j: int):
        return [self.coeffs[t].data[i][j] for t in range(self.nvars)]

    def at(self, point) -> DenseMatrix:
        """Evaluate at a point, not all coordinates 0: sum_t point[t] * coeffs[t]."""
        if len(point) != self.nvars:
            raise ShapeMismatchError(f"point needs {self.nvars} coordinates")
        f = self.field
        pt = [f.coerce(x) for x in point]
        if not any(pt):
            raise ValueError("cannot evaluate at the zero vector")
        data = [[0] * self.ncols for _ in range(self.nrows)]
        for t, c in enumerate(pt):
            if c == 0:
                continue
            block = self.coeffs[t].data
            for i in range(self.nrows):
                brow = block[i]
                drow = data[i]
                for j in range(self.ncols):
                    a = brow[j]
                    if a:
                        drow[j] += c * a
        return DenseMatrix(f, self.nrows, self.ncols, f.reduce(data))

    def transpose(self) -> "LinearFormMatrix":
        return LinearFormMatrix(self.field, self.ncols, self.nrows, self.nvars,
                                [c.transpose() for c in self.coeffs])

    def to_field(self, field) -> "LinearFormMatrix":
        mats = [
            DenseMatrix(field, self.nrows, self.ncols,
                        [[field.coerce(x) for x in row] for row in c.data])
            for c in self.coeffs
        ]
        return LinearFormMatrix(field, self.nrows, self.ncols, self.nvars, mats)

    def block_diag(self, other: "LinearFormMatrix") -> "LinearFormMatrix":
        if self.nvars != other.nvars or self.field != other.field:
            raise ShapeMismatchError("block sum needs matching variables and field")
        f = self.field
        nrows = self.nrows + other.nrows
        ncols = self.ncols + other.ncols
        out = LinearFormMatrix.zeros(f, nrows, ncols, self.nvars)
        for t in range(self.nvars):
            dst = out.coeffs[t].data
            for i, row in enumerate(self.coeffs[t].data):
                dst[i][: self.ncols] = row
            for i, row in enumerate(other.coeffs[t].data):
                dst[self.nrows + i][self.ncols:] = row
        return out

    def __eq__(self, other):
        return (
            isinstance(other, LinearFormMatrix)
            and self.field == other.field
            and (self.nrows, self.ncols, self.nvars) == (other.nrows, other.ncols, other.nvars)
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"LinearFormMatrix({self.nrows}x{self.ncols}, {self.nvars} vars, {self.field!r})"


def mult_map(L: LinearFormMatrix, d: int) -> DenseMatrix:
    """Matrix of U (x) S_d -> U' (x) S_{d+1}, (u (x) f) |-> L u f.

    Basis index of u_j (x) m_a is j*|S_d| + a, in monomial_basis order.
    Shape (nrows*|S_{d+1}|) x (ncols*|S_d|).
    """
    dom = monomial_exponents(L.nvars, d)
    cod_idx = monomial_index(L.nvars, d + 1)
    ndom = len(dom)
    ncod = len(cod_idx)
    nrows = L.nrows * ncod
    ncols = L.ncols * ndom
    data = [[0] * ncols for _ in range(nrows)]
    for t in range(L.nvars):
        block = L.coeffs[t].data
        # (domain index, codomain index) of x_t * x^e, computed once per (t, e)
        shifted = []
        for a, e in enumerate(dom):
            e2 = list(e)
            e2[t] += 1
            shifted.append((a, cod_idx[tuple(e2)]))
        for i in range(L.nrows):
            brow = block[i]
            row_base = i * ncod
            for j in range(L.ncols):
                c = brow[j]
                if c == 0:
                    continue
                col_base = j * ndom
                # x_t is fixed by (b, a), so each cell is written once
                for a, b in shifted:
                    data[row_base + b][col_base + a] = c
    return DenseMatrix(L.field, nrows, ncols, data)


class RankProof:
    """The one rank that decides onto_everywhere or generically_injective; immutable."""

    __slots__ = ("full", "rank", "target", "shape", "over")
    def __init__(self, full: bool, rank: int, target: int, shape: tuple[int, int], over: str):
        self.full = full         # the rank reaches the target
        self.rank = rank
        self.target = target     # the full rank: rows of an onto map, columns of an injective one
        self.shape = shape
        self.over = over         # field of the deciding rank: "Q" or "Fp:<p>"

    def __str__(self):
        rel = "=" if self.full else "<"
        return (f"rank {self.rank} {rel} {self.target} of the "
                f"{self.shape[0]}x{self.shape[1]} multiplication map over {self.over}")


def onto_everywhere(P: LinearFormMatrix) -> RankProof:
    """Decide whether P : O^a -> O(1)^b on P^n is onto at every point.

    The points are those over the algebraic closure, and one rank decides,
    for any number n + 1 of variables: P is onto at every point iff it is
    onto on sections in twist b-1, that is iff
    rank mult_map(P, b-1) = b * |S_b|.

    If P is onto at every point, its kernel K is a vector bundle resolved
    by the Buchsbaum-Rim complex of P, which is exact wherever the maximal
    minors generate the unit ideal, here everywhere:
    0 -> C_{a-b+1} -> ... -> C_2 -> K -> 0 with C_i = O(-b-i+2)^{m_i}.
    Splitting it into short exact sequences, H^1(K(k)) is built from
    subquotients of H^{i-1}(C_i(k)), i >= 2.  Line bundles on P^n have no
    cohomology in degrees 1..n-1, so only H^n(C_{n+1}(k)) =
    H^n(O(k-b-n+1))^m can be nonzero, and it vanishes for k >= b-1.  Then
    H^0(O(k)^a) -> H^0(O(k+1)^b) is onto.  Conversely, if P is not onto at
    a point x, the image of P(x) is a proper subspace of the fiber, and
    every section in the image takes its value at x inside it; the globally
    generated O(b)^b has a section whose value at x lies outside, so the
    map on sections in twist b-1 is not onto.  Rank does not change under
    field extension, so the rank over the base field decides the statement
    over its algebraic closure.

    Over Q the rank is taken mod 32003 first (_rank_proof).  A map
    O(-1)^v -> O^w is injective at every point iff its transpose
    O^w -> O(1)^v is onto there, so the same test decides left maps.
    """
    b = P.nrows
    return _rank_proof(P, b - 1, b * monomial_count(P.nvars, b))


def generically_injective(P: LinearFormMatrix) -> RankProof:
    """Decide whether P : O(-1)^v -> O^w on P^n is injective as a sheaf map.

    That is, injective at a general point, or of generic rank v; one rank
    decides, for any number n + 1 of variables: P is injective iff it is
    injective on sections of degree v-1, that is iff
    rank mult_map(P, v-1) = v * |S_{v-1}|.

    If P is injective, it has a left inverse over the fraction field of the
    polynomial ring, so it is injective on the sections of every degree.
    If P is not injective, its generic rank r is < v.  Take r+1 columns of
    rank r and r rows with a nonzero r x r minor in them.  Those rows span
    the rows of the r+1 columns over the fraction field, so by Cramer's
    rule the r+1 signed r x r minors of the r x (r+1) block, one of them
    nonzero, form a kernel vector of P with entries of degree r <= v-1.
    Multiplied by x_0^(v-1-r) it is a nonzero kernel vector of degree v-1.
    Rank does not change under field extension, so the verdict holds over
    the algebraic closure, and no field elements are needed: it works over
    F_2 as well.  Over Q the rank is taken mod 32003 first (_rank_proof).
    """
    v = P.ncols
    return _rank_proof(P, v - 1, v * monomial_count(P.nvars, v - 1))


def _rank_proof(P: LinearFormMatrix, d: int, target: int) -> RankProof:
    """The rank of mult_map(P, d) against its full value `target`.

    The rank is DenseMatrix.rank_over's: over Q a rank mod 32003 that
    reaches `target` proves full rank, over "Fp:32003", and any other
    verdict over Q is reported over "Q".
    """
    m = mult_map(P, d)
    r, over = m.rank_over()
    return RankProof(r == target, r, target, (m.nrows, m.ncols),
                     over if r == target else P.field.name)


def linear_locus(L: LinearFormMatrix) -> list[list]:
    """Common zero locus of the entries of a single row or column of L.

    A basis of the kernel of the coefficient matrix of those linear forms:
    n + 1 - len(basis) is that matrix's rank, and the locus is the linear
    subspace the basis spans, empty when the basis is.
    """
    forms = [L.entry_form(i, j) for i in range(L.nrows) for j in range(L.ncols)]
    return DenseMatrix(L.field, len(forms), L.nvars, forms).right_kernel().transpose().data


def compose_check(B: LinearFormMatrix, A: LinearFormMatrix) -> bool:
    """True iff the product B*A vanishes identically as a matrix of quadrics.

    The columns of mult_map(A, 0) are the columns of A as vectors of linear
    forms, so mult_map(B, 1) carries them to the columns of B*A as vectors
    of quadrics: one matrix product holds every coefficient.
    """
    if B.ncols != A.nrows:
        raise ShapeMismatchError(f"composite needs {B.ncols} = {A.nrows}")
    if B.nvars != A.nvars or B.field != A.field:
        raise ShapeMismatchError("composite needs matching variables and field")
    return mult_map(B, 1).matmul(mult_map(A, 0)).is_zero()


class Certificate:
    """The onto_everywhere verdicts of a complex A, B with B*A = 0; immutable."""

    __slots__ = ("left", "right")
    def __init__(self, left: bool, right: bool):
        self.left = left         # A^T onto at every point: A injective at every point
        self.right = right       # B onto at every point

    def __eq__(self, other):
        return isinstance(other, Certificate) and (self.left, self.right) == (other.left, other.right)

    def __hash__(self):
        return hash((self.left, self.right))

    @property
    def clean(self) -> bool:
        return self.left and self.right

    def dual(self) -> "Certificate":
        """The verdicts of the dual complex B^T, A^T."""
        return Certificate(self.right, self.left)


def certify(A: LinearFormMatrix, B: LinearFormMatrix) -> Certificate:
    """Check B*A = 0 and take both onto_everywhere proofs, for any number
    of variables; raises MonadLabError when the composite does not vanish."""
    if not compose_check(B, A):
        raise MonadLabError("composite does not vanish; not a monad")
    return Certificate(onto_everywhere(A.transpose()).full, onto_everywhere(B).full)


# ---------------------------------------------------------------------------
# readable construction of linear forms

_AXIS_NAMES = {3: ("x", "y", "z"), 4: ("x", "y", "z", "w")}


def parse_linear_form(text: str, nvars: int):
    """Parse a linear form like "x - 2*w" or "3*x1" into coefficients.

    Accepts variable names x0..x{nvars-1}; the aliases x,y,z(,w) are
    available for 3 or 4 variables. Constant terms other than 0 are refused.
    """
    names = {f"x{i}": i for i in range(nvars)}
    for i, alias in enumerate(_AXIS_NAMES.get(nvars, ())):
        names[alias] = i
    coeffs = [0] * nvars
    cleaned = text.replace(" ", "")
    if cleaned in ("", "0"):
        return coeffs
    # split into signed terms
    terms = []
    cur = ""
    for ch in cleaned:
        if ch in "+-" and cur:
            terms.append(cur)
            cur = ch if ch == "-" else ""
        else:
            cur += ch if ch != "+" else ""
    terms.append(cur)
    for term in terms:
        sign = 1
        body = term
        while body.startswith("-"):
            sign = -sign
            body = body[1:]
        if "*" in body:
            c_text, var = body.split("*", 1)
            coeff = sign * QQ.coerce(c_text)
        else:
            var = body
            coeff = sign
        if var not in names:
            raise ValueError(f"unknown variable {var!r} in linear form {text!r}")
        coeffs[names[var]] += coeff
    return coeffs


def forms_matrix(field, nvars: int, rows) -> LinearFormMatrix:
    """Build a LinearFormMatrix from string entries, e.g. [["-y","x","z","w"]]."""
    entries = [[parse_linear_form(e, nvars) for e in row] for row in rows]
    return LinearFormMatrix.from_entry_forms(field, nvars, entries)
