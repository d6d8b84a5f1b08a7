"""Exact scalars (Q and one quadratic extension Q(sqrt d)) and linear algebra.

Rational numbers are plain ``fractions.Fraction``.  Irrational values are
``ExactScalar`` instances ``a + b*sqrt(d)`` with ``b != 0`` and ``d`` a
squarefree integer (possibly negative); arithmetic that lands back in Q
returns a ``Fraction`` again, so rationality is visible in the type.
Matrices and polynomials are generic over both scalar kinds.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import ExtensionDegreeTooHigh, ParseError

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)
_RATIONAL_RE = re.compile(r"\s*([+-]?)([0-9]+)(?:/([0-9]+))?\s*")
# the interpreter's default limit on int() of a decimal string: a longer
# numerator or denominator is refused, whatever the limit is set to
_MAX_DIGITS = 4300
# the least limit an interpreter can set, so a chunk of this many digits
# converts under every limit
_CHUNK_DIGITS = 640


def rat(x) -> Fraction:
    """Coerce an int, string like ``-3/4``, or Fraction to Fraction.  Other
    string forms (``1e3000000`` takes seconds) and a numerator or
    denominator of more than ``_MAX_DIGITS`` digits raise ParseError; the
    answer does not depend on the interpreter's limit on converting
    decimal strings to int."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        m = _RATIONAL_RE.fullmatch(x)
        if not m:
            raise ParseError(f"not a rational p/q: {x[:40]!r}")
        if len(x) <= _CHUNK_DIGITS:
            return Fraction(x)
        sign, num, den = m.groups()
        if max(len(num), len(den or "")) > _MAX_DIGITS:
            raise ParseError(f"more than {_MAX_DIGITS} digits in a rational p/q: "
                             f"{x[:40]!r}...")
        num, den = _digits_to_int(num), _digits_to_int(den or "1")
        if not den:
            raise ZeroDivisionError(f"zero denominator in {x[:40]!r}...")
        return Fraction(-num if sign == "-" else num, den)
    raise TypeError(f"not a rational: {x!r}")


def _digits_to_int(digits: str) -> int:
    """int(digits) for ASCII digits, converted ``_CHUNK_DIGITS`` at a time."""
    n = 0
    for i in range(0, len(digits), _CHUNK_DIGITS):
        chunk = digits[i:i + _CHUNK_DIGITS]
        n = n * 10 ** len(chunk) + int(chunk)
    return n


def format_rat(x: Fraction) -> str:
    """Serialize as ``p/q`` with the denominator omitted when 1."""
    x = rat(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (d, k) with n = d*k**2 and d squarefree (sign kept on d)."""
    if n == 0:
        return 0, 1
    sign = 1 if n > 0 else -1
    n = abs(n)
    d, k = 1, 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            k *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    return sign * d * n, k


def _real_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d), d > 0: a^2 against d*b^2 if the signs differ."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > d * b * b else sb


@dataclass(frozen=True)
class ExactScalar:
    """Irrational element a + b*sqrt(d) of Q(sqrt d); b is never zero.

    Construction goes through :func:`make_scalar`, which demotes b == 0 to a
    plain Fraction; that keeps the "all nonrational scalars share one d"
    bookkeeping local to actual surds.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self):
        if self.b == 0:
            raise ValueError("rational values are represented as Fraction")

    @property
    def conjugate(self) -> "ExactScalar":
        return ExactScalar(self.a, -self.b, self.d)

    def __bool__(self) -> bool:
        return True  # b != 0 means the value is irrational, hence nonzero

    def __neg__(self):
        return ExactScalar(-self.a, -self.b, self.d)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.a + other, self.b, self.d)
        if isinstance(other, ExactScalar):
            if other.d != self.d:
                raise ExtensionDegreeTooHigh(
                    f"mixing sqrt({self.d}) with sqrt({other.d})")
            return make_scalar(self.a + other.a, self.b + other.b, self.d)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return ZERO
            return ExactScalar(self.a * other, self.b * other, self.d)
        if isinstance(other, ExactScalar):
            if other.d != self.d:
                raise ExtensionDegreeTooHigh(
                    f"mixing sqrt({self.d}) with sqrt({other.d})")
            return make_scalar(
                self.a * other.a + self.b * other.b * self.d,
                self.a * other.b + self.b * other.a,
                self.d,
            )
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d
        # norm != 0 because d is squarefree and not a perfect square
        return ExactScalar(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.a / other, self.b / other, self.d)
        if isinstance(other, ExactScalar):
            return self * other.inverse()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.inverse() * other

    def real_sign(self) -> int:
        """Sign of the value as a real number; requires d > 0."""
        if self.d < 0:
            raise ValueError("not a real number")
        return _real_sign(self.a, self.b, self.d)

    def __repr__(self):
        return f"({format_rat(self.a)}+{format_rat(self.b)}*sqrt({self.d}))"


Scalar = Union[Fraction, ExactScalar]


def make_scalar(a, b=0, d: int = 0) -> Scalar:
    """Canonical scalar a + b*sqrt(d): Fraction when b = 0, surd otherwise."""
    a, b = rat(a), rat(b)
    if b == 0 or d == 0:
        return a
    d0, k = squarefree_split(d)
    if d0 == 1:
        return a + b * k
    return ExactScalar(a, b * k, d0)


def conj(x: Scalar) -> Scalar:
    return x.conjugate if isinstance(x, ExactScalar) else x


def scalar_parts(x: Scalar) -> tuple[Fraction, Fraction, int]:
    if isinstance(x, ExactScalar):
        return x.a, x.b, x.d
    return rat(x), ZERO, 0


def scalar_d(x: Scalar) -> int:
    return x.d if isinstance(x, ExactScalar) else 0


def scalar_sort_key(x: Scalar):
    a, b, _ = scalar_parts(x)
    return (a, b)


def is_complex_positive(x: Scalar) -> bool:
    """Positivity of a + b*sqrt(d): Re > 0, or Re = 0 and Im > 0."""
    a, b, d = scalar_parts(x)
    if d < 0:
        return a > 0 or (a == 0 and b > 0)
    if b == 0:
        return a > 0
    return x.real_sign() > 0


def scalar_to_json(x: Scalar) -> dict:
    a, b, d = scalar_parts(x)
    return {"a": format_rat(a), "b": format_rat(b), "d": d}


# ----------------------------------------------------------------------------
# vectors


Vector = tuple

def vec_is_zero(u: Vector) -> bool:
    return all(not x for x in u)


def unit_vector(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


# ----------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable dense matrix over Fraction / ExactScalar entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        data = tuple(tuple(rat(x) if isinstance(x, (int, str)) else x
                           for x in row) for row in entries)
        self.entries = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(r) != self.cols for r in data):
            raise ValueError("ragged matrix")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def from_columns(cls, cols: Sequence[Vector]) -> "Matrix":
        n = len(cols[0])
        return cls([[c[i] for c in cols] for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __add__(self, other):
        return Matrix([[x + y for x, y in zip(r, s)]
                       for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return Matrix([[x - y for x, y in zip(r, s)]
                       for r, s in zip(self.entries, other.entries)])

    def scale(self, c) -> "Matrix":
        return Matrix([[c * x for x in row] for row in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        return Matrix([[_dot(row, col) for col in bt] for row in self.entries])

    def apply(self, v: Vector) -> Vector:
        return tuple(_dot(row, v) for row in self.entries)

    def is_zero(self) -> bool:
        return all(vec_is_zero(r) for r in self.entries)

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _dot(u, v):
    acc = ZERO
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


# A row over Z[sqrt d] is a pair of sparse integer rows (a, b), column -> int,
# standing for a + b*sqrt(d); b is empty for rational rows.
_IntRow = tuple[dict, dict]


def _same_d(d: int, e: int) -> int:
    """The one extension of two operands (0 for rational ones)."""
    if d and e and d != e:
        raise ExtensionDegreeTooHigh(f"mixing sqrt({d}) with sqrt({e})")
    return d or e


def _scaled_vector(v: Vector) -> tuple[int, int, dict, dict]:
    """(den, d, a, b) with ``den * v = a + b*sqrt(d)``: den is the lcm of
    the denominators, a and b are sparse integer rows (index -> int), and
    b is empty with d = 0 when v is rational.  Raises ExtensionDegreeTooHigh
    if the entries use two different d."""
    re, im, d = {}, {}, 0
    for k, x in enumerate(v):
        if not x:
            continue
        if isinstance(x, ExactScalar):
            d = _same_d(d, x.d)
            im[k] = x.b
            if x.a:
                re[k] = x.a
        else:
            re[k] = x
    den = lcm(*(x.denominator for x in re.values()),
              *(x.denominator for x in im.values()))
    return (den, d, {k: x.numerator * (den // x.denominator) for k, x in re.items()},
            {k: x.numerator * (den // x.denominator) for k, x in im.items()})


def _scaled_rows(vectors: Iterable[Vector]) -> tuple[int, int, list[_IntRow]]:
    """(den, d, rows) with ``den * v_i = a_i + b_i*sqrt(d)`` for sparse
    integer rows (a_i, b_i) and den the lcm over all vectors."""
    parts = [_scaled_vector(v) for v in vectors]
    den, d = lcm(*(p[0] for p in parts)), 0
    rows = []
    for vd, e, a, b in parts:
        d = _same_d(d, e)
        f = den // vd
        rows.append((a, b) if f == 1 else ({k: f * x for k, x in a.items()},
                                           {k: f * x for k, x in b.items()}))
    return den, d, rows


def _unscaled_vector(den: int, d: int, a: Iterable[tuple[int, int]],
                    b: Iterable[tuple[int, int]], width: int) -> Vector:
    """The vector ``(a + b*sqrt(d)) / den`` of the given width, from the
    (index, int) pairs of a and b, with canonical entries: a Fraction where
    the surd part is zero, an ExactScalar elsewhere."""
    out = [ZERO] * width
    for k, x in a:
        if x:
            out[k] = Fraction(x, den)
    for k, x in b:
        if x:
            out[k] = ExactScalar(out[k], Fraction(x, den), d)
    return tuple(out)


def _sub_multiple(dst: dict, f: int, src: dict) -> None:
    """``dst -= f*src`` in place, dropping entries that cancel."""
    for k, x in src.items():
        y = dst.get(k, 0) - f * x
        if y:
            dst[k] = y
        else:
            del dst[k]


def _mul_sub(p: tuple[int, int], row: _IntRow, f: tuple[int, int],
             prow: _IntRow, d: int) -> _IntRow:
    """``p*row - f*prow`` for p, f in Z[sqrt d] given as pairs (a, b)."""
    (pa, pb), (ra, rb), (fa, fb), (qa, qb) = p, row, f, prow
    if pa == 1:
        a, b = ra.copy(), rb.copy()
    else:
        a = {k: pa * x for k, x in ra.items()} if pa else {}
        b = {k: pa * x for k, x in rb.items()} if pa else {}
    if pb:
        _sub_multiple(a, -pb * d, rb)
        _sub_multiple(b, -pb, ra)
    if fa:
        _sub_multiple(a, fa, qa)
        _sub_multiple(b, fa, qb)
    if fb:
        _sub_multiple(a, fb * d, qb)
        _sub_multiple(b, fb, qa)
    return a, b


def _combine(p: int, row: _IntRow, fa: int, fb: int, prow: _IntRow,
             d: int) -> _IntRow:
    """``p*row - (fa + fb*sqrt d)*prow`` divided by its content."""
    a, b = _mul_sub((p, 0), row, (fa, fb), prow, d)
    g = gcd(*a.values(), *b.values())
    if g > 1:
        a = {k: x // g for k, x in a.items()}
        b = {k: x // g for k, x in b.items()}
    return a, b


def _rref_ints(rows: list[_IntRow], d: int) -> tuple[list[_IntRow], list[int]]:
    """Reduced row echelon form (rows, pivot_columns) of the span of
    integer rows over Z[sqrt d] (d = 0 for rational rows); the input dicts
    are never changed.

    Fraction-free Gauss-Jordan on sparse rows.  A pivot a + b*sqrt(d) with
    b != 0 becomes the rational integer a^2 - d*b^2 by multiplying its row
    with the conjugate.  For a pivot p, every other row with an entry f in
    the pivot column becomes ``p*row - f*pivot_row`` (p and f first divided
    by their gcd) and is divided by its content.  Each returned row is
    primitive with a rational integer p at its pivot, so row / p is the
    RREF row, and the row is unique for the span up to its sign.
    """
    pending = [row for row in rows if row[0] or row[1]]
    done: list[_IntRow] = []
    pivots: list[int] = []
    for c in sorted({k for a, b in pending for k in (*a, *b)}):
        if not pending:
            break
        # a rational pivot needs no conjugate; a sparse one keeps fill-in low
        cands = [(c in b, len(a) + len(b), i)
                 for i, (a, b) in enumerate(pending) if c in a or c in b]
        if not cands:
            continue
        pivot = pending.pop(min(cands)[2])
        if c in pivot[1]:
            # (pa - pb*sqrt d) * pivot_row, written as 0*row - f*pivot_row
            pivot = _combine(0, ({}, {}), -pivot[0].get(c, 0), pivot[1][c],
                             pivot, d)
        p = pivot[0][c]
        for group in (done, pending):
            for i, row in enumerate(group):
                fa, fb = row[0].get(c, 0), row[1].get(c, 0)
                if fa or fb:
                    g = gcd(p, fa, fb)
                    group[i] = _combine(p // g, row, fa // g, fb // g, pivot, d)
        pending = [row for row in pending if row[0] or row[1]]
        done.append(pivot)
        pivots.append(c)
    for i, (a, b) in enumerate(done):
        g = gcd(*a.values(), *b.values())
        if g > 1:
            done[i] = ({k: x // g for k, x in a.items()},
                       {k: x // g for k, x in b.items()})
    return done, pivots


def _rref_rows(rows: list[list]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form of the rows; returns (rows, pivot_columns),
    zero rows padding the result to the input's length.  Raises
    ExtensionDegreeTooHigh if the entries use two different d."""
    if not rows:
        return rows, []
    width = len(rows[0])
    _, d, scaled = _scaled_rows(rows)
    reduced, pivots = _rref_ints(scaled, d)
    out = [_unscaled_vector(a[c], d, a.items(), b.items(), width)
           for (a, b), c in zip(reduced, pivots)]
    out.extend((ZERO,) * width for _ in range(len(rows) - len(out)))
    return out, pivots


def rref(m: Matrix) -> tuple[Matrix, int, list[int]]:
    """Reduced row echelon form: (reduced, rank, pivot_columns)."""
    rows, pivots = _rref_rows([list(r) for r in m.entries])
    return Matrix(rows), len(pivots), pivots


def _kernel_ints(rows: list[_IntRow], d: int,
                 width: int) -> tuple[list[_IntRow], list[int]]:
    """Null space of the matrix with the given integer rows over Z[sqrt d]
    and ``width`` columns, as :func:`_rref_ints` returns it."""
    reduced, pivots = _rref_ints(rows, d)
    basis = []
    for f in sorted(set(range(width)) - set(pivots)):
        # e_f - sum_r (row_r[f] / p_r) e_(p_r) over pivots p_r, times their lcm
        used = [(r, p) for r, p in zip(reduced, pivots) if f in r[0] or f in r[1]]
        den = lcm(*(a[p] for (a, _), p in used))
        basis.append(({f: den, **{p: -den // a[p] * a[f] for (a, _), p in used if f in a}},
                      {p: -den // a[p] * b[f] for (a, b), p in used if f in b}))
    return _rref_ints(basis, d)


def kernel(m: Matrix) -> list[Vector]:
    """Canonical RREF basis of the null space of m."""
    _, d, rows = _scaled_rows(m.entries)
    basis, pivots = _kernel_ints(rows, d, m.cols)
    return [_unscaled_vector(a[p], d, a.items(), b.items(), m.cols)
            for (a, b), p in zip(basis, pivots)]


def solve_linear(m: Matrix, rhs: Vector) -> Optional[Vector]:
    """Particular solution of m x = rhs (free variables 0), or None."""
    return linear_solver(m)[1](rhs)


def linear_solver(m: Matrix) -> tuple[int, Callable[[Vector], Optional[Vector]]]:
    """Factor m once for repeated solves: (rank, solve).

    The columns of ``D*m`` (D the lcm of the denominators), column j tagged
    with a 1 at position ``R + n-1-j`` for R rows and n columns, go through
    one :func:`_rref_ints`.  A reduced row with its pivot among the first R
    positions is ``(D*m*x, x)`` for the x in its tags, and these rows are
    the echelon basis of the column span.  ``solve`` writes ``b`` over that
    basis from its entries at the pivots and returns None when the residual
    is nonzero (``b`` is outside the span), else the combination of the
    tags, free unknowns 0.  Raises ExtensionDegreeTooHigh if m and b use
    two different d.
    """
    R, n = m.rows, m.cols
    den, d, rows = _scaled_rows(zip(*m.entries))
    for j, (a, _) in enumerate(rows):
        a[R + n - 1 - j] = 1
    # With the tags reversed, a row that vanishes on m reduces to a kernel
    # vector whose pivot is its last nonzero unknown: a column that depends
    # on the columns before it, a free column.  Gauss-Jordan clears these
    # pivots from every solution row, so the free unknowns come out 0.
    reduced, pivots = _rref_ints(rows, d)
    rank = sum(p < R for p in pivots)
    top = lcm(*(a[p] for (a, _), p in zip(reduced, pivots[:rank])))
    basis = [(p, top // row[0][p], row) for row, p in zip(reduced, pivots[:rank])]

    def solve(rhs: Vector) -> Optional[Vector]:
        scale, e, ra, rb = _scaled_vector(rhs)
        e = _same_d(d, e)
        res = ({k: top * x for k, x in ra.items()}, {k: top * x for k, x in rb.items()})
        for p, f, row in basis:
            if p in ra or p in rb:
                res = _mul_sub((1, 0), res, (f * ra.get(p, 0), f * rb.get(p, 0)), row, e)
        a, b = res
        if any(k < R for k in (*a, *b)):
            return None  # b is outside the column span
        # the tags of a + b*sqrt(d) hold -scale*top/D times x
        return _unscaled_vector(scale * top, e,
                                ((R + n - 1 - k, -den * x) for k, x in a.items()),
                                ((R + n - 1 - k, -den * x) for k, x in b.items()), n)

    return rank, solve


def symmetric_signature(m: Matrix) -> tuple[int, int, int, Scalar]:
    """(n_pos, n_neg, n_zero, det) of a symmetric matrix over Q or Q(sqrt d),
    d > 0; d < 0 raises ValueError, as such a form has no signature.

    Fraction-free symmetric Bareiss elimination of ``D*m`` over Z[sqrt d]
    (an empty surd part for rational input), D the lcm of the denominators.
    Pivots come from the trailing diagonal, rows and columns swapped
    together; a zero diagonal first gets ``row_k += row_j``, ``col_k +=
    col_j`` for an entry m_kj != 0.  The pivots are leading principal minors
    of a congruent matrix (Sylvester), so each division is exact and p_k
    counts as positive when p_k*p_(k-1) > 0 (Jacobi, p_0 = 1).  An all-zero
    trailing block counts toward n_zero; det = p_n / D^n, 0 if n_zero > 0.
    """
    n = m.rows
    if m.entries != tuple(zip(*m.entries)):
        raise ValueError("symmetric matrix required")
    den, d, scaled = _scaled_rows(m.entries)
    if d < 0:
        raise ValueError(f"a form over the imaginary field Q(sqrt({d})) "
                         "has no signature")
    rows = dict(enumerate(scaled))
    pos, prev, prev_sign = 0, (1, 0), 1
    while rows:
        k = next((i for i, (a, b) in rows.items() if i in a or i in b), None)
        if k is None:
            k = next((i for i, (a, b) in rows.items() if a or b), None)
            if k is None:
                break  # the trailing block is zero
            j = next(iter(rows[k][0] or rows[k][1]))
            # the new entry (k, k) is m_kk + 2*m_kj + m_jj = 2*m_kj
            rows[k] = _mul_sub((1, 0), rows[k], (-1, 0), rows[j], d)
            for part in (part for row in rows.values() for part in row):
                if j in part:
                    _sub_multiple(part, -1, {k: part[j]})
        prow = rows.pop(k)
        p = (prow[0].get(k, 0), prow[1].get(k, 0))
        sign = _real_sign(*p, d)
        pos += sign == prev_sign
        # (p*row - f*prow) / prev: times the conjugate of prev, over its norm
        qa, qb = prev
        norm = qa * qa - d * qb * qb if qb else qa
        for i, row in rows.items():
            a, b = _mul_sub(p, row, (row[0].get(k, 0), row[1].get(k, 0)), prow, d)
            if qb:
                a, b = _mul_sub((qa, -qb), (a, b), (0, 0), prow, d)
            rows[i] = ({c: x // norm for c, x in a.items()},
                       {c: x // norm for c, x in b.items()})
        prev, prev_sign = p, sign
    zero = len(rows)
    det = ZERO if zero else _unscaled_vector(den ** n, d, [(0, prev[0])],
                                             [(0, prev[1])], 1)[0]
    return pos, n - zero - pos, zero, det


# ----------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [rat(c) if isinstance(c, (int, str)) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    @property
    def lead(self):
        return self.coeffs[-1] if self.coeffs else ZERO

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return Poly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly([])
        out = [ZERO] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if not ca:
                continue
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] = out[i + j] + ca * cb
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn, dq = other.degree, self.degree - other.degree
        if dq < 0:
            return Poly([]), Poly(rem)
        lead = other.lead
        inv = (ONE / lead) if isinstance(lead, Fraction) else lead.inverse()
        quo = [ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            if len(rem) < dn + k + 1 or not rem[dn + k]:
                continue
            f = rem[dn + k] * inv
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[i + k] = rem[i + k] - f * c
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other: "Poly") -> "Poly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        lead = self.lead
        inv = (ONE / lead) if isinstance(lead, Fraction) else lead.inverse()
        return Poly([c * inv for c in self.coeffs])

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_scalar(self, x):
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m: Matrix) -> Matrix:
        n = m.rows
        acc = Matrix.zero(n, n)
        for c in reversed(self.coeffs):
            acc = (acc @ m) + Matrix.identity(n).scale(c)
        return acc

    def compose_mod(self, arg: "Poly", mod: "Poly") -> "Poly":
        """self(arg) reduced modulo mod."""
        acc = Poly([])
        for c in reversed(self.coeffs):
            acc = (acc * arg + Poly([c])) % mod
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)})"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly([])
    return (a * b).exact_div(poly_gcd(a, b)).monic()


def poly_ext_gcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    s0, s1 = Poly([1]), Poly([])
    t0, t1 = Poly([]), Poly([1])
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    if r0.is_zero():
        return r0, s0, t0
    lead = r0.lead
    inv = (ONE / lead) if isinstance(lead, Fraction) else lead.inverse()
    return r0.monic(), s0 * inv, t0 * inv


def squarefree_part(p: Poly) -> Poly:
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return p.exact_div(g).monic()


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = prod f_i^i with the f_i squarefree, coprime."""
    p = p.monic()
    out = []
    g = poly_gcd(p, p.derivative())
    if g.degree == 0:
        return [(p, 1)]
    w = p.exact_div(g)
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        f = w.exact_div(y)
        if f.degree > 0:
            out.append((f.monic(), i))
        w, g = y, g.exact_div(y)
        i += 1
    return out


# --- characteristic polynomial -----------------------------------------------


def _char_poly_bareiss_int(scaled: list[list[int]]) -> list[int]:
    """Coefficients (constant first) of det(tI - M) for an integer matrix M,
    by fraction-free (Bareiss) elimination of tI - M over Z[t].  Each entry
    is a plain integer coefficient list, trimmed, so ``[]`` is zero."""

    def bareiss(p, q, r, s, div):
        # (p*q - r*s) / div; the division is exact
        num = [0] * (max(len(p) + len(q), len(r) + len(s)) - 1)
        for f, g, sign in ((p, q, 1), (r, s, -1)):
            for i, x in enumerate(f):
                if x:
                    for j, y in enumerate(g):
                        num[i + j] += sign * x * y
        while num and not num[-1]:
            num.pop()
        quo = [0] * max(len(num) - len(div) + 1, 0)
        for k in range(len(quo) - 1, -1, -1):
            c, rem = divmod(num[k + len(div) - 1], div[-1])
            assert rem == 0, "fraction-free division must be exact"
            quo[k] = c
            for i, y in enumerate(div):
                num[i + k] -= c * y
        assert not any(num), "fraction-free division must be exact"
        return quo

    n = len(scaled)
    a = [[[-x, 1] if i == j else [-x] if x else []
          for j, x in enumerate(row)] for i, row in enumerate(scaled)]
    prev = [1]
    sign = 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                # impossible for tI - M: it would force a zero determinant
                raise ArithmeticError("characteristic matrix went singular")
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = bareiss(a[k][k], a[i][j], a[i][k], a[k][j], prev)
            a[i][k] = []
        prev = a[k][k]
    return [sign * c for c in a[n - 1][n - 1]]


def char_poly(m: Matrix) -> Poly:
    """Monic characteristic polynomial det(tI - m) of a rational square
    matrix, fraction-free.  Raises ValueError for a non-square matrix or
    one with extension scalars."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    if not all(isinstance(x, Fraction) for row in m.entries for x in row):
        raise ValueError("char_poly needs a rational matrix")
    n = m.rows
    if n == 0:
        return Poly([1])
    scale = lcm(*(x.denominator for row in m.entries for x in row))
    coeffs = _char_poly_bareiss_int([[x.numerator * (scale // x.denominator)
                                      for x in row] for row in m.entries])
    # char_m(t) = D^-n * char_{D m}(D t)
    return Poly([Fraction(c * scale ** k, scale ** n) for k, c in enumerate(coeffs)])


def min_poly(m: Union[Matrix, tuple[int, int, list[_IntRow]]]) -> Poly:
    """Monic minimal polynomial of a rational square matrix: a Matrix, or
    the scaled integer rows (scale, d, rows) of one, ``(a_i +
    b_i*sqrt(d)) / scale`` for its row i, as :func:`_scaled_rows` and
    :meth:`Subspace.ad_block` give them.

    Works on the integer matrix ``A = scale*m`` (the rows a_i).  Each
    standard basis vector that the polynomial found so far does not
    annihilate (integer Horner test) contributes its Krylov annihilator,
    and the lcm of those is the minimal polynomial of A; then ``mp_m(t) =
    mp_A(scale*t) / (lead * scale^k)``.  Raises ValueError for a
    non-square matrix or one with extension scalars (a nonzero b_i).
    """
    if isinstance(m, Matrix):
        if m.rows != m.cols:
            raise ValueError("square matrix required")
        if not all(isinstance(x, Fraction) for row in m.entries for x in row):
            raise ValueError("min_poly needs a rational matrix")
        m = _scaled_rows(m.entries)
    scale, _, rows = m
    if any(b for _, b in rows):
        raise ValueError("min_poly needs a rational matrix")
    n = len(rows)
    rows = [list(a.items()) for a, _ in rows]
    result = Poly([1])
    ints = [1]  # primitive integer multiple of result
    for start in range(n):
        if result.degree >= 1:
            acc = [0] * n  # Horner: acc = result(A) e_start, up to a scalar
            acc[start] = ints[-1]
            for c in reversed(ints[:-1]):
                acc = _int_apply(rows, acc)
                acc[start] += c
            if not any(acc):
                continue
        result = poly_lcm(result, Poly(_krylov_annihilator(rows, start)))
        ints = _int_clear(result)
        if result.degree == n:
            break
    k = result.degree
    return Poly([Fraction(c, ints[-1] * scale ** (k - j))
                 for j, c in enumerate(ints)])


def _int_apply(rows: list[list[tuple[int, int]]], v: list[int]) -> list[int]:
    return [sum(a * v[j] for j, a in row) for row in rows]


def _krylov_annihilator(rows: list[list[tuple[int, int]]], start: int) -> list[int]:
    """Integer coefficients of the lowest-degree p with p(A) e_start = 0.

    ``A^k e_start``, tagged with a 1 at position ``n + k``, is reduced by
    :func:`_combine` against the earlier rows in insertion order, so its
    tags carry its combination of the powers of A.  The first row left with
    no entry below n holds p in its tags.
    """
    n = len(rows)
    echelon: list[tuple[int, _IntRow]] = []  # (pivot, row)
    power = [0] * n
    power[start] = 1
    while True:
        k = len(echelon)
        row = ({**{j: x for j, x in enumerate(power) if x}, n + k: 1}, {})
        for p, prow in echelon:
            f = row[0].get(p, 0)
            if f:
                g = gcd(prow[0][p], f)
                row = _combine(prow[0][p] // g, row, f // g, 0, prow, 0)
        pivot = min(row[0])
        if pivot >= n:
            return [row[0].get(n + j, 0) for j in range(k + 1)]
        echelon.append((pivot, row))
        power = _int_apply(rows, power)


# --- factorization over the scalar tower -------------------------------------


def _int_clear(p: Poly) -> list[int]:
    lcm = 1
    for c in p.coeffs:
        lcm = lcm * c.denominator // gcd(lcm, c.denominator)
    g = 0
    ints = [int(c * lcm) for c in p.coeffs]
    for c in ints:
        g = gcd(g, abs(c))
    return [c // g for c in ints] if g else ints


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def rational_roots(p: Poly) -> list[Fraction]:
    """All rational roots (without multiplicity), by divisor search."""
    if p.is_zero():
        raise ValueError("zero polynomial")
    roots = []
    coeffs = _int_clear(p)
    k = 0
    while coeffs[k] == 0:
        k += 1
    if k:
        roots.append(ZERO)
        coeffs = coeffs[k:]
    if len(coeffs) > 1:
        a0, an = coeffs[0], coeffs[-1]
        for num in _divisors(a0):
            for den in _divisors(an):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if p.eval_scalar(cand) == 0 and cand not in roots:
                        roots.append(cand)
    return roots


def _sqrt_rational(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _quadratic_roots(p_coef: Fraction, q_coef: Fraction) -> tuple[Scalar, Scalar]:
    """Roots of t^2 + p t + q over the tower."""
    disc = p_coef * p_coef - 4 * q_coef
    r = _sqrt_rational(disc) if disc >= 0 else None
    if r is not None:
        return (-p_coef + r) / 2, (-p_coef - r) / 2
    # disc = (m/n): sqrt = sqrt(m n)/n
    m_, n_ = disc.numerator, disc.denominator
    d, k = squarefree_split(m_ * n_)
    half_b = Fraction(k, 2 * n_)
    return (make_scalar(-p_coef / 2, half_b, d),
            make_scalar(-p_coef / 2, -half_b, d))


def _split_quartic(p: Poly) -> Optional[tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]]:
    """Split a monic rational quartic into two rational quadratics
    (t^2 + p1 t + q1)(t^2 + p2 t + q2) via the resolvent cubic."""
    e, c, b, a, lead = (list(p.coeffs) + [ZERO] * 5)[:5]
    assert lead == 1
    resolvent = Poly([-(a * a * e - 4 * b * e + c * c), a * c - 4 * e, -b, 1])
    for y0 in rational_roots(resolvent):
        disc = a * a - 4 * b + 4 * y0
        r = _sqrt_rational(disc)
        if r is None:
            continue
        p1, p2 = (a + r) / 2, (a - r) / 2
        if p1 != p2:
            # solve q1 + q2 = y0, p1*q2 + p2*q1 = c
            q2 = (c - p2 * y0) / (p1 - p2)
            q1 = y0 - q2
        else:
            dq = _sqrt_rational(y0 * y0 - 4 * e)
            if dq is None:
                continue
            q1, q2 = (y0 + dq) / 2, (y0 - dq) / 2
        f1 = Poly([q1, p1, 1])
        f2 = Poly([q2, p2, 1])
        if (f1 * f2) == p:
            return (p1, q1), (p2, q2)
    return None


def _factor_squarefree(p: Poly) -> list[Scalar]:
    """Roots of a monic squarefree rational polynomial, all lying in Q or a
    quadratic extension; raises ExtensionDegreeTooHigh otherwise."""
    roots: list[Scalar] = []
    p = p.monic()
    for r in rational_roots(p):
        roots.append(r)
        p = p.exact_div(Poly([-r, 1]))
    while p.degree > 0:
        if p.degree == 2:
            r1, r2 = _quadratic_roots(p.coeffs[1], p.coeffs[0])
            roots.extend([r1, r2])
            break
        if p.degree == 4:
            split = _split_quartic(p)
            if split is None:
                raise ExtensionDegreeTooHigh(
                    "quartic does not split into rational quadratics")
            for pq in split:
                roots.extend(_quadratic_roots(pq[0], pq[1]))
            break
        if p.degree % 2 == 0 and all(not c for c in p.coeffs[1::2]):
            # even polynomial h(t^2): peel rational roots of h
            h = Poly(p.coeffs[0::2])
            hr = rational_roots(h)
            if not hr:
                raise ExtensionDegreeTooHigh(
                    f"irreducible factor of degree {p.degree}")
            for s in hr:
                h = h.exact_div(Poly([-s, 1]))
                roots.extend(_quadratic_roots(ZERO, -s))
            if h.degree > 0:
                # re-expand the unsplit part back in t and keep going
                rem = [ZERO] * (2 * h.degree + 1)
                for i, cc in enumerate(h.coeffs):
                    rem[2 * i] = cc
                p = Poly(rem)
                if p.degree not in (2, 4):
                    raise ExtensionDegreeTooHigh(
                        f"irreducible factor of degree {p.degree}")
                continue
            break
        raise ExtensionDegreeTooHigh(
            f"irreducible factor of degree {p.degree} (odd, no rational root)")
    return roots


def factor_roots(p: Poly, single_extension: bool = True) -> list[tuple[Scalar, int]]:
    """Full factorization of a rational polynomial into roots with
    multiplicities over Q or quadratic extensions.

    With ``single_extension`` every irrational root must share one
    squarefree d; otherwise multiple quadratic fields may appear side by
    side (useful for sign-pattern classification only).
    """
    out: list[tuple[Scalar, int]] = []
    for f, mult in squarefree_decomposition(p):
        for root in _factor_squarefree(f):
            out.append((root, mult))
    if single_extension:
        ds = {scalar_d(r) for r, _ in out if scalar_d(r) != 0}
        if len(ds) > 1:
            raise ExtensionDegreeTooHigh(
                f"roots need two distinct quadratic extensions: {sorted(ds)}")
    out.sort(key=lambda rm: scalar_sort_key(rm[0]))
    return out


def eigenvalues(m: Matrix) -> list[tuple[Scalar, int]]:
    """Eigenvalues with multiplicities over Q or one quadratic extension."""
    return factor_roots(char_poly(m), single_extension=True)
