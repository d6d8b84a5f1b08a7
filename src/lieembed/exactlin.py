"""Exact scalars (Q and one quadratic extension Q(sqrt d)) and linear algebra.

Rational numbers are plain ``fractions.Fraction``.  Irrational values are
``ExactScalar`` instances ``a + b*sqrt(d)`` with ``b != 0`` and ``d`` a
non-square integer (possibly negative), squarefree but for primes above
the trial bound of :func:`squarefree_split`; arithmetic that lands back in Q
returns a ``Fraction`` again, so rationality is visible in the type.
The linear algebra takes a matrix in one form, its scaled integer rows
(D, d, rows): row i is ``(a_i + b_i*sqrt(d)) / D`` for sparse integer
rows a_i and b_i over Z[sqrt d], as :func:`_scaled_rows` gives them;
only :func:`rref` takes plain vectors.  A polynomial is its primitive
integer coefficients with a positive lead, lowest degree first: the tuple
:func:`min_poly` returns and the list every helper computes on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import ExtensionDegreeTooHigh, Frozen, ParseError

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
    """Coerce an int, string like ``-3/4``, or Fraction to Fraction, a
    string by :func:`_rat_pair`."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    return Fraction(*_rat_pair(x))


def _rat_pair(x) -> tuple[int, int]:
    """(p, q) in lowest terms with q > 0 and :func:`rat` (x) = p/q, a string
    parsed with no Fraction built.  Other string forms (``1e3000000`` takes
    seconds) and a numerator or denominator of more than ``_MAX_DIGITS``
    digits raise ParseError; the answer does not depend on the
    interpreter's limit on converting decimal strings to int."""
    if not isinstance(x, str):
        if isinstance(x, Fraction):
            return x.numerator, x.denominator
        if isinstance(x, int) and not isinstance(x, bool):
            return x, 1
        raise TypeError(f"not a rational: {x!r}")
    m = _RATIONAL_RE.fullmatch(x)
    if not m:
        raise ParseError(f"not a rational p/q: {x[:40]!r}")
    sign, num, den = m.groups()
    if len(x) <= _CHUNK_DIGITS:
        num = -int(num) if sign == "-" else int(num)
        if den is None:
            return num, 1
        den = int(den)
        if not den:  # what Fraction(num, 0) raises
            raise ZeroDivisionError(f"Fraction({num}, 0)")
    else:
        if max(len(num), len(den or "")) > _MAX_DIGITS:
            raise ParseError(f"more than {_MAX_DIGITS} digits in a rational p/q: "
                             f"{x[:40]!r}...")
        num, den = _digits_to_int(num), _digits_to_int(den or "1")
        if not den:
            raise ZeroDivisionError(f"zero denominator in {x[:40]!r}...")
        num = -num if sign == "-" else num
    g = gcd(num, den)
    return num // g, den // g


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


# squarefree_split tries no divisor above this: an embed search may split one
# discriminant per screened candidate, so a call stays within ~5*10^4 divisions
_TRIAL_BOUND = 10 ** 5


def squarefree_split(n: int) -> tuple[int, int]:
    """Return (d, k) with n = d*k**2 (sign kept on d) and d squarefree but
    for primes above _TRIAL_BOUND.

    Trial division takes out each prime p <= _TRIAL_BOUND with p^3 <= m,
    the part of |n| not yet factored, and stops as soon as m is a square.
    Past p^3 > m, m is a prime or a product of two distinct primes.  Past
    the bound, m stays whole in d, which may then keep the square of a
    large prime: Q(sqrt d) is right, but d is not its canonical name.
    """
    if n == 0:
        return 0, 1
    sign, n = (1 if n > 0 else -1), abs(n)
    d, k, p = 1, 1, 2
    while True:
        r = isqrt(n)
        if r * r == n:
            return sign * d, k * r
        while p * p * p <= n and p <= _TRIAL_BOUND and n % p:
            p += 1 if p == 2 else 2
        if p * p * p > n or p > _TRIAL_BOUND:
            return sign * d * n, k
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        k *= p ** (e // 2)
        if e % 2:
            d *= p


def _real_sign(a, b, d: int) -> int:
    """Sign of a + b*sqrt(d), d > 0: a^2 against d*b^2 if the signs differ."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or not sb:
        return sa
    if not sa:
        return sb
    return sa if a * a > d * b * b else sb


class ExactScalar(Frozen):
    """Irrational element a + b*sqrt(d) of Q(sqrt d); b is never zero.

    :func:`make_scalar` builds one from any d and demotes b == 0 to a plain
    Fraction; arithmetic keeps the operands' d and demotes the
    same way.  That keeps the "all nonrational scalars share one d"
    bookkeeping local to actual surds.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        if b == 0:
            raise ValueError("rational values are represented as Fraction")
        setattr_ = object.__setattr__
        setattr_(self, "a", a)
        setattr_(self, "b", b)
        setattr_(self, "d", d)

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
            b = self.b + other.b
            return ExactScalar(self.a + other.a, b, self.d) if b else self.a + other.a
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
            a = self.a * other.a + self.b * other.b * self.d
            b = self.a * other.b + self.b * other.a
            return ExactScalar(a, b, self.d) if b else a
        return NotImplemented

    __rmul__ = __mul__

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.d
        # norm != 0 because d is not a perfect square
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
# matrices: scaled integer rows


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


def _primitive(row: _IntRow) -> _IntRow:
    """The row divided by its content, the gcd of its entries."""
    a, b = row
    g = gcd(*a.values(), *b.values())
    if g > 1:
        return {k: x // g for k, x in a.items()}, {k: x // g for k, x in b.items()}
    return row


def _combine(p: int, row: _IntRow, fa: int, fb: int, prow: _IntRow,
             d: int) -> _IntRow:
    """``p*row - (fa + fb*sqrt d)*prow`` divided by its content."""
    return _primitive(_mul_sub((p, 0), row, (fa, fb), prow, d))


def _rref_ints(rows: list[_IntRow], d: int,
               reverse: bool = False) -> tuple[list[_IntRow], list[int]]:
    """Reduced row echelon form (rows, pivot_columns) of the span of
    integer rows over Z[sqrt d] (d = 0 for rational rows), with the columns
    taken last to first if ``reverse``; the input dicts are never changed.

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
    for c in sorted({k for a, b in pending for k in (*a, *b)}, reverse=reverse):
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
    return [_primitive(row) for row in done], pivots


def rref(rows: Sequence[Vector]) -> tuple[list[Vector], list[int]]:
    """Reduced row echelon form of the span of the rows: (the nonzero
    reduced rows, their pivot columns), so the rank is the number of
    pivots.  Raises ExtensionDegreeTooHigh if the entries use two
    different d."""
    _, d, scaled = _scaled_rows(rows)
    reduced, pivots = _rref_ints(scaled, d)
    return [_unscaled_vector(a[c], d, a.items(), b.items(), len(rows[0]))
            for (a, b), c in zip(reduced, pivots)], pivots


def _kernel_ints(rows: list[_IntRow], d: int,
                 width: int) -> tuple[list[_IntRow], list[int]]:
    """Null space of the matrix with the given integer rows over Z[sqrt d]
    and ``width`` columns: (rows, pivots), each row an integer multiple of
    the RREF row with a rational integer at its pivot (not always
    primitive), pivots ascending.

    The columns are eliminated last to first, so a reduced row touches only
    its pivot and free columns below it.  For a free column f, e_f - sum_r
    (row_r[f] / p_r) e_(p_r) then starts at f and is zero at every other
    free column: it is already the kernel's RREF row with pivot f."""
    reduced, pivots = _rref_ints(rows, d, reverse=True)
    free = sorted(set(range(width)) - set(pivots))
    basis = []
    for f in free:
        # times the lcm of the pivots used
        used = [(r, p) for r, p in zip(reduced, pivots) if f in r[0] or f in r[1]]
        den = lcm(*(a[p] for (a, _), p in used))
        basis.append(({f: den, **{p: -den // a[p] * a[f] for (a, _), p in used if f in a}},
                      {p: -den // a[p] * b[f] for (a, b), p in used if f in b}))
    return basis, free


def linear_solver(m: tuple[int, int, list[_IntRow]], height: int
                  ) -> tuple[int, Callable[[tuple], Optional[Vector]]]:
    """Factor a matrix once for repeated solves: (rank, solve).

    ``m`` is the scaled integer columns (D, d, cols) of a matrix with
    ``height`` rows, column j being ``(a_j + b_j*sqrt(d)) / D``; ``solve``
    takes b in the scaled form (scale, e, a, b) of :func:`_scaled_vector`.

    The columns ``D*m_j``, column j tagged with a 1 at position ``R + n-1-j``
    for R rows and n columns, go through one :func:`_rref_ints`.  A reduced
    row with its pivot among the first R positions is ``(D*m*x, x)`` for the
    x in its tags, and these rows are the echelon basis of the column span.
    ``solve`` writes b over that basis from its entries at the pivots and
    returns None when the residual is nonzero (b is outside the span), else
    the combination of the tags, free unknowns 0.  Raises
    ExtensionDegreeTooHigh if m and b use two different d.
    """
    den, d, cols = m
    R, n = height, len(cols)
    rows = [({**a, R + n - 1 - j: 1}, b) for j, (a, b) in enumerate(cols)]
    # With the tags reversed, a row that vanishes on m reduces to a kernel
    # vector whose pivot is its last nonzero unknown: a column that depends
    # on the columns before it, a free column.  Gauss-Jordan clears these
    # pivots from every solution row, so the free unknowns come out 0.
    reduced, pivots = _rref_ints(rows, d)
    rank = sum(p < R for p in pivots)
    top = lcm(*(a[p] for (a, _), p in zip(reduced, pivots[:rank])))
    basis = [(p, top // row[0][p], row) for row, p in zip(reduced, pivots[:rank])]

    def solve(rhs: tuple[int, int, dict, dict]) -> Optional[Vector]:
        scale, e, ra, rb = rhs
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


def symmetric_signature(m: tuple[int, int, list[_IntRow]]
                        ) -> tuple[int, int, int, Scalar]:
    """(n_pos, n_neg, n_zero, det) of a symmetric matrix over Q or Q(sqrt d),
    d > 0, given by its scaled integer rows (D, d, rows), row i being
    ``(a_i + b_i*sqrt(d)) / D``; d < 0 raises ValueError, as such a form
    has no signature.

    Fraction-free symmetric Bareiss elimination of ``D*m`` over Z[sqrt d]
    (an empty surd part for rational input), D the lcm of the denominators.
    Pivots come from the trailing diagonal, rows and columns swapped
    together; a zero diagonal first gets ``row_k += row_j``, ``col_k +=
    col_j`` for an entry m_kj != 0.  The pivots are leading principal minors
    of a congruent matrix (Sylvester), so each division is exact and p_k
    counts as positive when p_k*p_(k-1) > 0 (Jacobi, p_0 = 1).  An all-zero
    trailing block counts toward n_zero; det = p_n / D^n, 0 if n_zero > 0.
    The given rows are never changed.
    """
    den, d, scaled = m
    n = len(scaled)
    if any(j >= n or scaled[j][t].get(i) != x
           for i, row in enumerate(scaled) for t in (0, 1) for j, x in row[t].items()):
        raise ValueError("symmetric matrix required")
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
            for i, row in rows.items():
                if j in row[0] or j in row[1]:
                    rows[i] = tuple(part.copy() for part in row)
                    for part in rows[i]:
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


# --- minimal polynomials ------------------------------------------------------


def min_poly(m: tuple[int, int, list[_IntRow]]) -> tuple[int, ...]:
    """Minimal polynomial of a rational square matrix, given by its scaled
    integer rows (scale, d, rows), ``(a_i + b_i*sqrt(d)) / scale`` for its
    row i, as :func:`_scaled_rows` and :meth:`Subspace.ad_block` give them:
    its integer coefficients, lowest degree first, with content 1 and a
    positive lead (Gauss), so the monic polynomial is the tuple over its
    last entry.

    Works on the integer matrix ``A = scale*m`` (the rows a_i).  r, a
    primitive integer list, starts as ann(e_0); one :func:`_int_horner`
    pass of r over the later unit vectors finds the first e with v = r(A) e
    nonzero, r becomes lcm(r, ann(e)) = r * ann(v), and the next pass starts
    after e.  The last r is the minimal polynomial of A, and mp_m(t) is
    mp_A(scale*t) up to a rational factor.  Raises ValueError for a column
    index outside 0..n-1 of the n rows, or for extension scalars (a
    nonzero b_i).
    """
    scale, _, scaled = m
    n = len(scaled)
    if any(not 0 <= j < n for a, b in scaled for j in (*a, *b)):
        raise ValueError("square matrix required")
    if any(b for _, b in scaled):
        raise ValueError("min_poly needs a rational matrix")
    rows = [list(a.items()) for a, _ in scaled]
    ints, start = _krylov_annihilator(rows, [1] + [0] * (n - 1)) if n else [1], 1
    while start < n and len(ints) <= n:
        packed, w = _int_horner(rows, ints, range(start, n))
        # slots below the first nonzero one are 0 in every row
        low = min([(p & -p).bit_length() for p in packed if p], default=0)
        if not low:
            break
        t = (low - 1) // w
        # both factors are primitive, so their product is (Gauss)
        ints = _int_mul(ints, _krylov_annihilator(
            rows, [_int_slots(p >> w * t, w, 1)[0] for p in packed]))
        start += t + 1
    return tuple(_int_clear([c * scale ** j for j, c in enumerate(ints)]))


def _int_apply(rows: list[list[tuple[int, int]]], v: list[int]) -> list[int]:
    return [sum(a * v[j] for j, a in row) for row in rows]


def _int_horner(rows: list[list[tuple[int, int]]], f: list[int], starts: Sequence[int]
                ) -> tuple[list[int], int]:
    """(packed, w): signed w-bit slot t of packed[i] is (f(A) e_s)_i for the
    t-th s of ``starts``, from one Horner pass over all of them (Kronecker
    substitution, as in :meth:`LieAlgebra._check_jacobi`).  Every Horner
    partial is at most ``sum |f_k| N^k < 2^(w-1)``, N = max(1, max row
    l1-norm of A), in absolute value, so a packed int is 0 exactly when its
    slots are."""
    norm, bound = max([1] + [sum(abs(a) for _, a in row) for row in rows]), 0
    for c in reversed(f):
        bound = bound * norm + abs(c)
    w, unit = bound.bit_length() + 1, [0] * len(rows)
    for t, s in enumerate(starts):
        unit[s] = 1 << w * t
    acc = [f[-1] * u for u in unit]
    for c in reversed(f[:-1]):
        acc = [x + c * u for x, u in zip(_int_apply(rows, acc), unit)]
    return acc, w


def _int_slots(p: int, w: int, k: int) -> list[int]:
    """The k lowest signed w-bit slots of a packed int."""
    half, mask = 1 << (w - 1), (1 << w) - 1
    p += half * ((1 << w * k) - 1) // mask  # each slot biased into [0, 2^w)
    return [(p >> w * t & mask) - half for t in range(k)]


def _krylov_annihilator(rows: list[list[tuple[int, int]]], v: list[int]) -> list[int]:
    """Primitive integer coefficients of the lowest-degree p with p(A) v =
    0: the Krylov annihilator of the integer vector v.

    ``A^k v``, tagged with a 1 at position ``n + k``, is reduced by
    :func:`_combine` against the echelon rows of the powers before it in
    insertion order and appended to them, so its tags carry its combination
    of the powers of A.  The first row left with no entry below n holds p
    in its tags, divided by their content.
    """
    n = len(rows)
    echelon: list[tuple[int, _IntRow]] = []
    for k in count():
        row = ({**{j: x for j, x in enumerate(v) if x}, n + k: 1}, {})
        for p, prow in echelon:
            f = row[0].get(p, 0)
            if f:
                g = gcd(prow[0][p], f)
                row = _combine(prow[0][p] // g, row, f // g, 0, prow, 0)
        pivot = min(row[0])
        if pivot >= n:
            return [row[0].get(n + j, 0) for j in range(k + 1)]
        echelon.append((pivot, row))
        v = _int_apply(rows, v)


# --- roots over the scalar tower ---------------------------------------------
#
# Integer polynomials are lists of ints, lowest degree first, without
# trailing zeros.  The ``_zp_*`` helpers work modulo m: a prime p while
# factoring, a power of p while lifting.


def _int_clear(coeffs: Sequence) -> list[int]:
    """The primitive integer multiple with a positive lead of a polynomial
    given by its rational (or integer) coefficients, no trailing zeros."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    if ints and ints[-1] < 0:
        g = -g
    return [c // g for c in ints] if g else ints


def _zp(a: Iterable[int], m: int) -> list[int]:
    """a mod m, trailing zeros dropped."""
    out = [c % m for c in a]
    while out and not out[-1]:
        out.pop()
    return out


def _zp_add(a: list[int], b: list[int], m: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return _zp([x + y for x, y in zip(a, b)] + a[len(b):], m)


def _int_mul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _zp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    return _zp(_int_mul(a, b), m)


def _zp_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """(q, r) with a = q*b + r mod m and deg r < deg b; lc(b) is a unit mod m."""
    r, n = [c % m for c in a], len(b) - 1
    inv = pow(b[-1], -1, m)
    q = [0] * max(len(r) - n, 0)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n] * inv % m
        if c:
            for i, y in enumerate(b):
                r[k + i] -= c * y
    return _zp(q, m), _zp(r[:n], m)


def _zp_monic(a: list[int], m: int) -> list[int]:
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def _zp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd mod the prime p; a is nonzero."""
    while b:
        a, b = b, _zp_divmod(a, b, p)[1]
    return _zp_monic(a, p)


def _zp_powmod(a: list[int], e: int, mod: list[int], m: int) -> list[int]:
    """a^e rem mod, modulo m."""
    out, a = [1], _zp_divmod(a, mod, m)[1]
    while e:
        if e & 1:
            out = _zp_divmod(_zp_mul(out, a, m), mod, m)[1]
        e >>= 1
        if e:
            a = _zp_divmod(_zp_mul(a, a, m), mod, m)[1]
    return out


def _primes():
    yield 2
    n = 3
    while True:
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n
        n += 2


def _squarefree_prime(f: list[int], tries: Optional[int] = 12) -> Optional[int]:
    """The smallest prime p not dividing lc(f) with f squarefree mod p,
    among the first ``tries`` primes (all for None), or None.  Such a p
    proves f squarefree over Q, and a squarefree f has one."""
    df = [i * c for i, c in enumerate(f)][1:]
    for i, p in enumerate(_primes()):
        if i == tries:
            return None
        if f[-1] % p and len(_zp_gcd(_zp(f, p), _zp(df, p), p)) == 1:
            return p


def _local_factors(f: list[int], p: int) -> Optional[list[list[int]]]:
    """The monic irreducible factors mod p of f (squarefree mod p, p not
    dividing lc(f)) when all have degree <= 2, else None: the roots of
    gcd(f, x^p - x), found by evaluation, and the factors of gcd(rest,
    x^(p^2) - x), split by :func:`_zp_split_quadratics`."""
    fp = _zp_monic(_zp(f, p), p)
    xp = _zp_powmod([0, 1], p, fp, p)
    lin = _zp_gcd(fp, _zp_add(xp, [0, -1], p), p)
    rest = _zp_divmod(fp, lin, p)[0]
    quad = [1]
    if len(rest) > 1:
        quad = _zp_gcd(rest, _zp_add(_zp_powmod(xp, p, rest, p), [0, -1], p), p)
    if len(lin) + len(quad) < len(fp) + 1:
        return None  # a factor of degree >= 3 is left
    return ([[-a % p, 1] for a in range(p) if not _horner(lin, a, p)]
            + _zp_split_quadratics(quad, p))


def _zp_split_quadratics(g: list[int], p: int) -> list[list[int]]:
    """The factors of g, a product of distinct monic irreducible quadratics
    mod p, by Cantor-Zassenhaus: gcd(g, u^((p^2 - 1)/2) - 1) for u the
    base-p digit lists of p, p + 1, ... (x, x + 1, ... first), so every
    run makes the same trials.  Mod 2 there is one such quadratic."""
    if len(g) <= 3:
        return [g] if len(g) == 3 else []
    k = p
    while True:
        u, n = [], k
        while n:
            n, c = divmod(n, p)
            u.append(c)
        k += 1
        w = _zp_gcd(g, _zp_add(_zp_powmod(u, (p * p - 1) // 2, g, p), [-1], p), p)
        if 1 < len(w) < len(g):
            return (_zp_split_quadratics(w, p)
                    + _zp_split_quadratics(_zp_divmod(g, w, p)[0], p))


def _horner(f: list[int], x: int, m: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _lift(f: list[int], h: list[int], p: int, top: int) -> list[int]:
    """The monic factor of f mod ``top`` = p^(2^j) that is h mod p, for h
    monic, irreducible mod p and a simple factor of f mod p.  A root r of
    h = x - r takes Newton steps r - f(r)/f'(r).  A quadratic takes
    quadratic Hensel steps (MCA Alg. 15.10) of f = g*h keeping only s = 1/g
    rem h: h + (s*(f - g*h) rem h) is h + (s*f rem h), and s*(2 - s*g) rem
    h is 1/g for the new g = f quo h."""
    m = p
    if len(h) == 2:
        r, df = -h[0], [i * c for i, c in enumerate(f)][1:]
        while m < top:
            m *= m
            r = (r - _horner(f, r, m) * pow(_horner(df, r, m), -1, m)) % m
        return [-r % m, 1]
    g = _zp_divmod(f, h, p)[0]
    s = _zp_powmod(g, p * p - 2, h, p)  # 1/g in the field F_p[x]/(h)
    while m < top:
        m *= m
        h = _zp_add(h, _zp_divmod(_zp_mul(s, _zp_divmod(f, h, m)[1], m), h, m)[1], m)
        if m < top:
            sg = _zp_divmod(_zp_mul(s, _zp_divmod(f, h, m)[0], m), h, m)[1]
            s = _zp_divmod(_zp_mul(s, _zp_add([2], [-c for c in sg], m), m), h, m)[1]
    return h


def _exact_quotient(f: list[int], g: list[int]) -> Optional[list[int]]:
    """f / g over Z when g divides f, else None; f(0) != 0."""
    if not g[0] or f[0] % g[0]:
        return None
    r, n = list(f), len(g) - 1
    q = [0] * (len(f) - n)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + n], g[-1])
        if rem:
            return None
        q[k] = c
        if c:
            for i, y in enumerate(g):
                r[k + i] -= c * y
    return None if any(r[:n]) else q


def _int_prem(a: list[int], f: list[int]) -> tuple[list[int], int]:
    """(r, c) with c*a = q*f + r over Z for some q, c a power of lc(f) and
    r of length deg f: pseudo-division (MCA ch. 6)."""
    r, n, c = list(a), len(f) - 1, 1
    for k in range(len(r) - 1 - n, -1, -1):
        q = r[k + n]
        if q:
            r = [x * f[-1] for x in r]
            c *= f[-1]
            for i, y in enumerate(f):
                r[k + i] -= q * y
    return (r + [0] * n)[:n], c


def _int_gcd(a: list[int], b: list[int]) -> list[int]:
    """The primitive gcd with lc > 0 of two nonzero integer lists without
    trailing zeros, by primitive pseudo-remainders."""
    while b:
        r = _int_prem(a, b)[0]
        while r and not r[-1]:
            r.pop()
        a, b = b, _int_clear(r)
    return _int_clear(a)


def _yun(f: list[int]) -> list[tuple[list[int], int]]:
    """The squarefree decomposition over Z (Yun, MCA 14.6, in its gcd
    form) of a primitive f with lc(f) > 0 and f(0) != 0: the (g, m) with f
    = prod g^m, g squarefree, coprime, primitive, lc(g) > 0 and deg g > 0,
    m increasing.  w = f / gcd(f, f') holds each factor once; each round
    the factors of multiplicity m leave w."""
    g = _int_gcd(f, [i * c for i, c in enumerate(f)][1:])
    w, out, m = _exact_quotient(f, g), [], 1
    while len(w) > 1:
        y = _int_gcd(w, g)
        if len(y) < len(w):
            out.append((_exact_quotient(w, y), m))
        w, g, m = y, _exact_quotient(g, y), m + 1
    return out


def _small_factors(f: list[int], p: Optional[int] = None) -> list[list[int]]:
    """The irreducible factors over Z, primitive with a positive lead, of a
    squarefree primitive f with f(0) != 0 and lc(f) > 0 when all have
    degree <= 2; raises ExtensionDegreeTooHigh otherwise.  p is
    :func:`_squarefree_prime` of f, found here when None.

    The factors mod p are lifted to a power M of p above 2*B, B = lc(f) *
    2 * ||f||_2: by Mignotte a factor G of degree <= 2 has |G_i| <=
    binom(2, i) * M(G) <= 2 * ||f||_2, so lc(f)/lc(G) * G is lc(f) times
    its lifted factor in symmetric residues mod M.  Trial division over Z
    by each lifted factor and each product of two lifted linear factors
    thus finds every factor of degree <= 2."""
    if len(f) <= 3:
        return [f]
    p = p or _squarefree_prime(f, None)
    local = _local_factors(f, p)
    if local is None:
        raise ExtensionDegreeTooHigh(
            f"a factor of degree {len(f) - 1} with an irreducible factor of "
            "degree >= 3")
    lc, top = f[-1], p
    while top <= 4 * lc * (isqrt(sum(c * c for c in f)) + 1):
        top *= top

    def trial(h):
        # lc(f) * h in symmetric residues mod top, made primitive
        c = [x * lc % top for x in h]
        c = [x - top if 2 * x > top else x for x in c]
        g = gcd(*c)
        quo = _exact_quotient(rest, [x // g for x in c])
        if quo is not None:
            found.append([x // g for x in c])
        return quo

    found: list[list[int]] = []
    rest, unmatched = f, []
    for h in sorted((_lift(f, h, p, top) for h in local), key=len):
        quo = trial(h)
        if quo is not None:
            rest = quo
        elif len(h) == 2:
            unmatched.append(h)
    while unmatched:
        h = unmatched.pop()
        for i, h2 in enumerate(unmatched):
            quo = trial(_zp_mul(h, h2, top))
            if quo is not None:
                rest = quo
                del unmatched[i]
                break
    if len(rest) > 1:
        raise ExtensionDegreeTooHigh(
            f"a factor of degree {len(rest) - 1} with no factor of degree <= 2")
    return found


def _quadratic_roots(a: int, b: int, c: int) -> tuple[Scalar, Scalar]:
    """Roots (-b +- sqrt(b^2 - 4ac)) / 2a of a x^2 + b x + c, integers with
    a nonzero discriminant."""
    d, k = squarefree_split(b * b - 4 * a * c)
    mid, half = Fraction(-b, 2 * a), Fraction(k, 2 * a)
    if d == 1:
        return mid + half, mid - half
    return ExactScalar(mid, half, d), ExactScalar(mid, -half, d)


def _squarefree_parts(f: Sequence[int]) -> tuple[int, Optional[int], list[tuple[list[int], int]]]:
    """(k, prime, parts) with f = t^k * prod g^m over the (g, m) in parts,
    for a nonzero primitive f with lc(f) > 0: g squarefree, coprime,
    primitive, lc(g) > 0, g(0) != 0 and deg g > 0.  prime is
    :func:`_squarefree_prime` of f / t^k, which is then the one part; when
    there is none, :func:`_yun` gives the parts.
    """
    k = next(i for i, c in enumerate(f) if c)
    f = list(f[k:])
    if len(f) == 1:
        return k, None, []
    prime = _squarefree_prime(f)
    return k, prime, [(f, 1)] if prime else _yun(f)


def factor_roots(coeffs: Sequence) -> list[tuple[Scalar, int]]:
    """Roots with multiplicities, sorted, of the nonzero polynomial with
    the given coefficients (ints, Fractions or ``p/q`` strings, lowest
    degree first), when every irreducible factor over Q has degree <= 2
    and every irrational root lies in one quadratic field; raises
    ExtensionDegreeTooHigh otherwise, ValueError for the zero polynomial
    and :func:`rat`'s TypeError for another coefficient type.

    :func:`_part_roots` factors the parts of :func:`_squarefree_parts`.
    """
    cs = [rat(c) for c in coeffs]
    while cs and not cs[-1]:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial")
    out = _part_roots(*_squarefree_parts(_int_clear(cs)))
    ds = {scalar_d(r) for r, _ in out if scalar_d(r)}
    if len(ds) > 1:
        raise ExtensionDegreeTooHigh(
            f"roots need two distinct quadratic extensions: {sorted(ds)}")
    return out


def _part_roots(zeros: int, prime: Optional[int], parts: list[tuple[list[int], int]]
                ) -> list[tuple[Scalar, int]]:
    """Sorted roots with multiplicities of the polynomial whose
    :func:`_squarefree_parts` are (zeros, prime, parts), in as many
    quadratic fields as they need; raises ExtensionDegreeTooHigh when a
    factor has no split of degree <= 2 (:func:`_small_factors`)."""
    out: list[tuple[Scalar, int]] = [(ZERO, zeros)] if zeros else []
    for g, mult in parts:
        for h in _small_factors(g, prime):
            roots = [Fraction(-h[0], h[1])] if len(h) == 2 else _quadratic_roots(*h[::-1])
            out.extend((root, mult) for root in roots)
    out.sort(key=lambda rm: (*scalar_sort_key(rm[0]), scalar_d(rm[0])))
    return out

