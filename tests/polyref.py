"""Polynomial and matrix arithmetic over Q for the tests' reference oracles.

The package has no polynomial or matrix type: a polynomial is a tuple of
integer coefficients with content 1 and a positive lead (what
``exactlin.min_poly`` returns), a matrix its sparse integer rows.  The
references here keep the schoolbook arithmetic over Q, which shares no
code with that integer path: ``QPoly``, the dense ``QMatrix``, the
characteristic polynomial by Faddeev-LeVerrier and a Gauss-Jordan solve.
"""

from fractions import Fraction
from math import gcd, lcm

from lieembed.exactlin import ExactScalar, rat


class QPoly:
    """Dense polynomial over Q or Q(sqrt d), coefficients lowest degree
    first (ints and ``p/q`` strings become Fractions, trailing zeros are
    dropped), with equality and arithmetic.  ``QPoly(mp).monic()`` reads
    an integer tuple of the package as its monic polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        cs = [rat(c) if isinstance(c, (int, str)) else c for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"QPoly({list(self.coeffs)})"

    def primitive(self) -> tuple:
        """The integer multiple with content 1 and a positive lead of a
        nonzero rational polynomial, the form of the package's polynomials."""
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [int(c * den) for c in self.coeffs]
        g = gcd(*ints) * (1 if ints[-1] > 0 else -1)
        return tuple(c // g for c in ints)

    @property
    def lead(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __neg__(self):
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-QPoly(other.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return QPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return QPoly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        rem, n = list(self.coeffs), other.degree
        quo = [Fraction(0)] * max(self.degree - n + 1, 0)
        for k in range(len(quo) - 1, -1, -1):
            f = rem[n + k] / other.coeffs[-1]
            quo[k] = f
            for i, c in enumerate(other.coeffs):
                rem[i + k] = rem[i + k] - f * c
        return QPoly(quo), QPoly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ArithmeticError("inexact polynomial division")
        return q

    def monic(self):
        return self * (1 / self.lead) if self.coeffs else self

    def derivative(self):
        return QPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_matrix(self, m: "QMatrix") -> "QMatrix":
        acc, one = QMatrix.zero(m.rows, m.rows), QMatrix.identity(m.rows)
        for c in reversed(self.coeffs):
            acc = (acc @ m) + one.scale(c)
        return acc


class QMatrix:
    """Immutable dense matrix over Fraction / ExactScalar entries, built
    from rows (ints and ``p/q`` strings become Fractions) or columns, with
    equality and arithmetic."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        data = tuple(tuple(rat(x) if isinstance(x, (int, str)) else x for x in row)
                     for row in entries)
        self.entries = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(r) != self.cols for r in data):
            raise ValueError("ragged matrix")

    @classmethod
    def from_columns(cls, cols) -> "QMatrix":
        if any(len(c) != len(cols[0]) for c in cols):
            raise ValueError("ragged matrix")
        return cls(list(zip(*cols)))

    def __eq__(self, other):
        return isinstance(other, QMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __getitem__(self, ij):
        return self.entries[ij[0]][ij[1]]

    def __repr__(self):
        return f"QMatrix({self.rows}x{self.cols})"

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "QMatrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)])

    def __add__(self, other):
        return QMatrix([[x + y for x, y in zip(r, s)]
                        for r, s in zip(self.entries, other.entries)])

    def __sub__(self, other):
        return QMatrix([[x - y for x, y in zip(r, s)]
                        for r, s in zip(self.entries, other.entries)])

    def scale(self, c) -> "QMatrix":
        return QMatrix([[c * x for x in row] for row in self.entries])

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        return QMatrix([[_dot(row, col) for col in bt] for row in self.entries])

    def apply(self, v):
        return tuple(_dot(row, v) for row in self.entries)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)

    def trace(self):
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))


def reference_char_poly(m: QMatrix) -> QPoly:
    """det(tI - m) of a square matrix by Faddeev-LeVerrier: with M_0 = 0
    and c_n = 1, M_k = m M_(k-1) + c_(n-k+1) I and c_(n-k) = -tr(m M_k)/k."""
    n = m.rows
    coeffs, product = [Fraction(0)] * n + [Fraction(1)], QMatrix.zero(n, n)  # m M_0
    for k in range(1, n + 1):
        product = m @ (product + QMatrix.identity(n).scale(coeffs[n - k + 1]))
        coeffs[n - k] = -product.trace() / k
    return QPoly(coeffs)


def reference_solve(m: QMatrix, rhs):
    """A solution x of m x = rhs by Gauss-Jordan over Q(sqrt d) on the
    augmented rows, the free unknowns 0, or None when there is none."""
    rows = [list(row) + [b] for row, b in zip(m.entries, rhs)]
    pivots, r = [], 0
    for c in range(m.cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * x for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] for row in rows[r:]):
        return None
    x = [Fraction(0)] * m.cols
    for row, c in zip(rows, pivots):
        x[c] = row[-1]
    return tuple(x)


def _dot(u, v):
    acc = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def qpoly(p) -> QPoly:
    """p as a QPoly: a QPoly itself, or a coefficient sequence such as
    the integer tuple of ``exactlin.min_poly``."""
    return p if isinstance(p, QPoly) else QPoly(p)


def poly_gcd(a, b) -> QPoly:
    """The monic gcd over Q by Euclid's algorithm, of QPolys or
    coefficient sequences."""
    a, b = qpoly(a), qpoly(b)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_squarefree(p) -> bool:
    return poly_gcd(p, qpoly(p).derivative()).degree == 0


def squarefree_decomposition(p) -> list:
    """Yun's algorithm over Q: the (f, i) with p = lc * prod f^i, the f
    monic, squarefree, coprime and of positive degree."""
    p = qpoly(p).monic()
    g = poly_gcd(p, p.derivative())
    w, out, i = p.exact_div(g), [], 1
    while w.degree > 0:
        y = poly_gcd(w, g)
        f = w.exact_div(y)
        if f.degree > 0:
            out.append((f, i))
        w, g, i = y, g.exact_div(y), i + 1
    return out


def horner_per_start(rows, f, j):
    """f(A) e_j by Horner's rule, one start vector at a time, for the
    integer matrix A given by its sparse rows ``[(column, entry), ...]``
    and the integer coefficients f, lowest degree first: the loop that the
    packed ``exactlin._int_horner`` replaced, kept as its reference."""
    acc = [0] * len(rows)
    acc[j] = f[-1]
    for c in reversed(f[:-1]):
        acc = [sum(a * acc[k] for k, a in row) for row in rows]
        acc[j] += c
    return acc
