"""Polynomial and matrix arithmetic over Q for the tests' reference oracles.

``lieembed.exactlin.Poly`` and ``lieembed.exactlin.Matrix`` are plain
values: coefficients and degree, entries and shape, equality.  The
package computes with primitive integer lists and sparse integer rows.
The references here keep the schoolbook arithmetic over Q, which shares
no code with that integer path.
"""

from fractions import Fraction

from lieembed.exactlin import ExactScalar, Matrix, Poly


class QPoly(Poly):
    """A Poly with arithmetic; equal to the Poly with the same coefficients."""

    __slots__ = ()

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

    def eval_matrix(self, m: Matrix) -> "QMatrix":
        acc, one = QMatrix.zero(m.rows, m.rows), QMatrix.identity(m.rows)
        for c in reversed(self.coeffs):
            acc = (acc @ m) + one.scale(c)
        return acc


class QMatrix(Matrix):
    """A Matrix with arithmetic; equal to the Matrix with the same entries,
    and built from one or from rows."""

    __slots__ = ()

    def __init__(self, entries):
        super().__init__(entries.entries if isinstance(entries, Matrix) else entries)

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

    def __matmul__(self, other: Matrix) -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        bt = list(zip(*other.entries))
        return QMatrix([[_dot(row, col) for col in bt] for row in self.entries])

    def apply(self, v):
        return tuple(_dot(row, v) for row in self.entries)

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.entries)


def _dot(u, v):
    acc = Fraction(0)
    for a, b in zip(u, v):
        if a and b:
            acc = acc + a * b
    return acc


def poly_gcd(a, b) -> QPoly:
    """The monic gcd over Q by Euclid's algorithm."""
    a, b = QPoly(a.coeffs), QPoly(b.coeffs)
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def is_squarefree(p) -> bool:
    return poly_gcd(p, QPoly(p.coeffs).derivative()).degree == 0


def squarefree_decomposition(p) -> list:
    """Yun's algorithm over Q: the (f, i) with p = lc * prod f^i, the f
    monic, squarefree, coprime and of positive degree."""
    p = QPoly(p.coeffs).monic()
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
