"""Matrix entry points for the tests, over the package's integer kernels.

The package takes a matrix only as scaled integer rows (D, d, rows).
These helpers give the tests the null space, solves, ``ad(x)`` and the
Killing matrix of a :class:`polyref.QMatrix` or an algebra, each a few
lines over ``_scaled_rows``, ``_kernel_ints``, ``linear_solver`` and
``LieAlgebra._ad_ints``, so an assertion on their results checks package
code.  The independent references are in ``polyref``.
"""

from fractions import Fraction

from lieembed import exactlin
from lieembed.exactlin import _kernel_ints, _scaled_rows, _scaled_vector, _unscaled_vector
from polyref import QMatrix


def scaled(m: QMatrix) -> tuple:
    """The scaled integer rows (D, d, rows) of m, the form that
    ``min_poly`` and ``symmetric_signature`` take."""
    return _scaled_rows(m.entries)


def kernel(m: QMatrix) -> list[tuple]:
    """Canonical RREF basis of the null space of m."""
    _, d, rows = scaled(m)
    basis, pivots = _kernel_ints(rows, d, m.cols)
    return [_unscaled_vector(a[p], d, a.items(), b.items(), m.cols)
            for (a, b), p in zip(basis, pivots)]


def linear_solver(m: QMatrix):
    """(rank, solve) of m, ``solve`` taking and returning plain vectors."""
    rank, solve = exactlin.linear_solver(_scaled_rows(zip(*m.entries)), m.rows)
    return rank, lambda rhs: solve(_scaled_vector(rhs))


def solve_linear(m: QMatrix, rhs):
    """A solution of m x = rhs with the free unknowns 0, or None."""
    return linear_solver(m)[1](rhs)


def ad(L, x) -> QMatrix:
    """The matrix of [x, -]; column j is [x, b_j]."""
    return QMatrix.from_columns([_unscaled_vector(den, d, a.items(), b.items(), L.dim)
                                 for den, d, a, b in L._ad_ints(_scaled_vector(x))])


def killing_matrix(L) -> QMatrix:
    """The Killing form's matrix, read off ``L.killing_table()``."""
    den, rows = L.killing_table()
    return QMatrix([[Fraction(a.get(j, 0), den) for j in range(L.dim)] for a, _ in rows])
