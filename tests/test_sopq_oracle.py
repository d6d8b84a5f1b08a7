"""Closed-form oracle on dense so(p, q): Killing signature, Levi part, and
the real and compact parts and roots of the standard maximally compact
Cartan, for 3 <= p + q <= 6 and q <= p, each under two seeded dense changes
of basis (Knapp, *Lie Groups Beyond an Introduction*, App. C)."""

import random

import pytest

from lieembed.liecore import (LieAlgebra, Subspace, killing_signature,
                              levi_decomposition, radical, torus_split)
from lieembed.rootsys import (dynkin_type, is_positive,
                              root_space_decomposition, simple_roots)
from lieembed.vecfield import so_pq_generators
from matrixops import solve_linear
from polyref import QMatrix
from test_liecore import _dense_basis, _table_in_basis

FORMS = [(p, n - p) for n in range(3, 7) for p in range(n, (n - 1) // 2, -1)]
# the complex type of so(n) for n = 3..6: B1 = A1, D2 = A1xA1, B2, D3 = A3
DYNKIN = {3: "A1", 4: "A1xA1", 5: "B2", 6: "A3"}


def _compact_cartan(p, q):
    """The pairs (i, j) of so(p, q)'s standard maximally compact Cartan:
    rotations of consecutive positive coordinates, then of consecutive
    negative ones, and a boost of the two left over when p and q are odd."""
    pairs = [(i, i + 1) for i in range(0, p - 1, 2)]
    pairs += [(p + i, p + i + 1) for i in range(0, q - 1, 2)]
    if p % 2 and q % 2:
        pairs.append((p - 1, p + q - 1))
    return pairs


def _standard(p, q):
    """so(p, q) in its standard basis, and the generators E_ij -+ E_ji of
    the compact Cartan's pairs."""
    L = so_pq_generators(p, q)
    n = p + q
    index = {pr: k for k, pr in enumerate((i, j) for i in range(n) for j in range(i + 1, n))}
    return L, [L.basis_vector(index[pr]) for pr in _compact_cartan(p, q)]


def _dense(p, q, seed):
    """so(p, q) in a seeded dense basis f, and the coordinates in f of the
    generators of the compact Cartan."""
    L, cartan = _standard(p, q)
    f = _dense_basis(L, random.Random(f"so({p},{q}):{seed}"))
    M = LieAlgebra(L.dim, L.basis_names, _table_in_basis(L, f), name=f"dense so({p},{q})")
    to_f = QMatrix.from_columns(f)
    return M, [solve_linear(to_f, h) for h in cartan]


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("p, q", FORMS)
def test_dense_so_pq_matches_closed_forms(p, q, seed):
    M, cartan = _dense(p, q, seed)
    n, dim = p + q, M.dim
    assert dim == n * (n - 1) // 2
    assert killing_signature(M) == (p * q, p * (p - 1) // 2 + q * (q - 1) // 2, 0)
    assert radical(M).dim == 0
    assert levi_decomposition(Subspace.full(M)).levi.dim == dim
    rank = n // 2
    assert len(cartan) == rank
    # the boost is the real part; the rotations are compact
    real, compact = torus_split(M, Subspace(M, cartan))
    assert (real.dim, compact.dim) == (p % 2 * (q % 2), p // 2 + q // 2)
    rsd = root_space_decomposition(M, cartan)
    assert [s.dim for _, s in rsd.pairs] == [1] * (dim - rank)
    assert rsd.zero_space.dim == rank
    positives = [r for r in rsd.roots if is_positive(r)]
    assert dynkin_type(simple_roots(positives), positives).type_label == DYNKIN[n]
