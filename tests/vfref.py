"""Fraction references for the vector-field tests.

The package builds so(p,q) from the two entries of each generator,
stops the invariant-count points at the rank cap and sums catalog
combinations term by term.  The references here keep the constructions
without those shortcuts: 4x4 (and larger) Fraction ``QMatrix``
commutators, ``MPoly.eval`` and ``rref`` at all five points, and chained
``MPoly`` arithmetic.
"""

import random
from fractions import Fraction

from lieembed.exactlin import rref
from lieembed.liecore import LieAlgebra
from lieembed.vecfield import MPoly, PolyVectorField
from polyref import QMatrix

_PRIMES = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)


def so_pq_reference(p: int, q: int) -> LieAlgebra:
    """so(p, q) from the commutators of the Fraction matrices E_ij - E_ji
    (metric signs equal) and E_ij + E_ji (signs opposite), pairs i < j in
    lexicographic order, each read back at its entries (i, j), i < j."""
    n = p + q
    metric = [1] * p + [-1] * q
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def gen(i, j):
        m = [[Fraction(0)] * n for _ in range(n)]
        m[i][j] = Fraction(1)
        m[j][i] = Fraction(-1 if metric[i] * metric[j] == 1 else 1)
        return QMatrix(m)

    gens = [gen(i, j) for i, j in pairs]
    brackets = {}
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            comm = gens[a] @ gens[b] - gens[b] @ gens[a]
            comp = {k: comm.entries[i][j] for k, (i, j) in enumerate(pairs)
                    if comm.entries[i][j]}
            if comp:
                brackets[(a, b)] = comp
    names = [f"e{k + 1}" for k in range(len(pairs))]
    return LieAlgebra(len(pairs), names, brackets, name=f"so({p},{q})")


def invariant_count_reference(fields, n_vars: int) -> int:
    """n_vars minus the largest Fraction rank of the fields' values at all
    five points: the primes, then four seeded random rational points."""
    if not fields:
        return n_vars
    points = [tuple(Fraction(_PRIMES[i % len(_PRIMES)]) for i in range(n_vars))]
    rng = random.Random(0)
    for _ in range(4):
        points.append(tuple(Fraction(rng.randint(-19, 19), rng.randint(1, 7))
                            for _ in range(n_vars)))
    best = 0
    for p in points:
        rows = [[comp.eval(p) for comp in f.components] for f in fields]
        best = max(best, len(rref(rows)[1]))
    return n_vars - best


def combination_reference(catalog, coeffs) -> PolyVectorField:
    """The catalog combination summed with MPoly addition and scaling."""
    nv = len(catalog.variables)
    comps = [MPoly(nv, {}) for _ in range(nv)]
    parts = []
    for c, f in zip(coeffs, catalog.fields):
        c = Fraction(c)
        if c:
            parts.append(f"{c}*{f.name}")
            for i in range(nv):
                comps[i] = comps[i] + c * f.components[i]
    return PolyVectorField("+".join(parts) or "0", catalog.variables, tuple(comps))
