"""Polynomial vector fields, their brackets, structure-constant extraction,
orthogonal-algebra generators and invariant counting.

The built-in catalogs reproduce the commutator tables of the two symmetry
algebras shipped with the golden corpus; the contact-symmetry catalog stores
prolonged fields so the plain vector-field bracket closes on the span.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .errors import NotClosed, UnknownName, VariableMismatch
from .exactlin import (Matrix, ZERO, ONE, format_rat, linear_solver, rat,
                       rref)
from .liecore import LieAlgebra

_PRIMES = (1, 2, 3, 5, 7, 11, 13, 17, 19, 23)


class MPoly:
    """Sparse multivariate polynomial with rational coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict):
        self.nvars = nvars
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def const(cls, c, nvars: int) -> "MPoly":
        return cls(nvars, {(0,) * nvars: rat(c)})

    @classmethod
    def var(cls, i: int, nvars: int) -> "MPoly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): ONE})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.nvars)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, ZERO) + c
        return MPoly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MPoly.const(other, self.nvars)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rat(other)
            return MPoly(self.nvars, {e: c * v for e, v in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, ZERO) + c1 * c2
        return MPoly(self.nvars, out)

    __rmul__ = __mul__

    def diff(self, i: int) -> "MPoly":
        out = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = out.get(tuple(e2), ZERO) + c * e[i]
        return MPoly(self.nvars, out)

    def eval(self, point: Sequence[Fraction]) -> Fraction:
        total = ZERO
        for e, c in self.terms.items():
            v = c
            for x, k in zip(point, e):
                for _ in range(k):
                    v = v * x
            total += v
        return total

    def canonical_terms(self):
        """Terms sorted by graded lexicographic monomial order."""
        return sorted(self.terms.items(), key=lambda ec: (sum(ec[0]), ec[0]))

    def to_json(self):
        return [[list(e), format_rat(c)] for e, c in self.canonical_terms()]

    @classmethod
    def from_json(cls, obj, nvars: int) -> "MPoly":
        return cls(nvars, {tuple(e): rat(c) for e, c in obj})

    def __repr__(self):
        return f"MPoly({self.canonical_terms()})"


@dataclass(frozen=True)
class PolyVectorField:
    """Vector field with one polynomial component per variable."""

    name: str
    variables: tuple
    components: tuple

    def __post_init__(self):
        if len(self.components) != len(self.variables):
            raise ValueError("component count != variable count")

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def apply_to(self, f: MPoly) -> MPoly:
        """Derivation: sum_j component_j * d f / d x_j."""
        out = MPoly(len(self.variables), {})
        for j, comp in enumerate(self.components):
            if not comp.is_zero():
                out = out + comp * f.diff(j)
        return out

    def to_json(self):
        return {"name": self.name,
                "components": [c.to_json() for c in self.components]}


def vf_bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """Lie bracket [v, w]_i = sum_j (v_j d_j w_i - w_j d_j v_i)."""
    if v.variables != w.variables:
        raise VariableMismatch(f"{v.variables} vs {w.variables}")
    comps = tuple(v.apply_to(wc) - w.apply_to(vc)
                  for vc, wc in zip(v.components, w.components))
    return PolyVectorField(f"[{v.name},{w.name}]", v.variables, comps)


@dataclass(frozen=True)
class GeneratorCatalog:
    name: str
    variables: tuple
    fields: tuple

    def field(self, name: str) -> PolyVectorField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def combination(self, coeffs: Sequence) -> PolyVectorField:
        """Rational combination of the catalog fields."""
        nv = len(self.variables)
        comps = [MPoly(nv, {}) for _ in range(nv)]
        parts = []
        for c, f in zip(coeffs, self.fields):
            c = rat(c)
            if c:
                parts.append(f"{format_rat(c)}*{f.name}")
                for i in range(nv):
                    comps[i] = comps[i] + c * f.components[i]
        return PolyVectorField("+".join(parts) or "0", self.variables, tuple(comps))

    def to_json(self):
        return {"name": self.name, "vars": list(self.variables),
                "fields": [f.to_json() for f in self.fields]}


def _field_coordinates(catalog: GeneratorCatalog):
    """Monomial-coordinate matrix of the catalog fields (one column each)."""
    keys = []
    seen = set()
    for f in catalog.fields:
        for i, comp in enumerate(f.components):
            for e in comp.terms:
                if (i, e) not in seen:
                    seen.add((i, e))
                    keys.append((i, e))
    keys.sort()
    index = {k: r for r, k in enumerate(keys)}

    def coords(field: PolyVectorField):
        col = [ZERO] * len(keys)
        for i, comp in enumerate(field.components):
            for e, c in comp.terms.items():
                r = index.get((i, e))
                if r is None:
                    return None, (i, e, c)
                col[r] = c
        return tuple(col), None

    cols = []
    for f in catalog.fields:
        col, _ = coords(f)
        cols.append(col)
    return Matrix.from_columns(cols), coords


def structure_constants(catalog: GeneratorCatalog) -> LieAlgebra:
    """Express every pairwise bracket in the generator basis; the resulting
    table is validated for antisymmetry (by storage) and Jacobi."""
    matrix, coords = _field_coordinates(catalog)
    n = len(catalog.fields)
    rank, solve = linear_solver(matrix)
    if rank < n:
        raise ValueError(f"catalog {catalog.name!r} fields are dependent")
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = vf_bracket(catalog.fields[i], catalog.fields[j])
            col, bad = coords(w)
            if bad is not None:
                raise NotClosed(
                    f"[{catalog.fields[i].name}, {catalog.fields[j].name}] "
                    f"leaves the span (new monomial in component {bad[0]})",
                    pair=(catalog.fields[i].name, catalog.fields[j].name),
                    residual=bad)
            sol = solve(col)
            if sol is None:
                raise NotClosed(
                    f"[{catalog.fields[i].name}, {catalog.fields[j].name}] "
                    f"leaves the span",
                    pair=(catalog.fields[i].name, catalog.fields[j].name))
            comp = {k: c for k, c in enumerate(sol) if c}
            if comp:
                brackets[(i, j)] = comp
    names = [f.name for f in catalog.fields]
    return LieAlgebra(n, names, brackets, name=catalog.name)


def invariant_count(fields: Sequence[PolyVectorField], n_vars: int) -> int:
    """Number of functionally independent joint invariants:
    n_vars minus the generic rank of the coefficient matrix.

    Generic rank is the maximum exact rank over a fixed deterministic
    sequence of five rational evaluation points.
    """
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
        _, rank, _ = rref(Matrix(rows))
        best = max(best, rank)
    return n_vars - best


# ----------------------------------------------------------------------------
# orthogonal algebras so(p, q)


@lru_cache(maxsize=None)
def so_pq_generators(p: int, q: int) -> LieAlgebra:
    """so(p, q) in the basis E_ij - E_ji (metric signs equal) and
    E_ij + E_ji (signs opposite), pairs (i, j) with i < j in lexicographic
    order; returned as a structure-constant algebra."""
    if p < 0 or q < 0:
        raise ValueError("p and q must not be negative")
    n = p + q
    if n < 2:
        raise ValueError("p + q must be at least 2")
    metric = [1] * p + [-1] * q
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def gen(i, j):
        m = [[ZERO] * n for _ in range(n)]
        m[i][j] = ONE
        m[j][i] = -ONE if metric[i] * metric[j] == 1 else ONE
        return Matrix(m)

    gens = [gen(i, j) for i, j in pairs]
    # coordinates of a matrix in the generator basis: entry (i, j), i < j
    index = {pr: k for k, pr in enumerate(pairs)}
    brackets = {}
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            comm = gens[a] @ gens[b] - gens[b] @ gens[a]
            comp = {}
            for (i, j), k in index.items():
                c = comm.entries[i][j]
                if c:
                    comp[k] = c
            if comp:
                brackets[(a, b)] = comp
    names = [f"e{k + 1}" for k in range(len(pairs))]
    return LieAlgebra(len(pairs), names, brackets, name=f"so({p},{q})")


# ----------------------------------------------------------------------------
# wave-equation symmetry catalog


@lru_cache(maxsize=None)
def wave16_catalog() -> GeneratorCatalog:
    """The sixteen point-symmetry generators of the flat 4d wave equation
    over (t, x, y, z, u)."""
    nv = 5
    t, x, y, z, u = (MPoly.var(i, nv) for i in range(nv))
    zero = MPoly(nv, {})
    half = Fraction(1, 2)

    def field(name, dt=zero, dx=zero, dy=zero, dz=zero, du=zero):
        return PolyVectorField(name, ("t", "x", "y", "z", "u"),
                               (dt, dx, dy, dz, du))

    fields = (
        field("e1", dt=y * t, dx=x * y, dy=half * (y * y + t * t - x * x - z * z),
              dz=y * z, du=-u * y),
        field("e2", dt=y, dy=t),
        field("e3", dt=x * t, dx=half * (x * x + t * t - y * y - z * z),
              dy=x * y, dz=x * z, du=-u * x),
        field("e4", dt=x, dx=t),
        field("e5", dt=z * t, dx=z * x, dy=y * z,
              dz=half * (z * z + t * t - y * y - x * x), du=-u * z),
        field("e6", dt=z, dz=t),
        field("e7", dt=t, dx=x, dy=y, dz=z),
        field("e8", dt=MPoly.const(1, nv)),
        field("e9", dt=t * t + x * x + y * y + z * z, dx=2 * t * x,
              dy=2 * t * y, dz=2 * t * z, du=-2 * u * t),
        field("e10", dy=MPoly.const(1, nv)),
        field("e11", dx=MPoly.const(1, nv)),
        field("e12", dz=MPoly.const(1, nv)),
        field("e13", dy=z, dz=-y),
        field("e14", dx=z, dz=-x),
        field("e15", dx=-y, dy=x),  # orientation fixed by the commutator table
        field("e16", du=u),
    )
    return GeneratorCatalog("wave16", ("t", "x", "y", "z", "u"), fields)


@lru_cache(maxsize=None)
def wave15_catalog() -> GeneratorCatalog:
    """Semisimple 15-dimensional part: e1..e6, e7 - e16 (named e7m16),
    e8..e15."""
    base = wave16_catalog()
    nv = len(base.variables)
    e7 = base.field("e7")
    e16 = base.field("e16")
    e7m16 = PolyVectorField(
        "e7m16", base.variables,
        tuple(a - b for a, b in zip(e7.components, e16.components)))
    fields = tuple(base.fields[:6]) + (e7m16,) + tuple(
        base.field(f"e{k}") for k in range(8, 16))
    return GeneratorCatalog("wave15", base.variables, fields)


# ----------------------------------------------------------------------------
# contact-symmetry catalog of the flat-G2 system


def _prolong(name: str, xi: MPoly, phi: MPoly, psi: MPoly) -> PolyVectorField:
    """Second-order prolongation over (x, u, u1, u2, v) for symmetries of
    the rank-2 distribution with v' = u2^2; the u1/u2 components are forced
    by the contact conditions."""
    nv = 5
    u1 = MPoly.var(2, nv)
    u2 = MPoly.var(3, nv)

    def D(f: MPoly) -> MPoly:
        return f.diff(0) + u1 * f.diff(1) + u2 * f.diff(2) + (u2 * u2) * f.diff(4)

    if phi.diff(3) != u1 * xi.diff(3):
        raise ValueError(f"{name}: first contact condition fails")
    phi1 = D(phi) - u1 * D(xi)
    if phi1.diff(3) != u2 * xi.diff(3):
        raise ValueError(f"{name}: second contact condition fails")
    phi2 = D(phi1) - u2 * D(xi)
    if psi.diff(3) != (u2 * u2) * xi.diff(3):
        raise ValueError(f"{name}: v contact condition fails")
    if D(psi) - (u2 * u2) * D(xi) != 2 * u2 * phi2:
        raise ValueError(f"{name}: v prolongation condition fails")
    return PolyVectorField(name, ("x", "u", "u1", "u2", "v"),
                           (xi, phi, phi1, phi2, psi))


@lru_cache(maxsize=None)
def g2_catalog() -> GeneratorCatalog:
    """Fourteen contact symmetries of the system with v' = (u'')^2, stored
    prolonged over (x, u, u1, u2, v) so plain brackets close."""
    nv = 5
    x, u, u1, u2, v = (MPoly.var(i, nv) for i in range(nv))
    zero = MPoly(nv, {})
    f = Fraction

    def P(name, xi=zero, phi=zero, psi=zero):
        return _prolong(name, xi, phi, psi)

    fields = (
        P("X1",
          xi=f(2, 3) * u1 * u1 - u * u2,
          phi=f(1, 2) * u * v + f(4, 9) * u1 * u1 * u1 - u * u1 * u2,
          psi=f(1, 2) * v * v - f(1, 3) * u * u2 * u2 * u2),
        P("X2",
          xi=f(4, 3) * x * x * u1 - 2 * x * u - f(1, 3) * x * x * x * u2,
          phi=(f(1, 6) * x * x * x * v + f(2, 3) * x * x * u1 * u1
               - 2 * u * u - f(1, 3) * x * x * x * u1 * u2),
          psi=(2 * x * u1 * v - 2 * u * v - f(1, 9) * x * x * x * u2 * u2 * u2
               - f(8, 9) * u1 * u1 * u1)),
        P("X3",
          xi=f(8, 3) * x * u1 - 2 * u - x * x * u2,
          phi=(f(1, 2) * x * x * v + f(4, 3) * x * u1 * u1
               - x * x * u1 * u2),
          psi=2 * v * u1 - f(1, 3) * x * x * u2 * u2 * u2),
        P("X4",
          xi=f(8, 3) * u1 - 2 * x * u2,
          phi=x * v + f(4, 3) * u1 * u1 - 2 * x * u1 * u2,
          psi=-f(2, 3) * x * u2 * u2 * u2),
        P("X5",
          xi=-2 * u2,
          phi=v - 2 * u1 * u2,
          psi=-f(2, 3) * u2 * u2 * u2),
        P("X6", phi=f(1, 2) * u, psi=v),
        P("X7", xi=-f(1, 2) * x * x, phi=-f(3, 2) * x * u, psi=-2 * u1 * u1),
        P("X8", xi=-x, phi=-f(3, 2) * u),
        P("X9", xi=MPoly.const(1, nv)),  # orientation fixed by the commutator table
        P("X10", phi=f(1, 6) * x * x * x, psi=2 * (x * u1 - u)),
        P("X11", phi=f(1, 2) * x * x, psi=2 * u1),
        P("X12", phi=x),
        P("X13", phi=MPoly.const(1, nv)),
        P("X14", psi=MPoly.const(1, nv)),
    )
    return GeneratorCatalog("g2", ("x", "u", "u1", "u2", "v"), fields)


_CATALOGS = {"wave16": wave16_catalog, "wave15": wave15_catalog,
             "g2": g2_catalog}


def catalog_by_name(name: str) -> GeneratorCatalog:
    key = name.lower()
    if key in _CATALOGS:
        return _CATALOGS[key]()
    raise UnknownName(f"unknown catalog {name!r}")


@lru_cache(maxsize=None)
def algebra_by_name(name: str) -> LieAlgebra:
    """Built-in algebras addressable by name: catalog names or so(p,q)."""
    key = name.lower().replace(" ", "")
    if key.startswith("so(") and key.endswith(")"):
        p, q = key[3:-1].split(",")
        return so_pq_generators(int(p), int(q))
    return structure_constants(catalog_by_name(key))
