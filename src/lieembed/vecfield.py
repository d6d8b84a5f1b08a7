"""Polynomial vector fields, their brackets, structure-constant extraction,
orthogonal-algebra generators and invariant counting.

The built-in catalogs reproduce the commutator tables of the two symmetry
algebras shipped with the golden corpus; the contact-symmetry catalog stores
prolonged fields so the plain vector-field bracket closes on the span.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Sequence

from .errors import Frozen, NotClosed, UnknownName, VariableMismatch
from .exactlin import ZERO, ONE, format_rat, linear_solver, rat, rref
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


class PolyVectorField(Frozen):
    """Vector field with one polynomial component per variable."""

    __slots__ = ("name", "variables", "components")

    def __init__(self, name: str, variables: tuple, components: tuple):
        if len(components) != len(variables):
            raise ValueError("component count != variable count")
        super().__init__(name, variables, components)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def to_json(self):
        return {"name": self.name,
                "components": [c.to_json() for c in self.components]}


class _Packed:
    """Fields over the same variables in integer form for the bracket kernel:
    coefficients times the common denominator ``den``, and each (component,
    monomial) packed into one int of ``width`` bits per exponent with the
    component in the slot above.  ``width`` holds twice the top exponent, so
    adding two packed monomials never carries.  A field is ``(terms,
    partials)``: ``(j, ((monomial, coeff), ...))`` per nonzero component j,
    and j -> the packed terms of every ``d_j`` of a component."""

    def __init__(self, fields: Sequence[PolyVectorField]):
        for f in fields[1:]:
            if f.variables != fields[0].variables:
                raise VariableMismatch(f"{fields[0].variables} vs {f.variables}")
        self.nvars = len(fields[0].variables) if fields else 0
        terms = [(i, e, c) for f in fields for i, comp in enumerate(f.components)
                 for e, c in comp.terms.items()]
        self.den = lcm(*(c.denominator for _, _, c in terms))
        top = max((x for _, e, _ in terms for x in e), default=0)
        self.width = (2 * top).bit_length() or 1
        self.fields = [self._pack(f) for f in fields]

    def _pack(self, f: PolyVectorField):
        terms = []
        partials: dict = {}
        for i, comp in enumerate(f.components):
            scaled = [(e, c.numerator * (self.den // c.denominator))
                      for e, c in comp.terms.items()]
            if scaled:
                terms.append((i, tuple((self.key(0, e), c) for e, c in scaled)))
            for e, c in scaled:
                for j, x in enumerate(e):
                    if x:
                        partials.setdefault(j, []).append(
                            (self.key(i, e) - (1 << j * self.width), c * x))
        return terms, partials

    def key(self, i: int, e) -> int:
        w = self.width
        return sum(x << k * w for k, x in enumerate(e)) + (i << self.nvars * w)

    def unkey(self, key: int):
        """(component, exponent tuple) of a packed key."""
        w = self.width
        mask = (1 << w) - 1
        return key >> self.nvars * w, tuple((key >> k * w) & mask
                                           for k in range(self.nvars))

    def bracket(self, a: int, b: int) -> dict:
        """den**2 * [field a, field b] as {packed key: nonzero int}."""
        v, w = self.fields[a], self.fields[b]
        out: dict = {}
        for sign, (terms, _), (_, partials) in ((1, v, w), (-1, w, v)):
            for j, comp in terms:
                d = partials.get(j)
                if d:
                    for m, c in comp:
                        c *= sign
                        for k, x in d:
                            out[m + k] = out.get(m + k, 0) + c * x
        return {k: c for k, c in out.items() if c}


def vf_bracket(v: PolyVectorField, w: PolyVectorField) -> PolyVectorField:
    """Lie bracket [v, w]_i = sum_j (v_j d_j w_i - w_j d_j v_i)."""
    packed = _Packed((v, w))
    nv, d2 = packed.nvars, packed.den ** 2
    comps = [{} for _ in range(nv)]
    for key, c in packed.bracket(0, 1).items():
        i, e = packed.unkey(key)
        comps[i][e] = Fraction(c, d2)
    return PolyVectorField(f"[{v.name},{w.name}]", v.variables,
                           tuple(MPoly(nv, t) for t in comps))


class GeneratorCatalog(Frozen):
    __slots__ = ("name", "variables", "fields")  # str, tuple, PolyVectorFields

    def field(self, name: str) -> PolyVectorField:
        for f in self.fields:
            if f.name == name:
                return f
        raise KeyError(name)

    def combination(self, coeffs: Sequence) -> PolyVectorField:
        """Rational combination of the catalog fields."""
        nv = len(self.variables)
        comps = [{} for _ in range(nv)]
        parts = []
        for c, f in zip(coeffs, self.fields):
            c = rat(c)
            if c:
                parts.append(f"{format_rat(c)}*{f.name}")
                for out, comp in zip(comps, f.components):
                    for e, x in comp.terms.items():
                        out[e] = out.get(e, ZERO) + c * x
        return PolyVectorField("+".join(parts) or "0", self.variables,
                               tuple(MPoly(nv, t) for t in comps))

    def to_json(self):
        return {"name": self.name, "vars": list(self.variables),
                "fields": [f.to_json() for f in self.fields]}


def structure_constants(catalog: GeneratorCatalog) -> LieAlgebra:
    """Express every pairwise bracket in the generator basis; the resulting
    table is validated for antisymmetry (by storage) and Jacobi.

    A bracket with a monomial that no field has raises ``NotClosed`` whose
    ``residual`` is ``(component, exponent tuple, coefficient)`` of the first
    such term in (component, graded-lex) order.
    """
    fields = catalog.fields
    packed = _Packed(fields)
    # one row per packed (component, monomial) key of the fields, in order;
    # column f holds den * the coefficients of field f
    shift = packed.nvars * packed.width
    keys = sorted({(i << shift) + k for terms, _ in packed.fields
                   for i, comp in terms for k, _ in comp})
    index = {key: r for r, key in enumerate(keys)}
    cols = [({index[(i << shift) + k]: c for i, comp in terms for k, c in comp}, {})
            for terms, _ in packed.fields]
    n = len(fields)
    rank, solve = linear_solver((packed.den, 0, cols), len(keys))
    if rank < n:
        raise ValueError(f"catalog {catalog.name!r} fields are dependent")
    d2 = packed.den ** 2
    brackets = {}
    for i in range(n):
        for j in range(i + 1, n):
            pair = (fields[i].name, fields[j].name)
            col, bad = {}, []
            for key, c in packed.bracket(i, j).items():
                r = index.get(key)
                if r is None:
                    bad.append(packed.unkey(key) + (Fraction(c, d2),))
                else:
                    col[r] = c
            if bad:
                comp, e, c = min(bad, key=lambda t: (t[0], sum(t[1]), t[1]))
                raise NotClosed(f"[{pair[0]}, {pair[1]}] leaves the span "
                                f"(new monomial in component {comp})",
                                pair=pair, residual=(comp, e, c))
            sol = solve((d2, 0, col, {}))
            if sol is None:
                raise NotClosed(f"[{pair[0]}, {pair[1]}] leaves the span",
                                pair=pair)
            comp = {k: c for k, c in enumerate(sol) if c}
            if comp:
                brackets[(i, j)] = comp
    names = [f.name for f in fields]
    return LieAlgebra(n, names, brackets, name=catalog.name)


@lru_cache(maxsize=None)
def _points(n_vars: int) -> tuple:
    """The five evaluation points of :func:`invariant_count`: the primes,
    then four seeded random rational points."""
    points = [tuple(Fraction(_PRIMES[i % len(_PRIMES)]) for i in range(n_vars))]
    rng = random.Random(0)
    for _ in range(4):
        points.append(tuple(Fraction(rng.randint(-19, 19), rng.randint(1, 7))
                            for _ in range(n_vars)))
    return tuple(points)


def invariant_count(fields: Sequence[PolyVectorField], n_vars: int) -> int:
    """Number of functionally independent joint invariants:
    n_vars minus the generic rank of the coefficient matrix.

    Generic rank is the maximum exact rank over a fixed deterministic
    sequence of five rational evaluation points.  The points stop at the
    first whose rank reaches the number of fields or of components, which
    no point can pass.
    """
    if not fields:
        return n_vars
    cap = min(len(fields), len(fields[0].components))
    best = 0
    for p in _points(n_vars):
        rows = [[comp.eval(p) for comp in f.components] for f in fields]
        best = max(best, len(rref(rows)[1]))
        if best >= cap:
            break
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
    # the two entries (row, column, value) of E_ij -+ E_ji
    gens = [((i, j, 1), (j, i, -metric[i] * metric[j])) for i, j in pairs]
    # coordinates of a matrix in the generator basis: entry (i, j), i < j
    index = {pr: k for k, pr in enumerate(pairs)}
    brackets = {}
    for a, ga in enumerate(gens):
        for b in range(a + 1, len(gens)):
            comm: dict = {}
            for sign, x, y in ((1, ga, gens[b]), (-1, gens[b], ga)):
                for r, m, u in x:
                    for m2, c, v in y:
                        if m == m2:
                            comm[r, c] = comm.get((r, c), 0) + sign * u * v
            comp = sorted((index[rc], v) for rc, v in comm.items()
                          if v and rc in index)
            if comp:
                brackets[(a, b)] = dict(comp)
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
        # at most four digits each, so int() never meets a long string
        m = re.fullmatch(r"\+?0*(\d{1,4}),\+?0*(\d{1,4})", key[3:-1], re.ASCII)
        if m is None or int(m[1]) + int(m[2]) < 2:
            raise ValueError("expected so(p,q) with integers 0 <= p, q <= 9999 "
                             "and p + q >= 2")
        return so_pq_generators(int(m[1]), int(m[2]))
    return structure_constants(catalog_by_name(key))
