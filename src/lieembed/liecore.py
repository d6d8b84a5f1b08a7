"""Lie algebras by structure constants and the basic structural operations.

Elements are coordinate tuples in the algebra basis; subspaces carry a
canonical row-reduced basis so equality of subspaces is structural
equality of their rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (CenterObstruction, ExtensionDegreeTooHigh,
                     InvalidStructureConstants, NotASubalgebra, NotATorus)
from .exactlin import (Matrix, Poly, Scalar, Vector, ZERO, ONE,
                       factor_roots, format_rat, linear_solver, min_poly,
                       poly_ext_gcd, poly_gcd, rat, scalar_d, scalar_parts,
                       scalar_to_json, squarefree_part, symmetric_signature,
                       unit_vector, _kernel_ints, _rref_ints,
                       _same_d, _scaled_rows, _scaled_vector, _sub_multiple,
                       _unscaled_vector)

NILPOTENT = "nilpotent"
REAL_SEMISIMPLE = "real_semisimple"
COMPACT_SEMISIMPLE = "compact_semisimple"
MIXED_SEMISIMPLE = "mixed_semisimple"
GENERAL = "general"


class LieAlgebra:
    """Finite-dimensional real Lie algebra given by structure constants.

    ``brackets`` maps (i, j) with i < j to {k: c} for
    [b_i, b_j] = sum_k c * b_k; antisymmetry is implied by storage.  Index
    pairs and components outside the basis raise
    :class:`InvalidStructureConstants`, and so does a Jacobi failure.

    The integer table ``D * c``, with ``D`` the lcm of all denominators, is
    built once and kept on the algebra (:meth:`scaled_table`).
    :meth:`bracket`, :meth:`ad`, the Jacobi check and the Killing matrix
    all sum over it in plain ints and divide by the scale once per entry.
    The Jacobi identity is checked on construction: it is homogeneous
    quadratic in the constants, so scaling keeps every verdict.
    """

    def __init__(self, dim: int, basis_names: Sequence[str],
                 brackets: Mapping[tuple[int, int], Mapping[int, Fraction]],
                 name: str = "", validate: bool = True):
        if type(dim) is not int:
            raise ValueError(f"dim must be an integer, got {dim!r}")
        if len(basis_names) != dim:
            raise ValueError("basis name count != dim")
        self.basis_names = names = tuple(basis_names)
        bad = [x for x in names if type(x) is not str]
        if bad:
            raise ValueError(f"basis names must be strings, got {bad[0]!r}")
        if len(set(names)) != dim:
            repeated = next(x for i, x in enumerate(names) if x in names[:i])
            raise ValueError(f"repeated basis name {repeated!r}")
        self.dim = dim
        self.name = name
        table = {}
        for (i, j), comp in brackets.items():
            if not (0 <= i < j < dim):
                raise InvalidStructureConstants(f"bad bracket index pair {(i, j)}")
            comp = {k: rat(c) for k, c in comp.items() if rat(c) != 0}
            for k in comp:
                if not 0 <= k < dim:
                    raise InvalidStructureConstants(
                        f"bracket {(i, j)} has component index {k} outside "
                        f"0..{dim - 1}")
            if comp:
                table[(i, j)] = comp
        self.brackets = table
        self._table: Optional[tuple[int, list[list[dict]]]] = None
        self._killing: Optional[Matrix] = None
        self._signature: Optional[tuple[int, int, int, Scalar]] = None
        self._ad_solver: Optional[tuple[int, Callable]] = None
        self._spectra: dict[Vector, Spectrum] = {}
        if validate:
            self._check_jacobi()

    # -- construction helpers

    def index_of(self, name: str) -> int:
        return self.basis_names.index(name)

    def element(self, coords: Mapping[str, object] | Sequence) -> Vector:
        """Element from a name->coefficient mapping or a coordinate list."""
        if isinstance(coords, Mapping):
            v = [ZERO] * self.dim
            for name, c in coords.items():
                v[self.index_of(name)] = rat(c)
            return tuple(v)
        v = [rat(c) if isinstance(c, (int, str)) else c for c in coords]
        if len(v) != self.dim:
            raise ValueError("coordinate length != dim")
        return tuple(v)

    def basis_vector(self, name_or_index) -> Vector:
        i = name_or_index if isinstance(name_or_index, int) else self.index_of(name_or_index)
        return unit_vector(self.dim, i)

    def format_element(self, v: Vector) -> str:
        parts = []
        for c, name in zip(v, self.basis_names):
            if not c:
                continue
            a, b, d = scalar_parts(c)
            if b == 0 and a == 1:
                parts.append(f"+{name}")
            elif b == 0 and a == -1:
                parts.append(f"-{name}")
            elif b == 0:
                parts.append(f"{'+' if a > 0 else '-'}{format_rat(abs(a))}*{name}")
            else:
                parts.append(f"+({c!r})*{name}")
        if not parts:
            return "0"
        out = "".join(parts)
        return out[1:] if out.startswith("+") else out

    # -- core operations

    def _bracket_ints(self, x: tuple, y: tuple) -> tuple[int, int, dict, dict]:
        """(den, d, a, b) with ``den * [x, y] = a + b*sqrt(d)`` for operands
        in the scaled form (den, d, a, b) of :func:`_scaled_vector`, a and b
        sparse integer rows.  Entries over Q(sqrt d) are split into their
        rational and surd parts, on which the bracket is bilinear."""
        dx, d, xa, xb = x
        dy, e, ya, yb = y
        d = _same_d(d, e)
        scale, table = self.scaled_table()
        a, b = [0] * self.dim, [0] * self.dim
        _accumulate(table, xa, ya, 1, a)
        if xb or yb:
            _accumulate(table, xb, yb, d, a)
            _accumulate(table, xa, yb, 1, b)
            _accumulate(table, xb, ya, 1, b)
        return scale * dx * dy, d, _sparse(a), _sparse(b) if xb or yb else {}

    def bracket(self, x: Vector, y: Vector) -> Vector:
        den, d, a, b = self._bracket_ints(_scaled_vector(x), _scaled_vector(y))
        return _unscaled_vector(den, d, a.items(), b.items(), self.dim)

    def _ad_ints(self, x: tuple) -> list[tuple[int, int, dict, dict]]:
        """[x, b_j] for each j, in the scaled form of :meth:`_bracket_ints`."""
        return [self._bracket_ints(x, (1, 0, {j: 1}, {})) for j in range(self.dim)]

    def ad(self, x: Vector) -> Matrix:
        """Matrix of [x, -]; column j is [x, b_j], summed in ints."""
        return Matrix.from_columns([_unscaled_vector(den, d, a.items(), b.items(), self.dim)
                                    for den, d, a, b in self._ad_ints(_scaled_vector(x))])

    def killing_matrix(self) -> Matrix:
        """K_ij = trace(ad b_i ad b_j) = sum_{s,r} c_is^r c_jr^s, summed over
        the integer table ``D * c`` and divided by ``D^2`` once."""
        if self._killing is None:
            scale, table = self.scaled_table()
            n = self.dim
            # nonzero entries (r, s) of D * ad(b_i), as (s, r, value)
            ads = [[(s, r, v) for s, row in enumerate(table[i]) for r, v in row.items()]
                   for i in range(n)]
            entries = [[ZERO] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    tj = table[j]
                    t = sum(v * tj[r].get(s, 0) for s, r, v in ads[i])
                    if t:
                        entries[i][j] = entries[j][i] = Fraction(t, scale * scale)
            self._killing = Matrix(entries)
        return self._killing

    def killing_data(self) -> tuple[int, int, int, Scalar]:
        """(n_pos, n_neg, n_zero, det) of the Killing form, from one
        :func:`symmetric_signature` of :meth:`killing_matrix`; kept."""
        if self._signature is None:
            self._signature = symmetric_signature(self.killing_matrix())
        return self._signature

    def killing(self, x: Vector, y: Vector):
        K = self.killing_matrix()
        return sum((xi * kj for xi, kj in zip(x, K.apply(y)) if xi and kj), ZERO)

    def ad_map(self) -> tuple[int, Callable]:
        """(rank, solve) of y -> ad(y), the n*n x n matrix whose column i is
        ad(b_i) read row by row (:func:`linear_solver`); factored once, kept."""
        if self._ad_solver is None:
            cols = [tuple(c for row in self.ad(unit_vector(self.dim, i)).entries
                          for c in row) for i in range(self.dim)]
            self._ad_solver = linear_solver(Matrix.from_columns(cols))
        return self._ad_solver

    def center_dim(self) -> int:
        """Dimension of the center (kernel of the adjoint map)."""
        return self.dim - self.ad_map()[0]

    def scaled_table(self) -> tuple[int, list[list[dict]]]:
        """(D, table) with D the lcm of all denominators and table[a][b] =
        D * [b_a, b_b] as a sparse integer row, both orders stored; built on
        first use and kept.  Zero brackets share one empty row."""
        if self._table is None:
            n = self.dim
            scale = lcm(*(c.denominator for comp in self.brackets.values()
                          for c in comp.values()))
            empty: dict = {}
            table: list[list[dict]] = [[empty] * n for _ in range(n)]
            for (i, j), comp in self.brackets.items():
                row = {k: c.numerator * (scale // c.denominator)
                       for k, c in comp.items()}
                table[i][j] = row
                table[j][i] = {k: -v for k, v in row.items()}
            self._table = scale, table
        return self._table

    def _check_jacobi(self):
        n = self.dim
        _, table = self.scaled_table()
        for i in range(n):
            ti = table[i]
            for j in range(i + 1, n):
                tj, tij = table[j], ti[j]
                for k in range(j + 1, n):
                    tk = table[k]
                    # [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]]
                    total = [0] * n
                    for inner, outer in ((tj[k], ti), (tk[i], tj), (tij, tk)):
                        for m, v in inner.items():
                            for l, w in outer[m].items():
                                total[l] += v * w
                    if any(total):
                        raise InvalidStructureConstants(
                            f"Jacobi identity fails on basis triple "
                            f"({self.basis_names[i]}, {self.basis_names[j]}, "
                            f"{self.basis_names[k]})")

    # -- (de)serialization

    def to_json(self) -> dict:
        out = []
        for (i, j), comp in sorted(self.brackets.items()):
            out.append({"i": i, "j": j,
                        "c": {str(k): format_rat(c) for k, c in sorted(comp.items())}})
        return {"dim": self.dim, "basis": list(self.basis_names), "brackets": out}

    @classmethod
    def from_json(cls, obj, name: str = "") -> "LieAlgebra":
        brackets = {}
        for entry in obj.get("brackets", []):
            pair = (entry["i"], entry["j"])
            if any(type(x) is not int for x in pair):
                raise ValueError(f"bracket indices must be integers, got {pair}")
            if pair in brackets:
                raise ValueError(f"two brackets entries for the pair {pair}")
            brackets[pair] = {int(k): rat(c) for k, c in entry["c"].items()}
        return cls(obj["dim"], obj["basis"], brackets, name=name)

    def __repr__(self):
        return f"LieAlgebra({self.name or 'dim=%d' % self.dim})"


def _sparse(v: list) -> dict:
    return {k: x for k, x in enumerate(v) if x}


def _add_combination(rows: Sequence[tuple[dict, dict]], fa: dict, fb: dict,
                     d: int, a: dict, b: dict) -> None:
    """``a + b*sqrt(d) += sum_i (fa_i + fb_i*sqrt d) * (ra_i + rb_i*sqrt d)``
    in place, over integer rows (ra_i, rb_i) and integer coefficients keyed
    by row number; a and b are sparse."""
    for i, f in fa.items():
        if f:
            _sub_multiple(a, -f, rows[i][0])
            _sub_multiple(b, -f, rows[i][1])
    for i, g in fb.items():
        if g:
            _sub_multiple(a, -g * d, rows[i][1])
            _sub_multiple(b, -g, rows[i][0])


def _transpose(rows: list[tuple[dict, dict]], width: int) -> list[tuple[dict, dict]]:
    """The ``width`` columns of the matrix with the given sparse rows."""
    cols: list[tuple[dict, dict]] = [({}, {}) for _ in range(width)]
    for j, (a, b) in enumerate(rows):
        for k, x in a.items():
            cols[k][0][j] = x
        for k, x in b.items():
            cols[k][1][j] = x
    return cols


def _accumulate(table: list[list[dict]], xs: dict, ys: dict, f: int,
                out: list) -> None:
    """``out += f * sum x_i y_j table[i][j]`` over sparse integer xs, ys."""
    for i, a in xs.items():
        ti = table[i]
        for j, b in ys.items():
            row = ti[j]
            if row:
                ab = f * a * b
                for k, c in row.items():
                    out[k] += ab * c


class Subspace:
    """Linear subspace of a LieAlgebra with a canonical RREF basis.

    The state is that basis scaled to one denominator: ``den * row_i =
    a_i + b_i*sqrt(d)`` with sparse integer rows a_i, b_i (``ints``), den
    the least such denominator and d = 0 unless a surd part is nonzero.  So
    a_i is den at its pivot, the coordinates of a member v are v at the
    pivot columns, and v is a member iff ``v - from_coords(v[pivots])`` is
    zero, all computed in plain ints.  ``rows`` is the Fraction (or
    ExactScalar) view of the basis, built on first use.
    """

    __slots__ = ("algebra", "pivots", "den", "d", "ints", "_rows")

    def __init__(self, algebra: LieAlgebra, vectors: Iterable[Vector]):
        self._set(algebra, *_scaled_rows(vectors)[1:])

    def _set(self, algebra: LieAlgebra, d: int, rows: list[tuple[dict, dict]],
             pivots: Optional[Sequence[int]] = None) -> None:
        """The span of integer rows (a, b) over Z[sqrt d], scales ignored,
        kept as the :func:`_rref_ints` rows (or rows that are already those,
        with their pivots) brought to the lcm of their pivots."""
        if pivots is None:
            rows, pivots = _rref_ints(rows, d)
        den = lcm(*(a[p] for (a, _), p in zip(rows, pivots)))
        self.ints = tuple((a, b) if a[p] == den else
                          ({k: x * (den // a[p]) for k, x in a.items()},
                           {k: x * (den // a[p]) for k, x in b.items()})
                          for (a, b), p in zip(rows, pivots))
        self.algebra, self.pivots, self.den = algebra, tuple(pivots), den
        self.d = d if any(b for _, b in rows) else 0
        self._rows: Optional[tuple[Vector, ...]] = None

    @classmethod
    def _span(cls, algebra: LieAlgebra, d: int, rows: list,
              pivots: Optional[Sequence[int]] = None) -> "Subspace":
        sub = object.__new__(cls)
        sub._set(algebra, d, rows, pivots)
        return sub

    @classmethod
    def full(cls, algebra: LieAlgebra) -> "Subspace":
        n = algebra.dim
        return cls._span(algebra, 0, [({i: 1}, {}) for i in range(n)], range(n))

    @classmethod
    def zero(cls, algebra: LieAlgebra) -> "Subspace":
        return cls._span(algebra, 0, [])

    @property
    def rows(self) -> tuple[Vector, ...]:
        if self._rows is None:
            n = self.algebra.dim
            self._rows = tuple(_unscaled_vector(self.den, self.d, a.items(), b.items(), n)
                               for a, b in self.ints)
        return self._rows

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.algebra is other.algebra
                and self.pivots == other.pivots and self.den == other.den
                and self.d == other.d and self.ints == other.ints)

    def __hash__(self):
        return hash((self.pivots, self.den, self.d,
                     tuple(frozenset(a.items()) for a, _ in self.ints)))

    def _vecs(self) -> list[tuple[int, int, dict, dict]]:
        """The basis rows in the scaled form of :func:`_scaled_vector`."""
        return [(self.den, self.d, a, b) for a, b in self.ints]

    def _combination(self, fa: dict, fb: dict, d: int, a: dict,
                     b: dict) -> tuple[int, int]:
        """``a + b*sqrt(d) += sum_i (fa_i + fb_i*sqrt d) * den * row_i`` for
        integer coefficients keyed by row number; returns (den, d)."""
        d = _same_d(d, self.d)
        _add_combination(self.ints, fa, fb, d, a, b)
        return self.den, d

    def _residual(self, dv: int, d: int, va: dict,
                  vb: dict) -> tuple[int, int, dict, dict]:
        """(den, d, a, b) with ``den * (v - from_coords(v[pivots])) =
        a + b*sqrt(d)`` for ``v = (va + vb*sqrt d) / dv`` (see
        :func:`_scaled_vector`), a and b sparse."""
        a, b = {}, {}
        den, d = self._combination(
            {i: -va[p] for i, p in enumerate(self.pivots) if p in va},
            {i: -vb[p] for i, p in enumerate(self.pivots) if p in vb}, d, a, b)
        _add_combination([(va, vb)], {0: den}, {}, d, a, b)
        return den * dv, d, a, b

    def _contains(self, v: tuple) -> bool:
        _, _, a, b = self._residual(*v)
        return not a and not b

    def _kernel_span(self, d: int, eqs: list[tuple[dict, dict]]) -> "Subspace":
        """The members whose coordinates x satisfy ``eqs x = 0``, for
        integer equation rows over Z[sqrt d]."""
        d = _same_d(d, self.d)
        (basis, pivots), rows = _kernel_ints(eqs, d, self.dim), []
        for ka, kb in basis:
            rows.append(({}, {}))
            _add_combination(self.ints, ka, kb, d, *rows[-1])
        # in all of L the kernel's basis is already primitive RREF
        return Subspace._span(self.algebra, d, rows,
                              pivots if self.dim == self.algebra.dim else None)

    def kernel_of(self, m: Matrix) -> "Subspace":
        """The members whose coordinates in the basis rows lie in the
        kernel of m (all of the subspace when m has no rows)."""
        return self._kernel_span(*_scaled_rows(m.entries)[1:])

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after elimination against the basis rows."""
        den, d, a, b = self._residual(*_scaled_vector(v))
        return _unscaled_vector(den, d, a.items(), b.items(), self.algebra.dim)

    def contains(self, v: Vector) -> bool:
        return self._contains(_scaled_vector(v))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self._contains(v) for v in other._vecs())

    def coords_of(self, v: Vector) -> Optional[Vector]:
        """Coordinates of v in the basis rows, or None if outside."""
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def from_coords(self, coords: Sequence) -> Vector:
        dc, d, ca, cb = _scaled_vector(coords)
        a, b = {}, {}
        den, d = self._combination(ca, cb, d, a, b)
        return _unscaled_vector(den * dc, d, a.items(), b.items(), self.algebra.dim)

    def _with_ints(self, d: int, rows: list[tuple[dict, dict]]) -> "Subspace":
        return Subspace._span(self.algebra, _same_d(self.d, d), [*self.ints, *rows])

    def sum(self, other: "Subspace") -> "Subspace":
        return self._with_ints(other.d, list(other.ints))

    def with_vectors(self, vectors: Iterable[Vector]) -> "Subspace":
        return self._with_ints(*_scaled_rows(vectors)[1:])

    def complement_in(self, larger: "Subspace") -> "Subspace":
        """Canonical complement: rows of ``larger`` whose pivot is not ours."""
        if not larger.contains_subspace(self):
            raise ValueError("complement_in requires containment")
        mine = set(self.pivots)
        return Subspace._span(self.algebra, larger.d, [
            r for r, p in zip(larger.ints, larger.pivots) if p not in mine])

    def is_subalgebra(self) -> bool:
        vecs = self._vecs()
        return all(self._contains(self.algebra._bracket_ints(x, y))
                   for i, x in enumerate(vecs) for y in vecs[i + 1:])

    def is_abelian(self) -> bool:
        vecs = self._vecs()
        return not any(w[2] or w[3] for i, x in enumerate(vecs) for y in vecs[i + 1:]
                       for w in [self.algebra._bracket_ints(x, y)])

    def restrict(self, m: Matrix) -> Matrix:
        """Matrix of an endomorphism that maps this subspace into itself,
        in the basis rows (0 x 0 for the zero subspace).  The image of each
        row is summed in ints over the columns of m, scaled to one
        denominator."""
        if not self.dim:
            return Matrix([])
        dm, d, mcols = _scaled_rows(list(zip(*m.entries)))
        d = _same_d(d, self.d)
        den, cols = self.den * dm, []
        for ra, rb in self.ints:
            wa, wb = {}, {}  # den * m(row) = wa + wb*sqrt(d)
            _add_combination(mcols, ra, rb, d, wa, wb)
            if not self._contains((den, d, wa, wb)):
                raise ValueError("subspace is not invariant")
            cols.append(_unscaled_vector(
                den, d, [(i, wa.get(p, 0)) for i, p in enumerate(self.pivots)],
                [(i, wb.get(p, 0)) for i, p in enumerate(self.pivots)], self.dim))
        return Matrix.from_columns(cols)

    def as_subalgebra(self) -> LieAlgebra:
        """This subspace as an abstract algebra in its own RREF basis."""
        k, vecs = self.dim, self._vecs()
        brackets = {}
        for i in range(k):
            for j in range(i + 1, k):
                w = self.algebra._bracket_ints(vecs[i], vecs[j])
                if not self._contains(w):
                    raise NotASubalgebra("bracket leaves the subspace")
                den, d, a, b = w
                coords = _unscaled_vector(
                    den, d, [(t, a.get(p, 0)) for t, p in enumerate(self.pivots)],
                    [(t, b.get(p, 0)) for t, p in enumerate(self.pivots)], k)
                comp = {t: c for t, c in enumerate(coords) if c}
                if comp:
                    brackets[(i, j)] = comp
        names = [f"s{t + 1}" for t in range(k)]
        return LieAlgebra(k, names, brackets, name=f"sub({self.dim})", validate=False)

    def to_json(self) -> list:
        return [[format_rat(x) if isinstance(x, Fraction) else scalar_to_json(x)
                 for x in row] for row in self.rows]

    def __repr__(self):
        return "<" + ", ".join(self.algebra.format_element(r) for r in self.rows) + ">"


# ----------------------------------------------------------------------------
# structural operations


def killing_signature(obj) -> tuple[int, int, int]:
    """Signature (n_pos, n_neg, n_zero) of the Killing form of an algebra
    or of a subspace viewed as an algebra in its own right."""
    if isinstance(obj, Subspace):
        if obj.dim == 0:
            return (0, 0, 0)
        obj = obj.as_subalgebra()
    return obj.killing_data()[:3]


def is_negative_definite(sub: Subspace) -> bool:
    pos, neg, zero = killing_signature(sub)
    return pos == 0 and zero == 0


def restricted_killing_signature(sub: Subspace) -> tuple[int, int, int]:
    """Signature of the ambient Killing form restricted to the subspace
    (this, not the subalgebra's own form, decides compactness when the
    subalgebra has a center).  Rows over Q(sqrt d) need d > 0."""
    if sub.dim == 0:
        return (0, 0, 0)
    rows = [[sub.algebra.killing(r, s) for s in sub.rows] for r in sub.rows]
    return symmetric_signature(Matrix(rows))[:3]


def derived_algebra(sub: Subspace) -> Subspace:
    L, vecs, brackets = sub.algebra, sub._vecs(), []
    for i, x in enumerate(vecs):
        for y in vecs[i + 1:]:
            brackets.append(L._bracket_ints(x, y))
            if not sub._contains(brackets[-1]):
                raise NotASubalgebra("derived algebra of a non-closed subspace")
    return Subspace._span(L, sub.d, [w[2:] for w in brackets])


def centralizer(L: LieAlgebra, sub: Subspace,
                within: Optional[Subspace] = None) -> Subspace:
    """{x : [x, s] = 0 for all s in sub}, optionally intersected down to
    ``within`` (computed there directly)."""
    if within is None:
        within = Subspace.full(L)
    if sub.dim == 0 or within.dim == 0:
        return within
    # unknown x = c . within.rows; conditions [s, x] = 0 for basis s, each
    # column [s, r] scaled by the same denominator
    eqs = []
    for s in sub._vecs():
        eqs.extend(_transpose([L._bracket_ints(s, r)[2:] for r in within._vecs()], L.dim))
    return within._kernel_span(sub.d, eqs)


def normalizer(L: LieAlgebra, sub: Subspace) -> Subspace:
    """{x : [x, s] in sub for all s in sub}."""
    if sub.dim == 0:
        return Subspace.full(L)
    eqs = []
    for s in sub._vecs():
        # the residual of [s, b_j] modulo sub, column j, must vanish
        eqs.extend(_transpose([sub._residual(*c)[2:] for c in L._ad_ints(s)], L.dim))
    return Subspace.full(L)._kernel_span(sub.d, eqs)


def center(sub: Subspace) -> Subspace:
    """Centralizer of sub inside sub."""
    return centralizer(sub.algebra, sub, within=sub)


def is_solvable(sub: Subspace) -> bool:
    current = sub
    for _ in range(sub.algebra.dim + 1):
        if current.dim == 0:
            return True
        nxt = derived_algebra(current)
        if nxt.dim == current.dim:
            return False
        current = nxt
    return False


def radical(obj) -> Subspace:
    """Maximal solvable ideal, via Killing-orthogonality to the derived
    algebra (Cartan's criterion), verified solvable.  Works in the subspace
    as an algebra, which is L itself when the subspace is all of L; the
    derived algebra is spanned a batch of table rows at a time until full,
    and a perfect algebra with a nondegenerate Killing form (the kept
    :meth:`LieAlgebra.killing_data`) is semisimple."""
    sub = Subspace.full(obj) if isinstance(obj, LieAlgebra) else obj
    L, k = sub.algebra, sub.dim
    if k == 0:
        return sub
    inner = L if k == L.dim else sub.as_subalgebra()
    _, table = inner.scaled_table()
    keys = list(inner.brackets)
    der, pivots = [], []
    for start in range(0, len(keys), k):
        der, pivots = _rref_ints(der + [(table[i][j], {}) for i, j in keys[start:start + k]], 0)
        if len(pivots) == k:
            break
    if not pivots:
        return sub  # abelian: the whole thing
    if len(pivots) == k and inner.killing_data()[2] == 0:
        return Subspace.zero(L)
    _, _, K = _scaled_rows(inner.killing_matrix().entries)
    eqs = K
    if len(pivots) < k:
        # K is symmetric: the rows der . K
        eqs = [({}, {}) for _ in der]
        for (a, _), row in zip(der, eqs):
            _add_combination(K, a, {}, 0, *row)
    result = sub._kernel_span(0, eqs)
    if not is_solvable(result):
        raise NotASubalgebra("Killing-orthogonal complement is not solvable")
    return result


@dataclass(frozen=True)
class LeviDecomposition:
    radical: Subspace
    levi: Subspace


def levi_decomposition(sub: Subspace) -> LeviDecomposition:
    """Levi decomposition by iterative lifting of a canonical complement
    across the derived series of the radical (a linear solve per stage),
    in ints: the complement's rows x_i share the denominator X."""
    L = sub.algebra
    rad = radical(sub)
    if rad.dim == 0:
        return LeviDecomposition(rad, sub)
    if rad.dim == sub.dim:
        return LeviDecomposition(rad, Subspace.zero(L))
    comp = rad.complement_in(sub)
    s_dim, d = comp.dim, sub.d
    scale = L.scaled_table()[0]
    X, xs = comp.den, comp._vecs()  # the x_i share the denominator X

    # structure constants of sub/rad: [x_i, x_j] = sum_k c_ij^k x_k modulo
    # rad, read off the residual at comp's pivots (the x_k vanish at rad's);
    # C * c_ij^k = ca[k] + cb[k]*sqrt(d), one C for all pairs
    c_table = {}
    for i in range(s_dim):
        for j in range(i + 1, s_dim):
            C, _, a, b = rad._residual(*L._bracket_ints(xs[i], xs[j]))
            c_table[(i, j)] = ({k: a[p] for k, p in enumerate(comp.pivots) if p in a},
                               {k: b[p] for k, p in enumerate(comp.pivots) if p in b})

    # derived series of the radical
    series = [rad]
    while series[-1].dim > 0:
        series.append(derived_algebra(series[-1]))
        if series[-1].dim == series[-2].dim:
            raise NotASubalgebra("radical is not solvable")

    # lift stage by stage: after stage m, brackets close modulo series[m+1];
    # corrections r_i = sum_w t[i,w] w live in series[m], and the defect
    # [x_i, x_j] - sum_k c_ij^k x_k + [x_i, r_j] - [x_j, r_i] - sum_k c_ij^k r_k
    # must lie in series[m+1]: one column per unknown t[m,w], then the defect
    for Rj, Rj1 in zip(series, series[1:]):
        nr, R, ws = Rj.dim, Rj.den, Rj.ints
        # each column lies in Rj, so modulo Rj1 it is read at Rj's pivots
        # that are not Rj1's; the residual scales all columns alike
        below = set(Rj1.pivots)
        at = [p for p in Rj.pivots if p not in below]

        def mod_rj1(a, b):
            _, _, a, b = Rj1._residual(1, d, a, b)
            return ({t: a[q] for t, q in enumerate(at) if q in a},
                    {t: b[q] for t, q in enumerate(at) if q in b})

        # columns over C*scale*X^2*R: brackets [x, w] times C*X, c*w times scale*X^2
        rb = [[mod_rj1(*L._bracket_ints(x, w)[2:]) for w in Rj._vecs()] for x in xs]
        rw = [mod_rj1(*w) for w in ws]
        fB, fC = C * X, scale * X * X
        eqs = []
        for (i, j), (ca, cb) in c_table.items():
            cols = []
            for m in range(s_dim):
                for w in range(nr):
                    za, zb = {}, {}
                    _add_combination(rw, {w: -fC * ca.get(m, 0)}, {w: -fC * cb.get(m, 0)},
                                     d, za, zb)
                    if m == j:
                        _add_combination(rb[i], {w: fB}, {}, d, za, zb)
                    if m == i:
                        _add_combination(rb[j], {w: -fB}, {}, d, za, zb)
                    cols.append((za, zb))
            za, zb = {}, {}
            f = -scale * X * R
            _add_combination([x[2:] for x in xs], {k: f * y for k, y in ca.items()},
                             {k: f * y for k, y in cb.items()}, d, za, zb)
            _add_combination([L._bracket_ints(xs[i], xs[j])[2:]], {0: C * R}, {}, d, za, zb)
            cols.append(mod_rj1(za, zb))
            eqs.extend(_transpose(cols, len(at)))
        sol, piv = _rref_ints(eqs, d)
        N = s_dim * nr  # the defect column
        assert N not in piv, "Levi lifting system must be solvable"
        # t_u = -(a[N] + b[N]*sqrt d) / a[u]; T*t_u over the common T
        T = lcm(*(a[u] for (a, _), u in zip(sol, piv)))
        ta = {u: -a.get(N, 0) * (T // a[u]) for (a, _), u in zip(sol, piv)}
        tb = {u: -b.get(N, 0) * (T // a[u]) for (a, b), u in zip(sol, piv)}
        new = []
        for i, x in enumerate(xs):
            # (X*R*T) * (x_i + r_i)
            za, zb = {}, {}
            _add_combination(ws, {w: X * ta.get(i * nr + w, 0) for w in range(nr)},
                             {w: X * tb.get(i * nr + w, 0) for w in range(nr)}, d, za, zb)
            _add_combination([x[2:]], {0: R * T}, {}, d, za, zb)
            new.append((X * R * T, d, za, zb))
        X, xs = X * R * T, new
    levi = Subspace._span(L, d, [x[2:] for x in xs])
    assert levi.dim == s_dim and levi.is_subalgebra()
    return LeviDecomposition(rad, levi)


@dataclass(frozen=True)
class JordanPair:
    semisimple: Vector
    nilpotent: Vector
    center_obstructed: bool = False


def _semisimple_poly(s: Spectrum) -> Poly:
    """Polynomial p with p(m) the semisimple part of the matrix m whose
    spectrum is s (Newton iteration in Q[t]/(minpoly))."""
    if s.semisimple:
        return Poly.x()
    mp = s.min_poly
    g = squarefree_part(mp)
    x = Poly.x() % mp
    for _ in range(mp.degree + 1):
        gx = g.compose_mod(x, mp)
        if gx.is_zero():
            break
        gpx = g.derivative().compose_mod(x, mp)
        gcd_, u, _ = poly_ext_gcd(gpx, mp)
        assert gcd_.degree == 0, "g' must stay invertible mod the min poly"
        inv = u * (ONE / gcd_.coeffs[0])
        x = (x - gx * inv % mp) % mp
    else:
        raise ArithmeticError("Jordan Newton iteration failed to converge")
    return x


def jordan_decomposition(L: LieAlgebra, x: Vector) -> JordanPair:
    """Jordan pair (semisimple, nilpotent) of x pulled back through ad."""
    m = L.ad(x)
    p = _semisimple_poly(spectrum(L, x))
    if p == Poly.x():
        s_mat = m
    else:
        s_mat = p.eval_matrix(m)
    # y with ad(y) = s_mat, free coordinates 0
    sol = L.ad_map()[1](tuple(c for row in s_mat.entries for c in row))
    if sol is None:
        raise CenterObstruction("semisimple part lies outside ad(L)")
    # nontrivial center: the pair is only canonical modulo the center (the
    # RREF-canonical solution is returned and flagged)
    obstructed = L.center_dim() > 0
    semisimple = tuple(sol)
    nilpotent = tuple(a - b for a, b in zip(x, semisimple))
    return JordanPair(semisimple, nilpotent, center_obstructed=obstructed)


class Spectrum:
    """Spectral summary of ad(x), read off its minimal polynomial.

    ``nilpotent``: the minimal polynomial is t^k.  ``semisimple``: it is
    squarefree.  ``roots`` is ``factor_roots(min_poly, single_extension=
    False)``, computed on first use and kept; ``kind`` (the
    :func:`classify_element` label) and ``extensions`` (the set of d != 0
    with sqrt(d) among the roots, which may lie in several quadratic
    fields) are read off it.  When the roots leave the scalar tower, every
    use of any of the three raises ExtensionDegreeTooHigh.
    """

    __slots__ = ("min_poly", "nilpotent", "semisimple", "_roots", "_failure")

    def __init__(self, mp: Poly):
        self.min_poly = mp
        self.nilpotent = not any(mp.coeffs[:-1])
        self.semisimple = poly_gcd(mp, mp.derivative()).degree == 0
        self._roots: Optional[list] = None
        # the exception's args only: a kept exception keeps its frames alive
        self._failure: Optional[tuple] = None

    @property
    def roots(self) -> list:
        if self._roots is None and self._failure is None:
            try:
                self._roots = factor_roots(self.min_poly, single_extension=False)
            except ExtensionDegreeTooHigh as exc:
                self._failure = exc.args
        if self._failure is not None:
            raise ExtensionDegreeTooHigh(*self._failure)
        return self._roots

    @property
    def kind(self) -> str:
        if self.nilpotent:
            return NILPOTENT  # minimal polynomial t^k: all eigenvalues zero
        if not self.semisimple:
            return GENERAL
        return _semisimple_kind(self.roots)

    @property
    def extensions(self) -> frozenset:
        return frozenset(scalar_d(r) for r, _ in self.roots if scalar_d(r))


def _semisimple_kind(roots) -> str:
    """Label of a semisimple element from its eigenvalues."""
    all_real = True
    all_imag = True
    for r, _ in roots:
        a, b, d = scalar_parts(r)
        if d < 0:
            all_real = False
            if a != 0:
                all_imag = False
        elif d > 0:
            all_imag = False  # nonzero real irrational value
        else:
            if a != 0:
                all_imag = False
        if not all_real and not all_imag:
            break
    if all_real:
        return REAL_SEMISIMPLE
    if all_imag:
        return COMPACT_SEMISIMPLE
    return MIXED_SEMISIMPLE


def spectrum(L: LieAlgebra, x: Vector) -> Spectrum:
    """Spectrum of ad(x), computed once per element and kept on L.  The
    element must have rational coordinates (see :func:`min_poly`)."""
    s = L._spectra.get(x)
    if s is None:
        s = L._spectra[x] = Spectrum(min_poly(L.ad(x)))
    return s


def classify_element(L: LieAlgebra, x: Vector) -> str:
    """nilpotent / real_semisimple / compact_semisimple / mixed_semisimple /
    general, from the cached :func:`spectrum` of ad(x).  Raises
    ExtensionDegreeTooHigh for a semisimple element whose eigenvalues leave
    the scalar tower, on every call."""
    return spectrum(L, x).kind


def is_ad_nilpotent(L: LieAlgebra, x: Vector) -> bool:
    return spectrum(L, x).nilpotent


def subalgebra_generated(L: LieAlgebra, vectors: Iterable[Vector]) -> Subspace:
    """Smallest bracket-closed subspace containing the vectors."""
    current = Subspace(L, vectors)
    while True:
        vecs = current._vecs()
        new = [w for i, x in enumerate(vecs) for y in vecs[i + 1:]
               if not current._contains(w := L._bracket_ints(x, y))]
        if not new:
            return current
        current = current._with_ints(current.d, [w[2:] for w in new])


def _check_torus(L: LieAlgebra, T: Subspace):
    if not T.is_abelian():
        raise NotATorus("subspace is not abelian")
    for r in T.rows:
        if not spectrum(L, r).semisimple:
            raise NotATorus(f"element {L.format_element(r)} is not semisimple")


def torus_split(L: LieAlgebra, T: Subspace) -> tuple[Subspace, Subspace]:
    """Split an algebraic torus into (real_part, compact_part).

    Each joint weight w = a + b*sqrt(d) is a linear functional on T; the
    real part is cut out by Im(w) = 0 and the compact part by Re(w) = 0,
    both linear conditions on torus coordinates.
    """
    from .rootsys import joint_eigenspaces  # rootsys imports this module
    _check_torus(L, T)
    if T.dim == 0:
        return T, T
    pairs = joint_eigenspaces(L, list(T.rows))
    real_rows = []     # rows whose kernel is the real part
    compact_rows = []  # rows whose kernel is the compact part
    for weight, _space in pairs:
        a_row = [scalar_parts(w)[0] for w in weight]
        b_row = [scalar_parts(w)[1] for w in weight]
        d = next((scalar_parts(w)[2] for w in weight if scalar_parts(w)[2]), 0)
        if d < 0:
            real_rows.append(b_row)      # imaginary part must vanish
            compact_rows.append(a_row)   # real part must vanish
        elif d > 0:
            compact_rows.append(a_row)   # whole (real) value must vanish
            compact_rows.append(b_row)
        else:
            compact_rows.append(a_row)
    return T.kernel_of(Matrix(real_rows)), T.kernel_of(Matrix(compact_rows))
