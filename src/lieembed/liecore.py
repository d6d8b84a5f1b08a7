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
from .exactlin import (Matrix, Poly, Vector, ZERO, ONE, factor_roots,
                       format_rat, kernel, linear_solver, min_poly,
                       poly_ext_gcd, poly_gcd, rat, row_space_basis,
                       scalar_d, scalar_parts, solve_linear, squarefree_part,
                       symmetric_signature, unit_vector, vec_add,
                       vec_scale, vec_sub, _same_d, _scaled_vector,
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
        if len(basis_names) != dim:
            raise ValueError("basis name count != dim")
        self.dim = dim
        self.basis_names = tuple(basis_names)
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

    def _bracket_ints(self, x: Vector, y: Vector) -> tuple[int, int, list, list]:
        """(den, d, a, b) with ``den * [x, y] = a + b*sqrt(d)``, a and b
        dense integer lists.  Entries over Q(sqrt d) are split into their
        rational and surd parts, on which the bracket is bilinear."""
        dx, d, xa, xb = _scaled_vector(x)
        dy, e, ya, yb = _scaled_vector(y)
        d = _same_d(d, e)
        scale, table = self.scaled_table()
        a, b = [0] * self.dim, [0] * self.dim
        _accumulate(table, xa, ya, 1, a)
        if xb or yb:
            _accumulate(table, xb, yb, d, a)
            _accumulate(table, xa, yb, 1, b)
            _accumulate(table, xb, ya, 1, b)
        return scale * dx * dy, d, a, b

    def bracket(self, x: Vector, y: Vector) -> Vector:
        den, d, a, b = self._bracket_ints(x, y)
        return _unscaled_vector(den, d, enumerate(a), enumerate(b), self.dim)

    def ad(self, x: Vector) -> Matrix:
        """Matrix of [x, -], filled as ``D * dx * ad(x)`` (dx the lcm of the
        denominators of x) from the table rows of x's support."""
        dx, d, xa, xb = _scaled_vector(x)
        scale, table = self.scaled_table()
        n = self.dim

        def fill(xs):
            m = [[0] * n for _ in range(n)]
            for i, f in xs.items():
                for j, row in enumerate(table[i]):
                    for k, c in row.items():
                        m[k][j] += f * c
            return m

        surd = fill(xb) if xb else [()] * n
        return Matrix([_unscaled_vector(scale * dx, d, enumerate(ra), enumerate(rb), n)
                       for ra, rb in zip(fill(xa), surd)])

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
            comp = {int(k): rat(c) for k, c in entry["c"].items()}
            brackets[(entry["i"], entry["j"])] = comp
        return cls(obj["dim"], obj["basis"], brackets, name=name)

    def __repr__(self):
        return f"LieAlgebra({self.name or 'dim=%d' % self.dim})"


def _scaled_rows(vectors: Sequence[Vector]) -> tuple[int, int, list[tuple[dict, dict]]]:
    """(den, d, rows) with ``den * v_i = a_i + b_i*sqrt(d)`` for sparse
    integer rows (a_i, b_i) and den the lcm over all vectors."""
    parts = [_scaled_vector(v) for v in vectors]
    den, d = lcm(*(p[0] for p in parts)), 0
    rows = []
    for vd, e, a, b in parts:
        d = _same_d(d, e)
        f = den // vd
        rows.append(({k: f * x for k, x in a.items()},
                     {k: f * x for k, x in b.items()}))
    return den, d, rows


def _int_dot(x: dict, y: dict) -> int:
    return sum(v * y[k] for k, v in x.items() if k in y)


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
    """Linear subspace of a LieAlgebra with canonical RREF basis rows.

    The rows are in RREF, so the coordinates of a member v are v at the
    pivot columns, and v is a member iff ``v - from_coords(v[pivots])`` is
    zero.  Both are computed over the rows scaled to one common denominator
    (``den * row = a + b*sqrt(d)``, integer a and b), in plain ints.
    """

    __slots__ = ("algebra", "rows", "pivots", "_scaled")

    def __init__(self, algebra: LieAlgebra, vectors: Iterable[Vector]):
        self.algebra = algebra
        self.rows = row_space_basis(vectors, algebra.dim)
        self.pivots = tuple(next(c for c, x in enumerate(r) if x) for r in self.rows)
        self._scaled: Optional[tuple[int, int, list[tuple[dict, dict]]]] = None

    @classmethod
    def full(cls, algebra: LieAlgebra) -> "Subspace":
        return cls(algebra, [unit_vector(algebra.dim, i) for i in range(algebra.dim)])

    @classmethod
    def zero(cls, algebra: LieAlgebra) -> "Subspace":
        return cls(algebra, [])

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other):
        return (isinstance(other, Subspace) and self.algebra is other.algebra
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def _scaled_rows(self) -> tuple[int, int, list[tuple[dict, dict]]]:
        """(den, d, rows): ``den * row_i = a_i + b_i*sqrt(d)`` with den
        the lcm over all rows; computed on first use and kept."""
        if self._scaled is None:
            self._scaled = _scaled_rows(self.rows)
        return self._scaled

    def _combination(self, fa: dict, fb: dict, d: int, a: list,
                     b: list) -> tuple[int, int]:
        """``a + b*sqrt(d) += sum_i (fa_i + fb_i*sqrt d) * den * row_i`` for
        integer coefficients keyed by row number; returns (den, d)."""
        den, e, rows = self._scaled_rows()
        d = _same_d(d, e)
        for i, (ra, rb) in enumerate(rows):
            f, g = fa.get(i, 0), fb.get(i, 0)
            if f:
                for k, x in ra.items():
                    a[k] += f * x
                for k, x in rb.items():
                    b[k] += f * x
            if g:
                gd = g * d
                for k, x in rb.items():
                    a[k] += gd * x
                for k, x in ra.items():
                    b[k] += g * x
        return den, d

    def _residual(self, dv: int, d: int, va: dict,
                  vb: dict) -> tuple[int, int, list, list]:
        """(den, d, a, b) with ``den * (v - from_coords(v[pivots])) =
        a + b*sqrt(d)`` for ``v = (va + vb*sqrt d) / dv`` (see
        :func:`_scaled_vector`), a and b dense integer lists."""
        n = self.algebra.dim
        a, b = [0] * n, [0] * n
        den, d = self._combination(
            {i: -va[p] for i, p in enumerate(self.pivots) if p in va},
            {i: -vb[p] for i, p in enumerate(self.pivots) if p in vb}, d, a, b)
        for k, x in va.items():
            a[k] += den * x
        for k, x in vb.items():
            b[k] += den * x
        return den * dv, d, a, b

    def reduce(self, v: Vector) -> Vector:
        """Residual of v after elimination against the basis rows."""
        den, d, a, b = self._residual(*_scaled_vector(v))
        return _unscaled_vector(den, d, enumerate(a), enumerate(b), self.algebra.dim)

    def contains(self, v: Vector) -> bool:
        _, _, a, b = self._residual(*_scaled_vector(v))
        return not any(a) and not any(b)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(r) for r in other.rows)

    def coords_of(self, v: Vector) -> Optional[Vector]:
        """Coordinates of v in the basis rows, or None if outside."""
        if not self.contains(v):
            return None
        return tuple(v[p] for p in self.pivots)

    def from_coords(self, coords: Sequence) -> Vector:
        n = self.algebra.dim
        dc, d, ca, cb = _scaled_vector(coords)
        a, b = [0] * n, [0] * n
        den, d = self._combination(ca, cb, d, a, b)
        return _unscaled_vector(den * dc, d, enumerate(a), enumerate(b), n)

    def sum(self, other: "Subspace") -> "Subspace":
        return Subspace(self.algebra, self.rows + other.rows)

    def with_vectors(self, vectors: Iterable[Vector]) -> "Subspace":
        return Subspace(self.algebra, self.rows + tuple(vectors))

    def complement_in(self, larger: "Subspace") -> "Subspace":
        """Canonical complement: rows of ``larger`` whose pivot is not ours."""
        if not larger.contains_subspace(self):
            raise ValueError("complement_in requires containment")
        mine = set(self.pivots)
        return Subspace(self.algebra,
                        [r for r, p in zip(larger.rows, larger.pivots) if p not in mine])

    def is_subalgebra(self) -> bool:
        for i, r in enumerate(self.rows):
            for s in self.rows[i + 1:]:
                if not self.contains(self.algebra.bracket(r, s)):
                    return False
        return True

    def is_abelian(self) -> bool:
        for i, r in enumerate(self.rows):
            for s in self.rows[i + 1:]:
                _, _, a, b = self.algebra._bracket_ints(r, s)
                if any(a) or any(b):
                    return False
        return True

    def restrict(self, m: Matrix) -> Matrix:
        """Matrix of an endomorphism that maps this subspace into itself,
        in the basis rows (0 x 0 for the zero subspace).  The image of each
        row is summed in ints over m and the rows scaled to common
        denominators."""
        if not self.rows:
            return Matrix([])
        dm, d, mrows = _scaled_rows(m.entries)
        den, e, rows = self._scaled_rows()
        d = _same_d(d, e)
        den *= dm
        cols = []
        for ra, rb in rows:
            # den * m(row) = wa + wb*sqrt(d)
            wa, wb = {}, {}
            for k, (xa, xb) in enumerate(mrows):
                s, t = _int_dot(xa, ra), 0
                if d:
                    s += d * _int_dot(xb, rb)
                    t = _int_dot(xa, rb) + _int_dot(xb, ra)
                if s:
                    wa[k] = s
                if t:
                    wb[k] = t
            _, _, a, b = self._residual(den, d, wa, wb)
            if any(a) or any(b):
                raise ValueError("subspace is not invariant")
            cols.append(_unscaled_vector(
                den, d, [(i, wa.get(p, 0)) for i, p in enumerate(self.pivots)],
                [(i, wb.get(p, 0)) for i, p in enumerate(self.pivots)], self.dim))
        return Matrix.from_columns(cols)

    def as_subalgebra(self) -> LieAlgebra:
        """This subspace as an abstract algebra in its own RREF basis."""
        k = self.dim
        brackets = {}
        for i in range(k):
            for j in range(i + 1, k):
                w = self.algebra.bracket(self.rows[i], self.rows[j])
                coords = self.coords_of(w)
                if coords is None:
                    raise NotASubalgebra("bracket leaves the subspace")
                comp = {t: c for t, c in enumerate(coords) if c}
                if comp:
                    brackets[(i, j)] = comp
        names = [f"s{t + 1}" for t in range(k)]
        return LieAlgebra(k, names, brackets, name=f"sub({self.dim})", validate=False)

    def to_json(self) -> list:
        from .exactlin import scalar_to_json
        return [[format_rat(x) if isinstance(x, Fraction) else scalar_to_json(x)
                 for x in row] for row in self.rows]

    def __repr__(self):
        return "<" + ", ".join(self.algebra.format_element(r) for r in self.rows) + ">"


# ----------------------------------------------------------------------------
# structural operations


def killing_form(L: LieAlgebra) -> Matrix:
    return L.killing_matrix()


def killing_signature(obj) -> tuple[int, int, int]:
    """Signature (n_pos, n_neg, n_zero) of the Killing form of an algebra
    or of a subspace viewed as an algebra in its own right."""
    if isinstance(obj, Subspace):
        if obj.dim == 0:
            return (0, 0, 0)
        return killing_signature(obj.as_subalgebra())
    return symmetric_signature(obj.killing_matrix())


def is_negative_definite(sub: Subspace) -> bool:
    pos, neg, zero = killing_signature(sub)
    return pos == 0 and zero == 0


def restricted_killing_signature(sub: Subspace) -> tuple[int, int, int]:
    """Signature of the ambient Killing form restricted to the subspace
    (this, not the subalgebra's own form, decides compactness when the
    subalgebra has a center)."""
    if sub.dim == 0:
        return (0, 0, 0)
    rows = [[sub.algebra.killing(r, s) for s in sub.rows] for r in sub.rows]
    return symmetric_signature(Matrix(rows))


def derived_algebra(sub: Subspace) -> Subspace:
    if not sub.is_subalgebra():
        raise NotASubalgebra("derived algebra of a non-closed subspace")
    vecs = []
    for i, r in enumerate(sub.rows):
        for s in sub.rows[i + 1:]:
            vecs.append(sub.algebra.bracket(r, s))
    return Subspace(sub.algebra, vecs)


def centralizer(L: LieAlgebra, sub: Subspace,
                within: Optional[Subspace] = None) -> Subspace:
    """{x : [x, s] = 0 for all s in sub}, optionally intersected down to
    ``within`` (computed there directly)."""
    if within is None:
        within = Subspace.full(L)
    if sub.dim == 0 or within.dim == 0:
        return within
    # unknown x = c . within.rows; conditions [s, x] = 0 for basis s
    rows_out = []
    for s in sub.rows:
        cols = [L.bracket(s, r) for r in within.rows]
        rows_out.extend(Matrix.from_columns(cols).entries)
    vecs = [within.from_coords(k) for k in kernel(Matrix(rows_out))]
    return Subspace(L, vecs)


def normalizer(L: LieAlgebra, sub: Subspace) -> Subspace:
    """{x : [x, s] in sub for all s in sub}."""
    if sub.dim == 0:
        return Subspace.full(L)
    rows_out = []
    for s in sub.rows:
        m = L.ad(s)
        # residual of [x, s] modulo sub must vanish; [x,s] = -ad(s) x
        cols = [sub.reduce(m.column(j)) for j in range(L.dim)]
        rows_out.extend(Matrix.from_columns(cols).entries)
    vecs = list(kernel(Matrix(rows_out)))
    return Subspace(L, vecs)


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
    derived algebra is spanned a batch of brackets at a time until full."""
    if isinstance(obj, LieAlgebra):
        sub = Subspace.full(obj)
    else:
        sub = obj
    L = sub.algebra
    if sub.dim == 0:
        return sub
    k = sub.dim
    whole = k == L.dim
    inner = L if whole else sub.as_subalgebra()
    comps = list(inner.brackets.values())
    der: tuple = ()
    for start in range(0, len(comps), k):
        batch = [tuple(c.get(t, ZERO) for t in range(k)) for c in comps[start:start + k]]
        der = row_space_basis(der + tuple(batch), k)
        if len(der) == k:
            break
    if not der:
        return sub  # abelian: the whole thing
    K = inner.killing_matrix()
    # der is the identity at full rank, and K is symmetric
    rad_coords = kernel(K if len(der) == k else Matrix([K.apply(d) for d in der]))
    result = Subspace(L, rad_coords if whole else [sub.from_coords(c) for c in rad_coords])
    if not is_solvable(result):
        raise NotASubalgebra("Killing-orthogonal complement is not solvable")
    return result


@dataclass(frozen=True)
class LeviDecomposition:
    radical: Subspace
    levi: Subspace


def levi_decomposition(sub: Subspace) -> LeviDecomposition:
    """Levi decomposition by iterative lifting of a canonical complement
    across the derived series of the radical (a linear solve per stage)."""
    L = sub.algebra
    rad = radical(sub)
    if rad.dim == 0:
        return LeviDecomposition(rad, sub)
    if rad.dim == sub.dim:
        return LeviDecomposition(rad, Subspace.zero(L))
    comp = rad.complement_in(sub)
    xs = [tuple(r) for r in comp.rows]
    s_dim = len(xs)

    # structure constants of sub/rad in the images of xs: solve against the
    # combined (complement | radical) basis once
    _, solve = linear_solver(Matrix.from_columns([tuple(r) for r in comp.rows] +
                                                 [tuple(r) for r in rad.rows]))
    c_table = {}
    for i in range(s_dim):
        for j in range(i + 1, s_dim):
            sol = solve(L.bracket(xs[i], xs[j]))
            assert sol is not None
            c_table[(i, j)] = sol[:s_dim]

    # derived series of the radical
    series = [rad]
    while series[-1].dim > 0:
        series.append(derived_algebra(series[-1]))
        if series[-1].dim == series[-2].dim:
            raise NotASubalgebra("radical is not solvable")

    # lift stage by stage: after stage m, brackets close modulo series[m+1];
    # corrections r_i live in series[m], and [r_i, r_j] drops into series[m+1]
    for stage in range(len(series) - 1):
        Rj, Rj1 = series[stage], series[stage + 1]
        if Rj.dim == 0:
            break
        r_basis = [tuple(r) for r in Rj.rows]
        nr = len(r_basis)
        n_unknowns = s_dim * nr
        rows_eq: list[list] = []
        rhs: list = []
        w_red = [Rj1.reduce(w) for w in r_basis]
        for i in range(s_dim):
            for j in range(i + 1, s_dim):
                defect = L.bracket(xs[i], xs[j])
                for k, c in enumerate(c_table[(i, j)]):
                    if c:
                        defect = vec_sub(defect, vec_scale(c, xs[k]))
                defect_mod = Rj1.reduce(defect)
                # defect + [x_i, r_j] - [x_j, r_i] - sum_k c_ij^k r_k = 0
                # with r_i = sum_a t[i,a] w_a, modulo Rj1
                col_j = [Rj1.reduce(L.bracket(xs[i], w)) for w in r_basis]
                col_i = [Rj1.reduce(vec_scale(-1, L.bracket(xs[j], w)))
                         for w in r_basis]
                for row_idx in range(L.dim):
                    eq = [ZERO] * n_unknowns
                    for a in range(nr):
                        if col_i[a][row_idx]:
                            eq[i * nr + a] = eq[i * nr + a] + col_i[a][row_idx]
                        if col_j[a][row_idx]:
                            eq[j * nr + a] = eq[j * nr + a] + col_j[a][row_idx]
                        if w_red[a][row_idx]:
                            for k, c in enumerate(c_table[(i, j)]):
                                if c:
                                    eq[k * nr + a] = eq[k * nr + a] - c * w_red[a][row_idx]
                    if defect_mod[row_idx] or any(eq):
                        rows_eq.append(eq)
                        rhs.append(-defect_mod[row_idx])
        if rows_eq:
            sol = solve_linear(Matrix(rows_eq), tuple(rhs))
            assert sol is not None, "Levi lifting system must be solvable"
            for i in range(s_dim):
                corr = tuple([ZERO] * L.dim)
                for a, w in enumerate(r_basis):
                    t = sol[i * nr + a]
                    if t:
                        corr = vec_add(corr, vec_scale(t, w))
                xs[i] = vec_add(xs[i], corr)
    levi = Subspace(L, xs)
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
    nilpotent = vec_sub(x, semisimple)
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
        new_vecs = []
        for i, r in enumerate(current.rows):
            for s in current.rows[i + 1:]:
                w = L.bracket(r, s)
                if not current.contains(w):
                    new_vecs.append(w)
        if not new_vecs:
            return current
        current = current.with_vectors(new_vecs)


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
    real_part = Subspace(L, [T.from_coords(c) for c in kernel(Matrix(real_rows))]
                         if real_rows else list(T.rows))
    compact_part = Subspace(L, [T.from_coords(c) for c in kernel(Matrix(compact_rows))]
                            if compact_rows else list(T.rows))
    return real_part, compact_part
