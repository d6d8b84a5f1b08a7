"""Lie algebras by structure constants and the basic structural operations.

Elements are coordinate tuples in the algebra basis; subspaces carry a
canonical row-reduced basis so equality of subspaces is structural
equality of their rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import (CenterObstruction, ExtensionDegreeTooHigh, Frozen,
                     InvalidStructureConstants, NotASubalgebra, NotATorus)
from .exactlin import (Scalar, Vector, ZERO, ONE,
                       format_rat, linear_solver, min_poly, rat, scalar_d,
                       scalar_parts, scalar_to_json, symmetric_signature,
                       unit_vector, _int_horner, _int_mul, _int_prem,
                       _int_slots, _kernel_ints, _part_roots, _primitive, _rat_pair, _rref_ints,
                       _same_d, _scaled_rows, _scaled_vector, _squarefree_parts,
                       _sub_multiple, _unscaled_vector)

NILPOTENT = "nilpotent"
REAL_SEMISIMPLE = "real_semisimple"
COMPACT_SEMISIMPLE = "compact_semisimple"
MIXED_SEMISIMPLE = "mixed_semisimple"
GENERAL = "general"


class LieAlgebra:
    """Finite-dimensional real Lie algebra given by structure constants.

    ``brackets`` maps (i, j) with i < j to {k: c} for
    [b_i, b_j] = sum_k c * b_k, each c anything :func:`rat` takes;
    antisymmetry is implied by storage.  Index pairs and components outside
    the basis raise :class:`InvalidStructureConstants`, and so does a Jacobi
    failure.

    The integer table ``D * c``, with ``D`` the lcm of all denominators, is
    built on construction (:meth:`scaled_table`) from the reduced integer
    pairs of :func:`_rat_pair`, so a string coefficient never becomes a
    Fraction; :attr:`brackets` is read back off it on first use.
    :meth:`bracket`, :meth:`ad`, :meth:`ad_map`, the Jacobi check and the
    Killing table (:meth:`killing_table`) all sum over it in plain ints.
    The Jacobi identity is checked on construction: it is homogeneous
    quadratic in the constants, so scaling keeps every verdict.  Every other result the
    algebra keeps goes through :meth:`kept`.
    """

    def __init__(self, dim: int, basis_names: Sequence[str],
                 brackets: Mapping[tuple[int, int], Mapping[int, object]],
                 name: str = "", validate: bool = True):
        _check_dim(dim)
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
            comp = {k: pq for k, c in comp.items() if (pq := _rat_pair(c))[0]}
            for k in comp:
                if not 0 <= k < dim:
                    raise InvalidStructureConstants(
                        f"bracket {(i, j)} has component index {k} outside "
                        f"0..{dim - 1}")
            if comp:
                table[(i, j)] = comp
        scale = lcm(*(q for comp in table.values() for _, q in comp.values()))
        empty: dict = {}
        rows: list[list[dict]] = [[empty] * dim for _ in range(dim)]
        for (i, j), comp in table.items():
            row = {k: p * (scale // q) for k, (p, q) in comp.items()}
            rows[i][j] = row
            rows[j][i] = {k: -v for k, v in row.items()}
        self._scaled = scale, rows
        self._store: dict[tuple, object] = {}
        if validate:
            self._check_jacobi()

    def kept(self, key: tuple, make: Callable[[], object]):
        """The result kept under ``key``, a tuple whose first entry names
        its kind, such as ``("spectrum", x)`` or ``("series", sub)``:
        ``make()`` on first use, kept for the algebra's life.  A ``make``
        that raises keeps nothing."""
        value = self._store.get(key)
        if value is None:
            value = self._store[key] = make()
        return value

    @property
    def brackets(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        """{(i, j): {k: c}} for i < j with [b_i, b_j] = sum_k c * b_k and
        every c nonzero, read off :meth:`scaled_table` on first use; kept."""
        def make():
            scale, table = self.scaled_table()
            return {(i, j): {k: Fraction(v, scale) for k, v in row.items()}
                    for i, j, row in _bracket_rows(table)}
        return self.kept(("brackets",), make)

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

    def killing_table(self) -> tuple[int, list[tuple[dict, dict]]]:
        """(D^2, rows), rows[i] = (D^2 * K_i, {}) a sparse integer row with
        an empty surd part, for the Killing form K_ij = trace(ad b_i ad b_j)
        = sum_{s,r} c_is^r c_jr^s over the integer table ``D * c``; built on
        first use and kept.

        Each row is one packed int (Kronecker substitution, as in
        :meth:`_check_jacobi`): with Q[r][s] the entries s of D*[b_j, b_r]
        packed into slot j, D^2 * K_i is ``sum v * Q[r][s]`` over the
        entries v = D*c_is^r of D*ad(b_i).  A slot is at most
        n^2*max|c|^2 < 2**(w-1) in absolute value.  Both sums run over the
        nonzero brackets [b_i, b_j], i < j, each standing for its negative
        [b_j, b_i] too."""
        def make():
            scale, table = self.scaled_table()
            n = self.dim
            pairs = _bracket_rows(table)
            top = max([abs(c) for _, _, row in pairs for c in row.values()], default=0)
            w = (n * n * top * top).bit_length() + 1
            packed: list[dict] = [{} for _ in range(n)]  # packed[r][s] = Q[r][s]
            for i, j, row in pairs:
                qi, qj = packed[i], packed[j]
                for s, c in row.items():
                    qj[s] = qj.get(s, 0) + (c << w * i)
                    qi[s] = qi.get(s, 0) - (c << w * j)
            sums = [0] * n
            for i, j, row in pairs:
                # the entries v at (r, j) of D*ad(b_i), and -v at (r, i) of D*ad(b_j)
                ki = kj = 0
                for r, v in row.items():
                    q = packed[r]
                    if j in q:
                        ki += v * q[j]
                    if i in q:
                        kj += v * q[i]
                sums[i] += ki
                sums[j] -= kj
            return scale * scale, [({j: x for j, x in enumerate(_int_slots(k, w, n)) if x}, {})
                                   for k in sums]
        return self.kept(("killing_table",), make)

    def killing_data(self) -> tuple[int, int, int, Scalar]:
        """(n_pos, n_neg, n_zero, det) of the Killing form, from one
        :func:`symmetric_signature` of :meth:`killing_table`; kept."""
        den, rows = self.killing_table()
        return self.kept(("killing_data",), lambda: symmetric_signature((den, 0, rows)))

    def killing(self, x: Vector, y: Vector) -> Scalar:
        """B(x, y), summed in ints over :meth:`killing_table`."""
        den, rows = self.killing_table()
        dx, d, xa, xb = _scaled_vector(x)
        dy, e, ya, yb = _scaled_vector(y)
        d = _same_d(d, e)
        a, b = _form_ints(rows, d, (xa, xb), (ya, yb))
        return _unscaled_vector(den * dx * dy, d, [(0, a)], [(0, b)], 1)[0]

    def ad_map(self) -> tuple[int, Callable]:
        """(rank, solve) of y -> ad(y), the n*n x n matrix whose column i is
        ad(b_i) read row by row (:func:`linear_solver` of the scaled table's
        columns, so ``solve`` takes the scaled form of :func:`_scaled_vector`);
        factored once, kept."""
        def make():
            n = self.dim
            scale, table = self.scaled_table()
            # entry (r, c) of D * ad(b_i) is D * [b_i, b_c] at r
            cols = [({r * n + c: v for c, row in enumerate(table[i]) for r, v in row.items()}, {})
                    for i in range(n)]
            return linear_solver((scale, 0, cols), n * n)
        return self.kept(("ad_map",), make)

    def center_dim(self) -> int:
        """Dimension of the center (kernel of the adjoint map)."""
        return self.dim - self.ad_map()[0]

    def scaled_table(self) -> tuple[int, list[list[dict]]]:
        """(D, table) with D the lcm of all denominators and table[a][b] =
        D * [b_a, b_b] as a sparse integer row, both orders stored; built on
        construction.  Zero brackets share one empty row."""
        return self._scaled

    def _check_jacobi(self):
        """The Jacobi sum of every basis triple, on packed table rows: with
        P[a][m] the row D*[b_a, b_m] packed into the one int ``sum_l c_l *
        2**(w*l)`` (Kronecker substitution; von zur Gathen & Gerhard,
        *Modern Computer Algebra*, 8.4), D^2*[b_a, [b_j, b_k]] is the int
        ``sum_m v_m * P[a][m]`` over the entries v_m of D*[b_j, b_k].  A
        slot of the three-term sum is at most 3*n*max|c|^2 < 2**(w-1) in
        absolute value, so the sum is 0 exactly when every slot is, that is
        when the identity holds on the triple."""
        n = self.dim
        _, table = self.scaled_table()
        top = max((abs(c) for ti in table for row in ti for c in row.values()), default=0)
        w = (3 * n * top * top).bit_length() + 1
        packed = [[sum(c << w * l for l, c in row.items()) for row in ti] for ti in table]
        for i in range(n):
            ti, pi = table[i], packed[i]
            for j in range(i + 1, n):
                tj, pj, tij = table[j], packed[j], ti[j]
                for k in range(j + 1, n):
                    # [b_i, [b_j, b_k]] + [b_j, [b_k, b_i]] + [b_k, [b_i, b_j]]
                    pk = packed[k]
                    if (sum(v * pi[m] for m, v in tj[k].items())
                            + sum(v * pj[m] for m, v in table[k][i].items())
                            + sum(v * pk[m] for m, v in tij.items())):
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
        dim = _check_dim(obj["dim"])
        basis = obj["basis"]
        if not isinstance(basis, list):  # a string would split into letters
            raise ValueError("basis must be a list of names, "
                             f"got {type(basis).__name__}")
        width = len(str(dim))
        brackets = {}
        for entry in obj.get("brackets", []):
            pair = (entry["i"], entry["j"])
            if any(type(x) is not int for x in pair):
                raise ValueError(f"bracket indices must be integers, got {pair}")
            if pair in brackets:
                raise ValueError(f"two brackets entries for the pair {pair}")
            comp = entry["c"]
            if not isinstance(comp, dict):
                raise ValueError("bracket components must be an object, "
                                 f"got {type(comp).__name__}")
            bad = [k for k in comp if not _canonical_int(k)]
            if bad:
                raise ValueError("bracket component keys must be canonical "
                                 f"decimal integers, got {bad[0]!r}")
            # a key with more digits than dim is out of range, decided
            # before int(), which a long key can take past the
            # interpreter's limit on digits
            long = [k for k in comp if len(k.removeprefix("-")) > width]
            if long:
                raise InvalidStructureConstants(
                    f"bracket {pair} has component index {long[0][:20]}... "
                    f"({len(long[0].removeprefix('-'))} digits) outside 0..{dim - 1}")
            brackets[pair] = {int(k): c for k, c in comp.items()}
        return cls(dim, basis, brackets, name=name)

    def __repr__(self):
        return f"LieAlgebra({self.name or 'dim=%d' % self.dim})"


def _check_dim(dim) -> int:
    if type(dim) is not int:
        raise ValueError(f"dim must be an integer, got {dim!r}")
    return dim


def _canonical_int(key: str) -> bool:
    """Whether key is an int as ``str`` writes it: ASCII digits, no padding,
    no sign but ``-``; so no two accepted keys ("1", "01") name one index."""
    digits = key.removeprefix("-")
    return digits.isascii() and digits.isdigit() and (digits[0] != "0" or key == "0")


def _bracket_rows(table: list[list[dict]]) -> list[tuple[int, int, dict]]:
    """(i, j, D*[b_i, b_j]) for each nonzero bracket of a scaled table, i < j."""
    return [(i, j, row) for i, ti in enumerate(table) for j in range(i + 1, len(ti))
            if (row := ti[j])]


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


def _form_ints(rows: Sequence[tuple[dict, dict]], d: int, x: tuple[dict, dict],
               y: tuple[dict, dict]) -> tuple[int, int]:
    """(a, b) with ``x . K . y = a + b*sqrt(d)`` for the integer rows of a
    symmetric K and integer vectors x, y over Z[sqrt d]."""
    (xa, xb), ka, kb = x, {}, {}
    _add_combination(rows, y[0], y[1], d, ka, kb)  # K y, K being symmetric
    return _dot(xa, ka) + d * _dot(xb, kb), _dot(xa, kb) + _dot(xb, ka)


def _dot(u: dict, v: dict) -> int:
    return sum(c * v.get(k, 0) for k, c in u.items())


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

    def _brackets(self):
        """``L._bracket_ints(x, y)`` for each pair of basis rows x before y."""
        vecs, L = self._vecs(), self.algebra
        return (L._bracket_ints(x, y) for i, x in enumerate(vecs) for y in vecs[i + 1:])

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
        # a kernel row starts at its pivot t and is zero at the other
        # pivots; our rows are zero at each other's pivots and start there,
        # so the mapped rows are RREF rows with pivots at our pivots t
        return Subspace._span(self.algebra, d, [_primitive(r) for r in rows],
                              [self.pivots[t] for t in pivots])

    def eigenspace(self, block: tuple[int, int, list[tuple[dict, dict]]],
                   lam: Scalar) -> "Subspace":
        """The members that ad(x) scales by lam, for its block on this
        subspace from :meth:`ad_block`: the kernel of ``q*den*(block -
        lam)``, q the denominator of lam, as integer rows over Z[sqrt d]."""
        den, d, rows = block
        la, lb, e = scalar_parts(lam)
        q = lcm(la.denominator, lb.denominator)
        fa, fb = (den * x.numerator * (q // x.denominator) for x in (la, lb))
        eqs = []
        for i, (a, b) in enumerate(rows):
            a, b = {k: q * x for k, x in a.items()}, {k: q * x for k, x in b.items()}
            if fa:
                _sub_multiple(a, fa, {i: 1})
            if fb:
                _sub_multiple(b, fb, {i: 1})
            eqs.append((a, b))
        return self._kernel_span(_same_d(d, e), eqs)

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
        return all(self._contains(w) for w in self._brackets())

    def is_abelian(self) -> bool:
        return not any(w[2] or w[3] for w in self._brackets())

    def ad_block(self, ad_cols: list[tuple[int, int, dict, dict]]
                 ) -> tuple[int, int, list[tuple[dict, dict]]]:
        """ad(x) on this subspace, in its basis rows, for the columns
        ``ad_cols = L._ad_ints(x)``: (den, d, rows) with ``den * block =
        a + b*sqrt(d)`` for the integer rows (a_t, b_t), block[t][i] the
        coordinate t of [x, row_i] (no rows for the zero subspace).  Each
        [x, row_i] is summed in ints over the columns.  Raises ValueError
        when one leaves the subspace, which all of L cannot."""
        dx, d = ad_cols[0][:2] if ad_cols else (1, 0)
        d, den = _same_d(d, self.d), self.den * dx
        cols, mcols = [], [c[2:] for c in ad_cols]
        whole = self.dim == self.algebra.dim
        for ra, rb in self.ints:
            wa, wb = {}, {}  # den * [x, row] = wa + wb*sqrt(d)
            _add_combination(mcols, ra, rb, d, wa, wb)
            if not whole and not self._contains((den, d, wa, wb)):
                raise ValueError("subspace is not invariant")
            cols.append(({i: wa[p] for i, p in enumerate(self.pivots) if p in wa},
                         {i: wb[p] for i, p in enumerate(self.pivots) if p in wb}))
        return den, d, _transpose(cols, self.dim)

    def as_subalgebra(self) -> LieAlgebra:
        """This subspace as an abstract algebra over Q in its own RREF basis."""
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
        if any(not isinstance(c, Fraction) for comp in brackets.values() for c in comp.values()):
            raise ExtensionDegreeTooHigh(
                f"a subalgebra with structure constants in Q(sqrt({self.d})), not Q")
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
    den, K = sub.algebra.killing_table()
    gram = [[_form_ints(K, sub.d, x, y) for y in sub.ints] for x in sub.ints]
    rows = [({j: a for j, (a, _) in enumerate(g) if a}, {j: b for j, (_, b) in enumerate(g) if b})
            for g in gram]
    d = sub.d if any(b for _, b in rows) else 0
    return symmetric_signature((den * sub.den ** 2, d, rows))[:3]


def derived_algebra(sub: Subspace) -> Subspace:
    rows = []
    for w in sub._brackets():
        if not sub._contains(w):
            raise NotASubalgebra("derived algebra of a non-closed subspace")
        rows.append(w[2:])
    return Subspace._span(sub.algebra, sub.d, rows)


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


def radical(obj) -> Subspace:
    """Maximal solvable ideal: the first term of :func:`_radical_series`."""
    return _radical_series(obj)[0]


def _radical_series(obj) -> list[Subspace]:
    """The radical of a subspace (all of L for an algebra) and its derived
    series down to 0, derived once per subspace and kept on the algebra; a
    call that raises keeps nothing."""
    sub = Subspace.full(obj) if isinstance(obj, LieAlgebra) else obj
    return list(sub.algebra.kept(("series", sub), lambda: tuple(_derive_radical_series(sub))))


def _derive_radical_series(sub: Subspace) -> list[Subspace]:
    """The radical and its derived series down to 0, raising NotASubalgebra
    where the series stalls.  Works in the subspace as an algebra (L itself
    for all of L).  By Cartan's criterion the algebra is semisimple exactly
    when its Killing form is nondegenerate, so a zero index of 0 in the kept
    :meth:`LieAlgebra.killing_data` gives the radical 0 before any bracket
    is formed.  Otherwise the derived algebra is spanned a batch of table
    rows at a time until full, and the radical is its Killing-orthogonal
    complement: ker K for a perfect algebra, else ker(der . K)."""
    L, k = sub.algebra, sub.dim
    if k == 0:
        return [sub]
    inner = L if k == L.dim else sub.as_subalgebra()
    if inner.killing_data()[2] == 0:
        return [Subspace.zero(L)]
    _, table = inner.scaled_table()
    brackets = [(row, {}) for _, _, row in _bracket_rows(table)]
    der, pivots = [], []
    for start in range(0, len(brackets), k):
        der, pivots = _rref_ints(der + brackets[start:start + k], 0)
        if len(pivots) == k:
            break
    if not pivots:
        return [sub, Subspace.zero(L)]  # abelian: the whole thing
    _, K = inner.killing_table()
    eqs = K
    if len(pivots) < k:
        # K is symmetric: the rows der . K
        eqs = [({}, {}) for _ in der]
        for (a, _), row in zip(der, eqs):
            _add_combination(K, a, {}, 0, *row)
    series = [sub._kernel_span(0, eqs)]
    while series[-1].dim > 0:
        series.append(derived_algebra(series[-1]))
        if series[-1].dim == series[-2].dim:
            raise NotASubalgebra("Killing-orthogonal complement is not solvable")
    return series


class LeviDecomposition(Frozen):
    __slots__ = ("radical", "levi")  # Subspace, Subspace


def levi_decomposition(sub: Subspace) -> LeviDecomposition:
    """Levi decomposition by iterative lifting of a canonical complement
    across the derived series of the radical (a linear solve per stage),
    the kept :func:`_radical_series`; in ints: the complement's rows x_i
    share the denominator X."""
    L, series = sub.algebra, _radical_series(sub)
    rad = series[0]
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


class JordanPair(Frozen):
    __slots__ = ("semisimple", "nilpotent", "center_obstructed")

    def __init__(self, semisimple: Vector, nilpotent: Vector,
                 center_obstructed: bool = False):
        super().__init__(semisimple, nilpotent, center_obstructed)


def _semisimple_poly(s: Spectrum) -> tuple[list[int], int]:
    """(p, den): the integer list p over den > 0 with (p/den)(m) the
    semisimple part of the matrix m whose spectrum is s.

    Newton's step x <- x - g(x)/g'(t) in Q[t]/(M) from x = t (MCA ch. 9),
    for M the integer minimal polynomial and g its squarefree part; the
    division is a solve of the multiplication by g', factored once.  As
    g'(x) = g'(t) mod g, each step adds a factor of g to g(x), so g(x) = 0
    mod M within the largest multiplicity of steps.  g(x) is summed over Z
    by Horner's rule with pseudo-division by M."""
    if s.semisimple:
        return [0, 1], 1
    M = s.min_poly
    n = len(M) - 1
    g = [0, 1] if s.zeros else [1]
    for f, _ in s.parts:
        g = _int_mul(g, f)
    # column j, t^j * g' mod M, is r / c
    cols = [_int_prem([0] * j + [i * c for i, c in enumerate(g)][1:], M) for j in range(n)]
    top = lcm(*(c for _, c in cols))
    solve = linear_solver((top, 0, [({i: v * (top // c) for i, v in enumerate(r) if v}, {})
                                    for r, c in cols]), n)[1]
    x = (ZERO, ONE) + (ZERO,) * (n - 2)
    for _ in range(max([s.zeros, *(m for _, m in s.parts)])):
        xd = lcm(*(c.denominator for c in x))
        xi = [c.numerator * (xd // c.denominator) for c in x]
        h, hd = [g[-1]], 1  # g(x) = h / hd mod M
        for c in reversed(g[:-1]):
            h, e = _int_prem(_int_mul(h, xi), M)
            hd *= e * xd
            h[0] += c * hd
        if not any(h):
            return xi, xd
        y = solve((hd, 0, {i: v for i, v in enumerate(h) if v}, {}))
        x = tuple(a - b for a, b in zip(x, y))
    raise ArithmeticError("Jordan Newton iteration failed to converge")


def jordan_decomposition(L: LieAlgebra, x: Vector) -> JordanPair:
    """Jordan pair (semisimple, nilpotent) of x pulled back through ad.

    With A = den*ad(x) the integer matrix of the ad columns and p/pd =
    :func:`_semisimple_poly` with k + 1 coefficients, q(t) = sum p_j
    den^(k-j) t^j has q(A) = den^k * pd * p(ad x); its columns, from one
    packed :func:`_int_horner` pass over every unit vector, go to the
    :meth:`LieAlgebra.ad_map` solve in that scale."""
    cols = L._ad_ints(_scaled_vector(x))
    den, _, rows = Subspace.full(L).ad_block(cols)
    p, pd = _semisimple_poly(spectrum(L, x, cols))
    k, n = len(p) - 1, L.dim
    q = [c * den ** (k - j) for j, c in enumerate(p)]
    rows = [list(a.items()) for a, _ in rows]
    packed, w = _int_horner(rows, q, range(n))
    flat = {r * n + c: v for r, word in enumerate(packed)
            for c, v in enumerate(_int_slots(word, w, n)) if v}
    # y with ad(y) = p(ad x), free coordinates 0
    sol = L.ad_map()[1]((den ** k * pd, 0, flat, {}))
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

    ``zeros``, ``prime`` and ``parts``: :func:`_squarefree_parts` of
    ``min_poly``, the tuple of :func:`min_poly`.  ``nilpotent``: it is t^k.
    ``semisimple``: it is squarefree.  ``roots`` are its roots by
    :func:`_part_roots`, in as many quadratic fields as they need, factored
    from the parts on first use and kept; ``kind`` (the
    :func:`classify_element` label) and ``extensions`` (the set of d != 0
    with sqrt(d) among the roots) are read off them.  When the roots leave
    the scalar tower, every use of any of the three raises
    ExtensionDegreeTooHigh.
    """

    __slots__ = ("min_poly", "zeros", "prime", "parts", "nilpotent", "semisimple",
                 "_roots", "_failure")

    def __init__(self, mp: tuple[int, ...]):
        self.min_poly = mp
        self.zeros, self.prime, self.parts = _squarefree_parts(mp)
        self.nilpotent = not self.parts
        self.semisimple = self.zeros <= 1 and all(m == 1 for _, m in self.parts)
        self._roots: Optional[list] = None
        # the exception's args only: a kept exception keeps its frames alive
        self._failure: Optional[tuple] = None

    @property
    def roots(self) -> list:
        if self._roots is None and self._failure is None:
            try:
                self._roots = _part_roots(self.zeros, self.prime, self.parts)
            except ExtensionDegreeTooHigh as exc:
                self._failure = exc.args
        if self._failure is not None:
            raise ExtensionDegreeTooHigh(*self._failure)
        return self._roots

    @property
    def kind(self) -> str:
        """Semisimple: real when every root is real, compact when every
        root is 0 or purely imaginary, mixed otherwise."""
        if self.nilpotent:
            return NILPOTENT  # minimal polynomial t^k: all eigenvalues zero
        if not self.semisimple:
            return GENERAL
        parts = [scalar_parts(r) for r, _ in self.roots]
        if all(d >= 0 for _, _, d in parts):
            return REAL_SEMISIMPLE
        if all(a == 0 and d <= 0 for a, _, d in parts):
            return COMPACT_SEMISIMPLE
        return MIXED_SEMISIMPLE

    @property
    def extensions(self) -> frozenset:
        return frozenset(scalar_d(r) for r, _ in self.roots if scalar_d(r))


def spectrum(L: LieAlgebra, x: Vector, cols: Optional[list] = None) -> Spectrum:
    """Spectrum of ad(x), computed once per element and kept on L, from
    ``cols``, the ad columns :meth:`LieAlgebra._ad_ints` of x, when the
    caller has them.  The element must have rational coordinates (see
    :func:`min_poly`)."""
    return L.kept(("spectrum", x), lambda: Spectrum(min_poly(
        Subspace.full(L).ad_block(cols or L._ad_ints(_scaled_vector(x))))))


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
        new = [w for w in current._brackets() if not current._contains(w)]
        if not new:
            return current
        current = current._with_ints(current.d, [w[2:] for w in new])


def _torus_ad(L: LieAlgebra, h: Vector) -> tuple[tuple, list]:
    """(v, cols) for a torus basis element h: its scaled form v
    (:func:`_scaled_vector`) and its ad columns ``L._ad_ints(v)``, made
    once and kept on L under ``("ad", h)``.  Only torus bases come here,
    never a search candidate, so the store grows by n^2 ints per torus
    element."""
    def make():
        v = _scaled_vector(h)
        return v, L._ad_ints(v)
    return L.kept(("ad", tuple(h)), make)


def _check_torus(L: LieAlgebra, basis: Sequence[Vector]) -> None:
    """Raise NotATorus unless the basis vectors commute and each is
    semisimple, both read off their kept :func:`_torus_ad` columns: [h_i,
    h_j] = sum_k h_j[k] * [h_i, b_k] is summed in ints over the columns of
    h_i, and the spectrum of h_i comes from the same columns."""
    kept = [_torus_ad(L, h) for h in basis]
    for i, ((_, d, _, _), cols) in enumerate(kept):
        mcols = [c[2:] for c in cols]
        for (_, e, ha, hb), _ in kept[i + 1:]:
            a, b = {}, {}
            _add_combination(mcols, ha, hb, _same_d(d, e), a, b)
            if a or b:
                raise NotATorus("subspace is not abelian")
    for h, (_, cols) in zip(basis, kept):
        if not spectrum(L, h, cols).semisimple:
            raise NotATorus(f"element {L.format_element(h)} is not semisimple")


def torus_split(L: LieAlgebra, T: Subspace) -> tuple[Subspace, Subspace]:
    """Split an algebraic torus into (real_part, compact_part).

    Each joint weight w = a + b*sqrt(d) is a linear functional on T; the
    real part is cut out by Im(w) = 0 and the compact part by Re(w) = 0,
    both linear conditions on torus coordinates.  Every weight vanishes on
    the part of T in the center z(L), so that part lies in both (wave16:
    real 3 + compact 2 in a 4-dim Cartan).
    """
    from .rootsys import joint_eigenspaces  # rootsys imports this module
    _check_torus(L, T.rows)
    if T.dim == 0:
        return T, T
    real_rows = []     # rows whose kernel is the real part
    compact_rows = []  # rows whose kernel is the compact part
    for weight, _space in joint_eigenspaces(L, list(T.rows)):
        # den * weight = a + b*sqrt(d): the real and surd parts as int rows
        _, d, a, b = _scaled_vector(weight)
        if d < 0:
            real_rows.append((b, {}))     # imaginary part must vanish
            compact_rows.append((a, {}))  # real part must vanish
        elif d > 0:
            compact_rows += [(a, {}), (b, {})]  # whole (real) value must vanish
        else:
            compact_rows.append((a, {}))
    return T._kernel_span(0, real_rows), T._kernel_span(0, compact_rows)
