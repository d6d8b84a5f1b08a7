"""Root space decompositions, positivity, simple roots, bond rules and
Dynkin classification."""

from __future__ import annotations

from math import lcm
from typing import Optional, Sequence

from .errors import (DegenerateRoot, ExtensionDegreeTooHigh, Frozen, NotATorus,
                     UnrecognizedBondPattern, UnrecognizedDiagram)
from .exactlin import (ExactScalar, Scalar, Vector, conj, format_rat,
                       is_complex_positive, linear_solver, min_poly, scalar_d,
                       scalar_parts, scalar_sort_key, scalar_to_json, vec_is_zero,
                       _scaled_rows, _scaled_vector)
from .liecore import LieAlgebra, Spectrum, Subspace, _check_torus, _torus_ad, spectrum


def format_scalar(x: Scalar) -> str:
    return repr(x) if isinstance(x, ExactScalar) else format_rat(x)


class Root(Frozen):
    """Values of a root functional on an ordered torus/Cartan basis."""

    __slots__ = ("values",)

    def __init__(self, values: tuple):
        if all(not v for v in values):
            raise ValueError("a root is a nonzero functional")
        object.__setattr__(self, "values", values)

    def __neg__(self):
        return Root(tuple(-v for v in self.values))

    def plus(self, other: "Root") -> Optional["Root"]:
        vals = tuple(a + b for a, b in zip(self.values, other.values))
        if all(not v for v in vals):
            return None
        return Root(vals)

    def conjugate(self) -> "Root":
        return Root(tuple(conj(v) for v in self.values))

    def sort_key(self):
        return tuple(scalar_sort_key(v) for v in self.values)

    def to_json(self):
        return [scalar_to_json(v) for v in self.values]

    def __repr__(self):
        return "(" + ", ".join(format_scalar(v) for v in self.values) + ")"


class RootSpaceDecomposition(Frozen):
    __slots__ = ("algebra",       # LieAlgebra
                 "cartan_basis",  # ordered basis the root values refer to
                 "pairs",         # ((Root, Subspace), ...) sorted by root key
                 "zero_space")    # Subspace

    @property
    def roots(self) -> list[Root]:
        return [r for r, _ in self.pairs]

    def space_of(self, root: Root) -> Optional[Subspace]:
        for r, s in self.pairs:
            if r == root:
                return s
        return None

    def to_json(self):
        return {
            "cartan": [[str(x) for x in v] for v in self.cartan_basis],
            "roots": [{"root": r.to_json(), "dim": s.dim,
                       "space": s.to_json()} for r, s in self.pairs],
            "zero_space": self.zero_space.to_json(),
        }


def _ordered_basis(torus) -> list[Vector]:
    if isinstance(torus, Subspace):
        return list(torus.rows)
    return list(torus)


def joint_eigenspaces(L: LieAlgebra, basis: Sequence[Vector],
                      ambient: Optional[Subspace] = None):
    """Simultaneous eigenspaces of ad(h) for h in the ordered basis, acting
    on ambient (default all of L).

    The basis spans an abelian subalgebra, so each weight space W found for
    the earlier elements is invariant under the next ad(h): W splits into
    the kernels of ad(h) restricted to W minus lambda, for each root lambda
    of the minimal polynomial of ad(h) on the ambient.  Weights come sorted
    within each space, spaces in order.

    Each ad(h) is read once, as the integer columns of
    :meth:`LieAlgebra._ad_ints` kept on L (:func:`liecore._torus_ad`, which
    the torus check of :func:`root_space_decomposition` fills too), and
    each space's block of it (:meth:`Subspace.ad_block`) gives the space's
    eigenspaces (:meth:`Subspace.eigenspace`), until they fill the space:
    eigenspaces of distinct eigenvalues are independent, so no further
    lambda has one.

    Returns a list of (eigenvalue tuple, Subspace); raises NotATorus if the
    ambient is not invariant or the action is not diagonalizable over the
    scalar tower, ExtensionDegreeTooHigh if the weights need two quadratic
    extensions, and :func:`min_poly`'s ValueError for an element with
    irrational coordinates.  The spaces are kept on L per (ordered basis,
    ambient) (:meth:`LieAlgebra.kept`); a call that raises keeps nothing.
    """
    return list(L.kept(("eigenspaces", tuple(map(tuple, basis)), ambient),
                       lambda: _derive_joint_eigenspaces(L, basis, ambient)))


def _derive_joint_eigenspaces(L: LieAlgebra, basis: Sequence[Vector],
                              ambient: Optional[Subspace]) -> tuple:
    top = Subspace.full(L) if ambient is None else ambient
    spaces: list[tuple[tuple, Subspace]] = [((), top)]
    seen_d = set()

    def ad_on(space, cols):
        try:
            return space.ad_block(cols)
        except ValueError:
            raise NotATorus("ambient space is not invariant under the torus")

    for step, h in enumerate(basis):
        _, cols = _torus_ad(L, h)
        # the ambient's block gives the roots (for L, the kept spectrum,
        # from the same columns) and is the block of the first step's one space
        whole = ad_on(top, cols) if ambient is not None or not step else None
        roots = (spectrum(L, h, cols) if ambient is None
                 else Spectrum(min_poly(whole))).roots
        lams = [lam for lam, _mult in roots]
        seen_d.update(scalar_d(lam) for lam in lams if scalar_d(lam))
        if len(seen_d) > 1:
            raise ExtensionDegreeTooHigh(
                "torus weights span two quadratic extensions")
        refined = []
        for weight, space in spaces:
            block = whole if not step else ad_on(space, cols)
            left = space.dim
            for lam in lams:
                if not left:
                    break
                eigen = space.eigenspace(block, lam)
                if eigen.dim:
                    refined.append((weight + (lam,), eigen))
                    left -= eigen.dim
        if sum(s.dim for _, s in refined) != sum(s.dim for _, s in spaces):
            raise NotATorus("action is not diagonalizable over the tower")
        spaces = refined
    return tuple(spaces)


def root_space_decomposition(L: LieAlgebra, cartan,
                             ambient: Optional[Subspace] = None
                             ) -> RootSpaceDecomposition:
    """Decompose ambient (default L) under the ordered Cartan/torus basis."""
    basis = _ordered_basis(cartan)
    _check_torus(L, basis)
    spaces = joint_eigenspaces(L, basis, ambient)
    pairs = []
    zero_vecs = []
    for weight, space in spaces:
        if all(not w for w in weight):
            zero_vecs.extend(space.rows)
        else:
            pairs.append((Root(weight), space))
    pairs.sort(key=lambda p: p[0].sort_key())
    return RootSpaceDecomposition(L, tuple(tuple(b) for b in basis),
                                  tuple(pairs), Subspace(L, zero_vecs))


def restricted_roots(ambient: Subspace, torus) -> RootSpaceDecomposition:
    """Common eigenspaces of a real torus acting on an ambient subalgebra;
    eigenspace dimensions may exceed one."""
    return root_space_decomposition(ambient.algebra, torus, ambient=ambient)


def is_positive(r: Root) -> bool:
    """First nonzero value is complex-positive (Re > 0, or Re = 0, Im > 0)."""
    for v in r.values:
        if v:
            return is_complex_positive(v)
    raise ValueError("zero root")


def simple_roots(positives: Sequence[Root]) -> list[Root]:
    """Positive roots that are not a sum of two positive roots."""
    values = {r.values for r in positives}
    simples = []
    for r in positives:
        decomposable = False
        for s in positives:
            diff = tuple(a - b for a, b in zip(r.values, s.values))
            if any(diff) and diff in values:
                decomposable = True
                break
        if not decomposable:
            simples.append(r)
    simples.sort(key=lambda r: r.sort_key())
    return simples


_SINGLE = {(1, 1)}
_DOUBLE_AB = {(1, 1), (1, 2)}
_DOUBLE_BA = {(1, 1), (2, 1)}
_TRIPLE_AB = {(1, 1), (1, 2), (1, 3), (2, 3)}
_TRIPLE_BA = {(1, 1), (2, 1), (3, 1), (3, 2)}


def bond(a: Root, b: Root, all_positives: Sequence[Root]) -> tuple[int, int, int]:
    """Bond between two simple roots: (multiplicity, arrow_from, arrow_to).

    arrow_from/arrow_to are 0 for a and 1 for b; (m, -1, -1) when there is
    no arrow (multiplicity 0 or 1).  The combinations m*a + n*b are
    compared with the positives as the int tuples of :func:`_int_roots`;
    values over more than one quadratic field raise ExtensionDegreeTooHigh,
    whether or not a combination adds them.
    """
    ia, ib, *positives = _int_roots([a, b, *all_positives])
    values = set(positives)
    present = set()
    for m in range(0, 5):
        for n in range(0, 5):
            if (m, n) in ((0, 0), (1, 0), (0, 1)):
                continue
            if tuple(m * x + n * y for x, y in zip(ia, ib)) in values:
                present.add((m, n))
    if not present:
        return (0, -1, -1)
    if present == _SINGLE:
        return (1, -1, -1)
    if present == _DOUBLE_AB:
        return (2, 0, 1)
    if present == _DOUBLE_BA:
        return (2, 1, 0)
    if present == _TRIPLE_AB:
        return (3, 0, 1)
    if present == _TRIPLE_BA:
        return (3, 1, 0)
    raise UnrecognizedBondPattern(
        f"integral combinations {sorted(present)} match no diagram rule")


def _int_roots(roots: Sequence[Root]) -> list[tuple[int, ...]]:
    """Each root's values v = (p + q*sqrt(d)) / D over one common
    denominator D of all the values' parts (:func:`scalar_parts`), as the
    flat tuple (p_1, q_1, p_2, q_2, ...); two values are equal exactly when
    their pairs are, and the tuples are linear in the roots."""
    parts = [[scalar_parts(v) for v in r.values] for r in roots]
    fields = {d for row in parts for _, _, d in row if d}
    if len(fields) > 1:
        raise ExtensionDegreeTooHigh(
            f"roots span more than one quadratic extension: d in {sorted(fields)}")
    D = lcm(*(x.denominator for row in parts for p, q, _ in row for x in (p, q)))
    return [tuple(x.numerator * (D // x.denominator) for p, q, _ in row for x in (p, q))
            for row in parts]


class DynkinDiagram(Frozen):
    __slots__ = ("nodes",        # simple roots, sorted
                 "bonds",        # (i, j, multiplicity, arrow_from, arrow_to)
                 "type_label")

    def to_json(self):
        return {"type": self.type_label,
                "nodes": [r.to_json() for r in self.nodes],
                "bonds": [list(b) for b in self.bonds]}


def _classify_component(nodes: list[int], edges: dict) -> str:
    """Label one connected component of the bond graph."""
    rank = len(nodes)
    if rank == 1:
        return "A1"
    adj = {n: [] for n in nodes}
    mults = []
    for (i, j), (mult, frm, to) in edges.items():
        adj[i].append(j)
        adj[j].append(i)
        mults.append((mult, (i, j), (frm, to)))
    if len(edges) != rank - 1:
        raise UnrecognizedDiagram("bond graph of a component is not a tree")
    n_double = sum(1 for m, _, _ in mults if m == 2)
    n_triple = sum(1 for m, _, _ in mults if m == 3)
    degrees = {n: len(adj[n]) for n in nodes}
    max_deg = max(degrees.values())
    if n_triple:
        if rank == 2 and n_triple == 1 and len(edges) == 1:
            return "G2"
        raise UnrecognizedDiagram("triple bond outside rank 2")
    if n_double == 0:
        if max_deg <= 2:
            return f"A{rank}"
        centers = [n for n, d in degrees.items() if d == 3]
        if len(centers) != 1 or max_deg > 3:
            raise UnrecognizedDiagram("more than one branch node")
        # branch lengths from the center
        center = centers[0]
        lengths = []
        for start in adj[center]:
            ln, prev, cur = 1, center, start
            while True:
                nxts = [x for x in adj[cur] if x != prev]
                if not nxts:
                    break
                if len(nxts) > 1:
                    raise UnrecognizedDiagram("nested branch")
                prev, cur = cur, nxts[0]
                ln += 1
            lengths.append(ln)
        lengths.sort()
        if lengths[:2] == [1, 1]:
            return f"D{rank}"
        if lengths == [1, 2, 2]:
            return "E6"
        if lengths == [1, 2, 3]:
            return "E7"
        if lengths == [1, 2, 4]:
            return "E8"
        raise UnrecognizedDiagram(f"branch lengths {lengths}")
    if n_double == 1 and max_deg <= 2:
        if rank == 2:
            return "B2"
        (mult, (i, j), (frm, to)) = next(t for t in mults if t[0] == 2)
        ends = [n for n, d in degrees.items() if d == 1]
        short = to if to != -1 else j
        arrow_from = frm if frm != -1 else i
        double_pair = {i, j}
        terminal_in_pair = [n for n in ends if n in double_pair]
        if not terminal_in_pair:
            if rank == 4:
                return "F4"
            raise UnrecognizedDiagram("interior double bond outside rank 4")
        if short in terminal_in_pair:
            return f"B{rank}"  # arrow points outward to the short terminal
        if arrow_from in terminal_in_pair:
            return f"C{rank}"  # arrow points inward from the long terminal
        raise UnrecognizedDiagram("double bond arrow matches neither B nor C")
    raise UnrecognizedDiagram("multiple double bonds")


def dynkin_type(simples: Sequence[Root],
                all_positives: Sequence[Root]) -> DynkinDiagram:
    """Bond graph on the simple roots plus its classification label."""
    nodes = sorted(simples, key=lambda r: r.sort_key())
    edges = {}
    bonds_out = []
    for i in range(len(nodes)):
        for j in range(i + 1, len(nodes)):
            mult, frm, to = bond(nodes[i], nodes[j], all_positives)
            if mult:
                arrow_from = -1 if frm == -1 else (i, j)[frm]
                arrow_to = -1 if to == -1 else (i, j)[to]
                edges[(i, j)] = (mult, arrow_from, arrow_to)
                bonds_out.append((i, j, mult, arrow_from, arrow_to))
    # connected components
    parent = list(range(len(nodes)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in edges:
        parent[find(i)] = find(j)
    comps: dict[int, list[int]] = {}
    for n in range(len(nodes)):
        comps.setdefault(find(n), []).append(n)
    labels = []
    for comp_nodes in comps.values():
        comp_edges = {(i, j): v for (i, j), v in edges.items()
                      if i in comp_nodes}
        labels.append(_classify_component(comp_nodes, comp_edges))
    labels.sort()
    return DynkinDiagram(tuple(nodes), tuple(bonds_out), "x".join(labels))


def sl2_triple(L: LieAlgebra, decomposition: RootSpaceDecomposition,
               simple_root: Root) -> tuple[Vector, Vector, Vector]:
    """Standard (X, Y, H) for a root: H = [X, Y], [H, X] = 2X, [H, Y] = -2Y.

    X is the first canonical basis vector of the root space; Y is solved for
    in the opposite space (scaled so the X-eigenvalue is 2 when possible).
    """
    space = decomposition.space_of(simple_root)
    opposite = decomposition.space_of(-simple_root)
    if space is None or opposite is None or space.dim == 0 or opposite.dim == 0:
        raise DegenerateRoot("root or its negative has no root space")
    x = space.rows[0]
    return _complete_sl2(L, x, opposite)


def _complete_sl2(L: LieAlgebra, x: Vector, opposite: Subspace):
    """Find Y in ``opposite`` with [[X, Y], X] = 2 X (then H = [X, Y]): one
    :func:`linear_solver` solve on the scaled columns [[X, w], X] of the
    rows w of ``opposite``, free unknowns 0."""
    cols = [L.bracket(L.bracket(x, w), x) for w in opposite.rows]
    two_x = tuple(2 * c for c in x)
    sol = linear_solver(_scaled_rows(cols), L.dim)[1](_scaled_vector(two_x))
    if sol is None:
        raise DegenerateRoot("no opposite vector completes an sl2 triple")
    y = opposite.from_coords(sol)
    h = L.bracket(x, y)
    if vec_is_zero(h):
        raise DegenerateRoot("bracket of opposite root vectors vanishes")
    if L.bracket(h, x) != two_x:
        raise DegenerateRoot("completed triple fails [H, X] = 2X")
    if L.bracket(h, y) != tuple(-2 * c for c in y):
        raise DegenerateRoot("completed triple fails [H, Y] = -2Y")
    return x, y, h


def conjugation_pairing(decomposition: RootSpaceDecomposition) -> dict[Root, Root]:
    """Map each root to its componentwise conjugate; must permute the set."""
    roots = decomposition.roots
    by_values = {r.values: r for r in roots}
    out = {}
    for r in roots:
        rc = r.conjugate()
        if rc.values not in by_values:
            raise ValueError(f"conjugate of {r} is not a root")
        out[r] = by_values[rc.values]
    return out
