"""Root space decompositions, positivity, simple roots, bond rules and
Dynkin classification."""

from __future__ import annotations

from itertools import combinations
from math import lcm, prod
from typing import Optional, Sequence

from .errors import (DegenerateRoot, ExtensionDegreeTooHigh, Frozen, NotATorus,
                     UnrecognizedBondPattern, UnrecognizedDiagram)
from .exactlin import (ExactScalar, Scalar, Vector, conj, format_rat,
                       is_complex_positive, linear_solver, min_poly, scalar_d,
                       scalar_parts, scalar_sort_key, scalar_to_json,
                       symmetric_signature, vec_is_zero,
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
    within each space, spaces in order: lexicographically in the weight
    entries, each by ``(*scalar_sort_key(x), scalar_d(x))``.

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
    irrational coordinates.

    The spaces depend on the span of the basis only, so they are kept on L
    once per torus (:meth:`LieAlgebra.kept`): under the span and the
    ambient, with the basis they were derived under.  Another basis of the
    same span maps each kept weight through the change of basis
    (:func:`_rebased_weights`).  A basis with irrational coordinates, or a
    dependent one, is derived on each call and keeps nothing; so does a
    call that raises.
    """
    scaled = []
    for h in basis:
        v = _torus_ad(L, h)[0]
        if v[1]:  # irrational coordinates
            return list(_derive_joint_eigenspaces(L, basis, ambient))
        scaled.append(v)
    span = Subspace._span(L, 0, [v[2:] for v in scaled])
    if span.dim < len(basis):
        return list(_derive_joint_eigenspaces(L, basis, ambient))
    # each element's scaled form is kept once, so the deriving basis comes
    # back as the same objects and compares by identity
    scaled = tuple(scaled)
    kept_basis, pairs = L.kept(("eigenspaces", span, ambient),
                               lambda: (scaled, _derive_joint_eigenspaces(L, basis, ambient)))
    if kept_basis == scaled:
        return list(pairs)
    return _rebased_weights(span, kept_basis, scaled, pairs)


def _rebased_weights(span: Subspace, old: Sequence[tuple], new: Sequence[tuple],
                     pairs: Sequence[tuple]) -> list:
    """The pairs derived under one basis of ``span`` for another, both
    given by their scaled forms (:func:`_scaled_vector`): with new_i =
    sum_j c_ij old_j, a weight w becomes (sum_j c_ij w_j)_i, and the spaces
    stay.  The c_ij solve the r x r system that both bases give at the
    span's pivots; the pairs come sorted as a derivation under ``new``
    gives them."""
    pivots = span.pivots

    def at_pivots(a):
        return {t: a[p] for t, p in enumerate(pivots) if p in a}

    solve = linear_solver((1, 0, [(at_pivots(v[2]), {}) for v in old]), span.dim)[1]
    change = [[x * v[0] for x, v in zip(solve((w[0], 0, at_pivots(w[2]), {})), old)]
              for w in new]
    out = [(tuple(sum(c * x for c, x in zip(row, weight)) for row in change), space)
           for weight, space in pairs]
    out.sort(key=lambda p: [(*scalar_sort_key(x), scalar_d(x)) for x in p[0]])
    return out


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
    # at most one weight is zero, and its space is already canonical
    pairs, zero = [], Subspace.zero(L)
    for weight, space in spaces:
        if any(weight):
            pairs.append((Root(weight), space))
        else:
            zero = space
    pairs.sort(key=lambda p: p[0].sort_key())
    return RootSpaceDecomposition(L, tuple(tuple(b) for b in basis),
                                  tuple(pairs), zero)


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
    """Positive roots that are not a sum of two positive roots, compared as
    the int tuples of :func:`_int_roots`."""
    ints = _int_roots(positives)
    values = set(ints)
    simples = [r for r, v in zip(positives, ints)
               if not any(w != v and tuple(a - b for a, b in zip(v, w)) in values
                          for w in ints)]
    simples.sort(key=Root.sort_key)
    return simples


_SINGLE = {(1, 1)}
_DOUBLE_AB = {(1, 1), (1, 2)}
_DOUBLE_BA = {(1, 1), (2, 1)}
_TRIPLE_AB = {(1, 1), (1, 2), (1, 3), (2, 3)}
_TRIPLE_BA = {(1, 1), (2, 1), (3, 1), (3, 2)}
_BONDS = {frozenset(): (0, -1, -1), frozenset(_SINGLE): (1, -1, -1),
          frozenset(_DOUBLE_AB): (2, 0, 1), frozenset(_DOUBLE_BA): (2, 1, 0),
          frozenset(_TRIPLE_AB): (3, 0, 1), frozenset(_TRIPLE_BA): (3, 1, 0)}


def bond(a: Root, b: Root, all_positives: Sequence[Root]) -> tuple[int, int, int]:
    """Bond between two simple roots: (multiplicity, arrow_from, arrow_to).

    arrow_from/arrow_to are 0 for a and 1 for b; (m, -1, -1) when there is
    no arrow (multiplicity 0 or 1).  The combinations m*a + n*b are
    compared with the positives as the int tuples of :func:`_int_roots`;
    values over more than one quadratic field raise ExtensionDegreeTooHigh,
    whether or not a combination adds them.
    """
    ia, ib, *positives = _int_roots([a, b, *all_positives])
    return _bond(ia, ib, set(positives))


def _bond(ia: tuple, ib: tuple, values: set) -> tuple[int, int, int]:
    """:func:`bond` of the int tuples ia, ib among the positives' tuples."""
    present = {(m, n) for m in range(5) for n in range(5) if m + n > 1
               and tuple(m * x + n * y for x, y in zip(ia, ib)) in values}
    rule = _BONDS.get(frozenset(present))
    if rule is None:
        raise UnrecognizedBondPattern(
            f"integral combinations {sorted(present)} match no diagram rule")
    return rule


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


def _classify_component(nodes: list[int], bonds: list[tuple]) -> str:
    """Label one connected component of the bond graph, its bonds given as
    (i, j, multiplicity, arrow_from, arrow_to), from its Cartan matrix A.

    Squared lengths l_i go along the tree: a bond of multiplicity m joins a
    long root to one m times shorter, its arrow pointing to the short one.
    The diagram is of finite type exactly when the Gram matrix G of the
    simple roots, (a_i, a_i) = l_i and (a_i, a_j) = -m*min(l_i, l_j)/2, is
    positive definite; then det A = 2^r * det G / prod l_i, the largest bond
    and which end of a double bond is a leaf name the type (Humphreys,
    Introduction to Lie Algebras, 11.4; Kac, Infinite-Dimensional Lie
    Algebras, ch. 4).
    """
    # the first node's length is the product of the multiplicities, so
    # every length is an int
    rank, length = len(nodes), {nodes[0]: prod(b[2] for b in bonds)}
    for _ in range(rank):
        for i, j, m, frm, to in bonds:
            if (i in length) != (j in length):
                old, new = (i, j) if i in length else (j, i)
                x = length[old]
                length[new] = x * m if new == frm else x // m if new == to else x
    if len(bonds) != rank - 1 or len(length) != rank:
        raise UnrecognizedDiagram("bond graph of a component is not a tree")
    at = {n: k for k, n in enumerate(nodes)}
    gram = [({k: 2 * length[n]}, {}) for k, n in enumerate(nodes)]  # the int rows of 2G
    for i, j, m, _, _ in bonds:
        gram[at[i]][0][at[j]] = gram[at[j]][0][at[i]] = -m * min(length[i], length[j])
    n_pos, _, _, det = symmetric_signature((2, 0, gram))
    if n_pos < rank:
        raise UnrecognizedDiagram("a component of the bond graph is not of finite type")
    det = 2 ** rank * det / prod(length.values())
    mults = {m for _, _, m, _, _ in bonds}
    if 3 in mults:
        return "G2"
    if 2 in mults:
        if rank == 2:
            return "B2"
        if det == 1:
            return "F4"
        short = next(to for _, _, m, _, to in bonds if m == 2)
        return ("B" if sum(short in b[:2] for b in bonds) == 1 else "C") + str(rank)
    if det == rank + 1:
        return f"A{rank}"
    return f"D{rank}" if det == 4 else f"E{rank}"


def dynkin_type(simples: Sequence[Root],
                all_positives: Sequence[Root]) -> DynkinDiagram:
    """Bond graph on the simple roots plus its classification label; the
    roots are converted to int tuples (:func:`_int_roots`) once."""
    nodes = sorted(simples, key=Root.sort_key)
    ints = _int_roots([*nodes, *all_positives])
    values = set(ints[len(nodes):])
    bonds = []
    for i, j in combinations(range(len(nodes)), 2):
        mult, frm, to = _bond(ints[i], ints[j], values)
        if mult:
            bonds.append((i, j, mult, -1 if frm == -1 else (i, j)[frm],
                          -1 if to == -1 else (i, j)[to]))
    labels, left = [], set(range(len(nodes)))
    while left:
        comp = {min(left)}
        while grown := {n for b in bonds if comp & set(b[:2]) for n in b[:2]} - comp:
            comp |= grown
        left -= comp
        labels.append(_classify_component(sorted(comp), [b for b in bonds if b[0] in comp]))
    return DynkinDiagram(tuple(nodes), tuple(bonds), "x".join(sorted(labels)))


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
