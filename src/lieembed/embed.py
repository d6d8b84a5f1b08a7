"""Deterministic embedding procedures: real/compact tori into Cartan
subalgebras, abelian and general ad-nilpotent algebras into maximal ones,
and maximal-compact construction from simple restricted roots.

Every nondeterministic "pick any element" in the underlying procedures is
resolved by one canonical enumeration (RREF basis order, then small integer
combinations, then one fixed pseudo-random stream), so a search depends
only on its arguments; traces record each adjoined element with a rule
label.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Optional, Sequence

from .errors import (ExtensionDegreeTooHigh, Frozen, NoCompactFound,
                     NoRealSemisimpleFound, NotAbelianNilpotent, NotATorus,
                     NotNilpotent, NotSplit, Record)
from .exactlin import (Vector, format_rat, is_complex_positive, scalar_d,
                       vec_is_zero)
from .liecore import (COMPACT_SEMISIMPLE, REAL_SEMISIMPLE, LieAlgebra,
                      Subspace, centralizer, classify_element, derived_algebra,
                      is_ad_nilpotent, is_negative_definite,
                      jordan_decomposition, levi_decomposition, normalizer,
                      center, spectrum, subalgebra_generated, torus_split,
                      _radical_series, _torus_ad)
from .rootsys import (RootSpaceDecomposition, _complete_sl2, is_positive,
                      joint_eigenspaces, root_space_decomposition, simple_roots)

DEFAULT_BUDGET = 10_000

RULE_REAL_ADJOIN = "3.1/step3-adjoin-real"
RULE_COMPACT_ADJOIN = "3.1/compact-adjoin"
RULE_AB_DERIVED = "3.2/adjoin-derived"
RULE_AB_JORDAN = "3.2/jordan-nilpotent"
RULE_AB_EIGEN = "3.2/eigenvector"
RULE_NIL_DERIVED = "3.3/step2-adjoin-derived"
RULE_NIL_JORDAN = "3.3/step3-jordan-nilpotent"
RULE_NIL_EIGEN = "3.3/step4-eigenvector"


class TraceStep(Record):
    __slots__ = ("rule", "adjoined", "dim_after")  # str, tuple of vectors, int

    def to_json(self, L: LieAlgebra):
        return {"rule": self.rule,
                "adjoined": [[format_rat(x) for x in v] for v in self.adjoined],
                "adjoined_pretty": [L.format_element(v) for v in self.adjoined],
                "dim_after": self.dim_after}


class EmbeddingTrace(Record):
    __slots__ = ("algebra", "start", "steps")

    def __init__(self, algebra: LieAlgebra, start: Subspace,
                 steps: Optional[list] = None):
        super().__init__(algebra, start, [] if steps is None else steps)

    def record(self, rule: str, adjoined: Sequence[Vector], current: Subspace):
        self.steps.append(TraceStep(rule, tuple(adjoined), current.dim))

    def replay(self) -> Subspace:
        current = self.start
        for step in self.steps:
            current = current.with_vectors(step.adjoined)
        return current

    def to_json(self):
        return {"start": self.start.to_json(),
                "steps": [s.to_json(self.algebra) for s in self.steps]}


class CartanData(Frozen):
    __slots__ = ("cartan", "real_part", "compact_part")  # Subspaces

    def to_json(self):
        return {"cartan": self.cartan.to_json(),
                "real_part": self.real_part.to_json(),
                "compact_part": self.compact_part.to_json()}


# ----------------------------------------------------------------------------
# canonical candidate search


_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))


def _candidates(sub: Subspace, budget: int):
    """The first ``budget`` canonical candidate elements of a subspace:
    basis rows, then integer combinations with coefficients in {-2..2},
    then rational combinations from one fixed pseudo-random stream."""
    def stream():
        yield from sub.rows
        k = sub.dim
        for size in range(2, k + 1):
            for positions in combinations(range(k), size):
                for coeffs in product(_COEFFS, repeat=size):
                    picked = dict(zip(positions, coeffs))
                    yield sub.from_coords([picked.get(p, 0) for p in range(k)])
        rng = random.Random(0)
        while k:  # a 0-dim subspace has no nonzero element to draw
            v = sub.from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(k)])
            if not vec_is_zero(v):
                yield v

    return islice(stream(), max(budget, 0))


def _screen(sub: Subspace, budget: int, sign: int, accept) -> Optional[Vector]:
    """First canonical candidate v of ``sub`` with sign * B(v,v) > 0 that
    ``accept(L, v)`` takes, or None.  B(v,v) is the sum of the squared
    eigenvalues of ad(v): positive for a real-semisimple element, negative
    for a compact one, so a candidate of the other sign is skipped
    unclassified (it still counts toward ``budget``)."""
    L = sub.algebra
    for v in _candidates(sub, budget):
        if sign * L.killing(v, v) <= 0:
            continue
        try:
            if accept(L, v):
                return v
        except ExtensionDegreeTooHigh:
            continue  # eigenvalues outside the tower: not representable
    return None


def find_real_semisimple(sub: Subspace, budget: int = DEFAULT_BUDGET) -> Vector:
    """First canonical element of ``sub`` that is real-semisimple with a
    nonzero eigenvalue in the ambient algebra."""
    v = _screen(sub, budget, 1,
                lambda L, v: classify_element(L, v) == REAL_SEMISIMPLE)
    if v is None:
        raise NoRealSemisimpleFound(
            f"no real-semisimple element in a {sub.dim}-dim subspace "
            f"within budget {budget}")
    return v


def find_compact(sub: Subspace, d_required: Optional[int] = None,
                 budget: int = DEFAULT_BUDGET) -> Vector:
    """First canonical compact-semisimple element whose eigenvalues stay in
    one quadratic extension compatible with ``d_required``."""
    def fits(L, v):
        if classify_element(L, v) != COMPACT_SEMISIMPLE:
            return False
        # classified, so the roots are factored; compact means some d < 0
        ds = spectrum(L, v).extensions
        return len(ds) == 1 and d_required in (None, *ds)

    v = _screen(sub, budget, -1, fits)
    if v is None:
        raise NoCompactFound(
            f"no compatible compact element in a {sub.dim}-dim subspace "
            f"within budget {budget}")
    return v


# ----------------------------------------------------------------------------
# Cartan embedding of a real torus


def _max_torus_of_definite(sub: Subspace) -> Subspace:
    """Greedy maximal torus of a negative-definite subalgebra: adjoin the
    first centralizing basis vector until self-centralizing."""
    L = sub.algebra
    torus = Subspace.zero(L)
    for _ in range(sub.dim + 1):
        zc = centralizer(L, torus, within=sub) if torus.dim else sub
        if zc.dim == torus.dim:
            return torus
        new = next(r for r in zc.rows if not torus.contains(r))
        torus = torus.with_vectors([new])
    return torus


def _check_input(error: type, L: LieAlgebra, U: Subspace, closed: bool,
                 closure: str, ok, noun: str):
    """Raise ``error`` unless U is closed (``closed`` is that verdict, and
    ``closure`` names the property) and ``ok(L, r)`` holds for every basis
    row r, which ``noun`` names."""
    if not closed:
        raise error(f"input is not {closure}")
    for r in U.rows:
        if not ok(L, r):
            raise error(f"{L.format_element(r)} is not {noun}")


def _torus_row(kind: str):
    """The row check of a torus mode's input: a row of the ``kind`` of
    :func:`classify_element`, or central (ad(x) = 0: its minimal polynomial
    t is nilpotent and semisimple, and torus_split puts x in both the real
    and the compact part).  The spectrum comes from the row's kept
    :func:`_torus_ad` columns, which torus_split reads again."""
    def ok(L: LieAlgebra, x: Vector) -> bool:
        s = spectrum(L, x, _torus_ad(L, x)[1])
        return s.kind == kind or (s.nilpotent and s.semisimple)
    return ok


def embed_real_torus(L: LieAlgebra, A: Subspace, budget: int = DEFAULT_BUDGET
                     ) -> tuple[Subspace, CartanData, EmbeddingTrace]:
    """Grow a real torus to a maximal one and a maximally real Cartan:
    centralizer / derived / center loop, adjoining a real-semisimple element
    of the derived part while its Killing form stays indefinite."""
    _check_input(NotATorus, L, A, A.is_abelian(), "abelian",
                 _torus_row(REAL_SEMISIMPLE), "real semisimple")
    trace = EmbeddingTrace(L, A)
    current = A
    for _ in range(L.dim + 1):
        zc = centralizer(L, current)
        der = derived_algebra(zc)
        if is_negative_definite(der):
            break  # current is unchanged: this pass's zc and der still hold
        new = find_real_semisimple(der, budget=budget)
        current = current.with_vectors([new])
        trace.record(RULE_REAL_ADJOIN, [new], current)
    else:
        raise NoRealSemisimpleFound("torus embedding did not terminate")
    real_part, compact_center = torus_split(L, center(zc))
    compact_part = compact_center.sum(_max_torus_of_definite(der))
    cartan = real_part.sum(compact_part)
    return real_part, CartanData(cartan, real_part, compact_part), trace


def embed_compact_torus(L: LieAlgebra, T: Subspace,
                        budget: int = DEFAULT_BUDGET) -> CartanData:
    """Grow a compact torus to a maximally compact Cartan subalgebra by the
    dual centralizer / center / derived chain, adjoining compact elements
    whose eigenvalues stay in the torus's quadratic extension."""
    _check_input(NotATorus, L, T, T.is_abelian(), "abelian",
                 _torus_row(COMPACT_SEMISIMPLE), "compact")
    fields = set().union(*(spectrum(L, r).extensions for r in T.rows))
    if len(fields) > 1:
        raise NotATorus("torus eigenvalues span two extensions")
    d_ctx = next(iter(fields), None)
    current = T
    for _ in range(L.dim + 1):
        zc = centralizer(L, current)
        der = derived_algebra(zc)
        if der.dim == 0:
            real_part, compact_part = torus_split(L, zc)
            return CartanData(zc, real_part, compact_part)
        new = find_compact(der, d_required=d_ctx, budget=budget)
        if d_ctx is None:
            ds = spectrum(L, new).extensions
            d_ctx = next(iter(ds), None)
        current = current.with_vectors([new])
    raise NoCompactFound("compact embedding did not terminate")


# ----------------------------------------------------------------------------
# abelian (3.2) and general (3.3) nilpotent embeddings


def _positive_real_eigenspace(L: LieAlgebra, alpha: Vector, space: Subspace
                              ) -> Optional[Subspace]:
    """Eigenspace of ad(alpha) on ``space`` for its largest positive real
    eigenvalue, or None when no positive real eigenvalue exists."""
    best, eig = None, None
    for (lam,), eigen in joint_eigenspaces(L, [alpha], space):
        if scalar_d(lam) >= 0 and is_complex_positive(lam if best is None else lam - best):
            best, eig = lam, eigen
    return eig


# What tells the two modes apart: the rules of the derived, Jordan and
# eigenvector steps; how many of a step's elements are adjoined (3.2 takes
# the first, since two of them need not commute); the error and the name in
# its message.
_ABELIAN = ((RULE_AB_DERIVED, RULE_AB_JORDAN, RULE_AB_EIGEN),
            lambda found: list(islice(found, 1)), NotAbelianNilpotent,
            "abelian nilpotent")
_GENERAL = ((RULE_NIL_DERIVED, RULE_NIL_JORDAN, RULE_NIL_EIGEN), list,
            NotNilpotent, "nilpotent")


def _grow_nilpotent(L: LieAlgebra, U: Subspace, closure, mode: tuple, budget: int):
    """The loop of both nilpotent embeddings.  Each pass takes the radical
    series of ``closure(L, current)`` (the centralizer for 3.2, the
    normalizer for 3.3) and the Levi decomposition lifted across it, and
    adjoins elements from the first step that finds any: rows of the
    derived radical (the series' second term) outside current, the
    nilpotent Jordan parts of the complement of current in the radical, and
    an eigenspace of a real-semisimple element of an indefinite Levi part.
    Returns (the maximal algebra, the last pass's Levi decomposition, the
    trace)."""
    (derived_rule, jordan_rule, eigen_rule), take, error, name = mode
    trace = EmbeddingTrace(L, U)
    current = U
    for _ in range(2 * L.dim + 2):
        sub = closure(L, current)
        series = _radical_series(sub)  # kept: the Levi lifting reads it again
        ld = levi_decomposition(sub)
        rprime = series[1] if len(series) > 1 else series[0]  # [r, r], or r = 0
        if not current.contains_subspace(rprime):
            rule, new = derived_rule, take(r for r in rprime.rows if not current.contains(r))
        else:
            parts = (jordan_decomposition(L, v).nilpotent
                     for v in current.complement_in(ld.radical).rows)
            rule, new = jordan_rule, take(n for n in parts
                                          if not vec_is_zero(n) and not current.contains(n))
        if not new and ld.levi.dim and not is_negative_definite(ld.levi):
            alpha = find_real_semisimple(ld.levi, budget=budget)
            eig = _positive_real_eigenspace(L, alpha, ld.levi)
            if eig is None:
                raise NoRealSemisimpleFound(
                    "no nonzero real eigenvalue on the Levi part")
            rule, new = eigen_rule, take(eig.rows)
        if not new:
            return current, ld, trace
        current = current.with_vectors(new)
        trace.record(rule, new, current)
    raise error(f"{name} embedding did not terminate")


def embed_abelian_nilpotent(L: LieAlgebra, U: Subspace,
                            budget: int = DEFAULT_BUDGET
                            ) -> tuple[Subspace, EmbeddingTrace]:
    """Grow an abelian algebra of ad-nilpotent elements to a maximal one:
    the nilpotent loop on centralizers, one element per step."""
    _check_input(NotAbelianNilpotent, L, U, U.is_abelian(), "abelian",
                 is_ad_nilpotent, "ad-nilpotent")
    current, _, trace = _grow_nilpotent(L, U, centralizer, _ABELIAN, budget)
    return current, trace


def embed_nilpotent(L: LieAlgebra, U: Subspace, budget: int = DEFAULT_BUDGET
                    ) -> tuple[Subspace, Subspace, CartanData, EmbeddingTrace]:
    """Grow an ad-nilpotent subalgebra to a maximal one (the nilpotent loop
    on normalizers, every element of a step); also return the real torus
    representing radical/U and the maximally split Cartan built from it."""
    _check_input(NotNilpotent, L, U, U.is_subalgebra(), "a subalgebra",
                 is_ad_nilpotent, "ad-nilpotent")
    current, ld, trace = _grow_nilpotent(L, U, normalizer, _GENERAL, budget)
    # the last pass left current unchanged, so its Levi decomposition holds
    real_part, _compact = torus_split(L, current.complement_in(ld.radical))
    _, cartan, _ = embed_real_torus(L, real_part, budget=budget)
    return current, real_part, cartan, trace


# ----------------------------------------------------------------------------
# maximal compact subalgebra from simple restricted roots


def maximal_compact_split(L: LieAlgebra, cartan_data: CartanData,
                          decomposition: RootSpaceDecomposition) -> Subspace:
    """Generate the compact circles X - Y of the simple restricted roots.

    ``decomposition`` carries the restricted system of the Cartan's real
    part: either one-sided (roots on a maximal solvable algebra, taken as
    the positive system verbatim) or two-sided (positivity by the first
    nonzero rule).  Root spaces and their opposites are taken from the full
    algebra; every basis vector of a simple root space contributes one
    circle.  Requires a nonzero real part."""
    if cartan_data.real_part.dim == 0:
        raise NotSplit("no real torus: use the compact-torus route")
    roots = decomposition.roots
    values = {r.values for r in roots}
    one_sided = any((-r).values not in values for r in roots)
    positives = list(roots) if one_sided else [r for r in roots if is_positive(r)]
    simples = simple_roots(positives)
    full = root_space_decomposition(L, list(decomposition.cartan_basis))
    circles = []
    for root in simples:
        space = full.space_of(root)
        opposite = full.space_of(-root)
        if space is None or opposite is None:
            raise NotSplit(f"restricted root {root} lacks an opposite space")
        for x in space.rows:
            x_, y_, _h = _complete_sl2(L, x, opposite)
            circles.append(tuple(a - b for a, b in zip(x_, y_)))
    return subalgebra_generated(L, circles)
