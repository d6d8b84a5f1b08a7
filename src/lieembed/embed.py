"""Deterministic embedding procedures: real/compact tori into Cartan
subalgebras, abelian and general ad-nilpotent algebras into maximal ones,
and maximal-compact construction from simple restricted roots.

Every nondeterministic "pick any element" in the underlying procedures is
resolved by a canonical enumeration (RREF basis order, then small integer
combinations, then seeded pseudo-random combinations), so runs are
reproducible; traces record each adjoined element with a rule label.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, islice, product
from typing import Optional, Sequence

from .errors import (ExtensionDegreeTooHigh, NoCompactFound,
                     NoRealSemisimpleFound, NotAbelianNilpotent, NotATorus,
                     NotNilpotent, NotSplit, ParseError)
from .exactlin import (Matrix, Vector, factor_roots, format_rat, min_poly,
                       scalar_parts, vec_is_zero)
from .liecore import (COMPACT_SEMISIMPLE, REAL_SEMISIMPLE, LieAlgebra,
                      Subspace, centralizer, classify_element, derived_algebra,
                      is_ad_nilpotent, is_negative_definite,
                      jordan_decomposition, levi_decomposition, normalizer,
                      center, spectrum, subalgebra_generated, torus_split)
from .rootsys import RootSpaceDecomposition, _complete_sl2

DEFAULT_SEED = 0
DEFAULT_BUDGET = 10_000

RULE_REAL_ADJOIN = "3.1/step3-adjoin-real"
RULE_COMPACT_ADJOIN = "3.1/compact-adjoin"
RULE_AB_DERIVED = "3.2/adjoin-derived"
RULE_AB_JORDAN = "3.2/jordan-nilpotent"
RULE_AB_EIGEN = "3.2/eigenvector"
RULE_NIL_DERIVED = "3.3/step2-adjoin-derived"
RULE_NIL_JORDAN = "3.3/step3-jordan-nilpotent"
RULE_NIL_EIGEN = "3.3/step4-eigenvector"


def search_seed() -> int:
    env = os.environ.get("LIEEMBED_SEED")
    try:
        return int(env) if env else DEFAULT_SEED
    except ValueError:
        raise ParseError(f"LIEEMBED_SEED must be an integer, got {env!r}") from None


@dataclass
class TraceStep:
    rule: str
    adjoined: tuple
    dim_after: int

    def to_json(self, L: LieAlgebra):
        return {"rule": self.rule,
                "adjoined": [[format_rat(x) for x in v] for v in self.adjoined],
                "adjoined_pretty": [L.format_element(v) for v in self.adjoined],
                "dim_after": self.dim_after}


@dataclass
class EmbeddingTrace:
    algebra: LieAlgebra
    start: Subspace
    steps: list = field(default_factory=list)

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


@dataclass(frozen=True)
class CartanData:
    cartan: Subspace
    real_part: Subspace
    compact_part: Subspace

    def to_json(self):
        return {"cartan": self.cartan.to_json(),
                "real_part": self.real_part.to_json(),
                "compact_part": self.compact_part.to_json()}


# ----------------------------------------------------------------------------
# canonical candidate search


_COEFFS = (Fraction(1), Fraction(-1), Fraction(2), Fraction(-2))


def _candidates(sub: Subspace, budget: int, seed: int):
    """The first ``budget`` deterministic candidate elements of a subspace:
    basis rows, then integer combinations with coefficients in {-2..2},
    then seeded pseudo-random rational combinations."""
    def stream():
        yield from sub.rows
        k = sub.dim
        for size in range(2, k + 1):
            for positions in combinations(range(k), size):
                for coeffs in product(_COEFFS, repeat=size):
                    picked = dict(zip(positions, coeffs))
                    yield sub.from_coords([picked.get(p, 0) for p in range(k)])
        rng = random.Random(seed)
        while True:
            v = sub.from_coords([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                                 for _ in range(k)])
            if not vec_is_zero(v):
                yield v

    return islice(stream(), max(budget, 0))


def find_real_semisimple(sub: Subspace, budget: int = DEFAULT_BUDGET,
                         seed: Optional[int] = None) -> Vector:
    """First canonical element of ``sub`` that is real-semisimple with a
    nonzero eigenvalue in the ambient algebra."""
    L = sub.algebra
    seed = search_seed() if seed is None else seed
    for v in _candidates(sub, budget, seed):
        # B(v,v) = sum of squared eigenvalues of ad(v) > 0 if real semisimple
        if vec_is_zero(v) or L.killing(v, v) <= 0:
            continue
        try:
            if classify_element(L, v) == REAL_SEMISIMPLE:
                return v
        except ExtensionDegreeTooHigh:
            continue  # eigenvalues outside the tower: not representable
    raise NoRealSemisimpleFound(
        f"no real-semisimple element in a {sub.dim}-dim subspace "
        f"within budget {budget}")


def find_compact(sub: Subspace, d_required: Optional[int] = None,
                 budget: int = DEFAULT_BUDGET,
                 seed: Optional[int] = None) -> Vector:
    """First canonical compact-semisimple element whose eigenvalues stay in
    one quadratic extension compatible with ``d_required``."""
    L = sub.algebra
    seed = search_seed() if seed is None else seed
    for v in _candidates(sub, budget, seed):
        # B(v,v) = sum of squared eigenvalues of ad(v) < 0 if compact
        if vec_is_zero(v) or L.killing(v, v) >= 0:
            continue
        try:
            if classify_element(L, v) != COMPACT_SEMISIMPLE:
                continue
        except ExtensionDegreeTooHigh:
            continue  # eigenvalues outside the tower: not representable
        # classified, so the roots are factored; compact implies ad(v) != 0
        ds = spectrum(L, v).extensions
        if len(ds) > 1:
            continue
        if d_required is not None and ds and ds != {d_required}:
            continue
        return v
    raise NoCompactFound(
        f"no compatible compact element in a {sub.dim}-dim subspace "
        f"within budget {budget}")


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


def _check_real_torus(L: LieAlgebra, A: Subspace):
    if not A.is_abelian():
        raise NotATorus("input is not abelian")
    for r in A.rows:
        if classify_element(L, r) != REAL_SEMISIMPLE:
            raise NotATorus(
                f"{L.format_element(r)} is not real semisimple")


def embed_real_torus(L: LieAlgebra, A: Subspace,
                     budget: int = DEFAULT_BUDGET, seed: Optional[int] = None
                     ) -> tuple[Subspace, CartanData, EmbeddingTrace]:
    """Grow a real torus to a maximal one and a maximally real Cartan:
    centralizer / derived / center loop, adjoining a real-semisimple element
    of the derived part while its Killing form stays indefinite."""
    _check_real_torus(L, A)
    trace = EmbeddingTrace(L, A)
    current = A
    for _ in range(L.dim + 1):
        zc = centralizer(L, current)
        der = derived_algebra(zc)
        if is_negative_definite(der):
            break
        new = find_real_semisimple(der, budget=budget, seed=seed)
        current = current.with_vectors([new])
        trace.record(RULE_REAL_ADJOIN, [new], current)
    else:
        raise NoRealSemisimpleFound("torus embedding did not terminate")
    zc = centralizer(L, current)
    der = derived_algebra(zc)
    ctr = center(zc)
    real_part, compact_center = torus_split(L, ctr)
    der_torus = _max_torus_of_definite(der)
    compact_part = compact_center.sum(der_torus)
    cartan = real_part.sum(compact_part)
    data = CartanData(cartan, real_part, compact_part)
    return real_part, data, trace


def embed_compact_torus(L: LieAlgebra, T: Subspace,
                        budget: int = DEFAULT_BUDGET,
                        seed: Optional[int] = None) -> CartanData:
    """Grow a compact torus to a maximally compact Cartan subalgebra by the
    dual centralizer / center / derived chain, adjoining compact elements
    whose eigenvalues stay in the torus's quadratic extension."""
    if not T.is_abelian():
        raise NotATorus("input is not abelian")
    d_ctx: Optional[int] = None
    for r in T.rows:
        if classify_element(L, r) != COMPACT_SEMISIMPLE:
            raise NotATorus(f"{L.format_element(r)} is not compact")
        ds = spectrum(L, r).extensions
        if len(ds) > 1 or (d_ctx is not None and ds and ds != {d_ctx}):
            raise NotATorus("torus eigenvalues span two extensions")
        if ds:
            (d_ctx,) = ds
    current = T
    for _ in range(L.dim + 1):
        zc = centralizer(L, current)
        der = derived_algebra(zc)
        if der.dim == 0:
            real_part, compact_part = torus_split(L, zc)
            return CartanData(zc, real_part, compact_part)
        new = find_compact(der, d_required=d_ctx, budget=budget, seed=seed)
        if d_ctx is None:
            ds = spectrum(L, new).extensions
            d_ctx = next(iter(ds), None)
        current = current.with_vectors([new])
    raise NoCompactFound("compact embedding did not terminate")


# ----------------------------------------------------------------------------
# abelian nilpotent embedding


def _check_abelian_nilpotent(L: LieAlgebra, U: Subspace):
    if not U.is_abelian():
        raise NotAbelianNilpotent("input is not abelian")
    for r in U.rows:
        if not is_ad_nilpotent(L, r):
            raise NotAbelianNilpotent(
                f"{L.format_element(r)} is not ad-nilpotent")


def _positive_real_eigenspace(L: LieAlgebra, alpha: Vector, space: Subspace
                              ) -> Optional[Subspace]:
    """Eigenspace of ad(alpha) on ``space`` for its largest positive real
    eigenvalue, or None when no nonzero real eigenvalue exists."""
    m = space.restrict(L.ad(alpha))
    best = None
    for lam, _ in factor_roots(min_poly(m)):
        a, b, d = scalar_parts(lam)
        if d < 0:
            continue
        positive = (lam > 0) if d == 0 else (lam.real_sign() > 0)
        if positive and (best is None or _real_less(best, lam)):
            best = lam
    if best is None:
        return None
    shifted = Matrix([[m.entries[i][j] - (best if i == j else 0)
                       for j in range(m.cols)] for i in range(m.rows)])
    return space.kernel_of(shifted)


def _real_less(a, b) -> bool:
    diff = b - a
    _, _, d = scalar_parts(diff)
    if d == 0:
        return diff > 0
    return diff.real_sign() > 0


def embed_abelian_nilpotent(L: LieAlgebra, U: Subspace,
                            budget: int = DEFAULT_BUDGET,
                            seed: Optional[int] = None
                            ) -> tuple[Subspace, EmbeddingTrace]:
    """Grow an abelian algebra of ad-nilpotent elements to a maximal one:
    adjoin from the derived radical of the centralizer, then nilpotent
    Jordan parts, then single eigenvectors of a real-semisimple element of
    the indefinite Levi part."""
    _check_abelian_nilpotent(L, U)
    trace = EmbeddingTrace(L, U)
    current = U
    for _ in range(2 * L.dim + 2):
        zc = centralizer(L, current)
        ld = levi_decomposition(zc)
        rprime = derived_algebra(ld.radical)
        if not current.contains_subspace(rprime):
            new = next(r for r in rprime.rows if not current.contains(r))
            current = current.with_vectors([new])
            trace.record(RULE_AB_DERIVED, [new], current)
            continue
        comp = current.complement_in(ld.radical)
        adjoined = None
        for v in comp.rows:
            pair = jordan_decomposition(L, v)
            if not vec_is_zero(pair.nilpotent) and not current.contains(pair.nilpotent):
                adjoined = pair.nilpotent
                break
        if adjoined is not None:
            current = current.with_vectors([adjoined])
            trace.record(RULE_AB_JORDAN, [adjoined], current)
            continue
        if ld.levi.dim and not is_negative_definite(ld.levi):
            alpha = find_real_semisimple(ld.levi, budget=budget, seed=seed)
            eig = _positive_real_eigenspace(L, alpha, ld.levi)
            if eig is None or eig.dim == 0:
                raise NoRealSemisimpleFound(
                    "no nonzero real eigenvalue on the Levi part")
            new = eig.rows[0]
            current = current.with_vectors([new])
            trace.record(RULE_AB_EIGEN, [new], current)
            continue
        return current, trace
    raise NotAbelianNilpotent("abelian nilpotent embedding did not terminate")


# ----------------------------------------------------------------------------
# general nilpotent embedding


def _check_nilpotent(L: LieAlgebra, U: Subspace):
    if not U.is_subalgebra():
        raise NotNilpotent("input is not a subalgebra")
    for r in U.rows:
        if not is_ad_nilpotent(L, r):
            raise NotNilpotent(f"{L.format_element(r)} is not ad-nilpotent")


def embed_nilpotent(L: LieAlgebra, U: Subspace,
                    budget: int = DEFAULT_BUDGET, seed: Optional[int] = None
                    ) -> tuple[Subspace, Subspace, CartanData, EmbeddingTrace]:
    """Grow an ad-nilpotent subalgebra to a maximal one; also return the
    real torus representing radical/U and the maximally split Cartan built
    from it."""
    _check_nilpotent(L, U)
    trace = EmbeddingTrace(L, U)
    current = U
    for _ in range(2 * L.dim + 2):
        nm = normalizer(L, current)
        ld = levi_decomposition(nm)
        rprime = derived_algebra(ld.radical)
        if not current.contains_subspace(rprime):
            new_rows = [r for r in rprime.rows if not current.contains(r)]
            current = current.with_vectors(new_rows)
            trace.record(RULE_NIL_DERIVED, new_rows, current)
            continue
        comp = current.complement_in(ld.radical)
        nil_parts = []
        for v in comp.rows:
            pair = jordan_decomposition(L, v)
            if not vec_is_zero(pair.nilpotent) and not current.contains(pair.nilpotent):
                nil_parts.append(pair.nilpotent)
        if nil_parts:
            current = current.with_vectors(nil_parts)
            trace.record(RULE_NIL_JORDAN, nil_parts, current)
            continue
        if ld.levi.dim and not is_negative_definite(ld.levi):
            alpha = find_real_semisimple(ld.levi, budget=budget, seed=seed)
            eig = _positive_real_eigenspace(L, alpha, ld.levi)
            if eig is None or eig.dim == 0:
                raise NoRealSemisimpleFound(
                    "no nonzero real eigenvalue on the Levi part")
            current = current.with_vectors(eig.rows)
            trace.record(RULE_NIL_EIGEN, list(eig.rows), current)
            continue
        break  # current is unchanged: this pass's nm and ld still hold
    else:
        raise NotNilpotent("nilpotent embedding did not terminate")
    torus = current.complement_in(ld.radical)
    real_part, _compact = torus_split(L, torus)
    _, cartan, _ = embed_real_torus(L, real_part, budget=budget, seed=seed)
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
    from .rootsys import is_positive, root_space_decomposition, simple_roots
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
