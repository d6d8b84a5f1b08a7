"""Embedding procedures: tori, abelian and general nilpotent algebras,
maximal compact construction, canonical element search."""

import random
from fractions import Fraction as F

import pytest

from lieembed.errors import (ExtensionDegreeTooHigh, NoCompactFound,
                             NoRealSemisimpleFound, NotATorus,
                             NotAbelianNilpotent, NotNilpotent, NotSplit)
from lieembed.exactlin import vec_add, vec_is_zero, vec_scale, vec_sub
from lieembed.liecore import (COMPACT_SEMISIMPLE, NILPOTENT, REAL_SEMISIMPLE,
                              LieAlgebra, Subspace, centralizer,
                              classify_element, derived_algebra,
                              is_ad_nilpotent, killing_signature,
                              levi_decomposition, normalizer,
                              restricted_killing_signature, spectrum,
                              subalgebra_generated)
from lieembed.rootsys import restricted_roots
from lieembed.embed import (_candidates, embed_abelian_nilpotent,
                            embed_compact_torus, embed_nilpotent,
                            embed_real_torus, find_compact,
                            find_real_semisimple, maximal_compact_split)
from lieembed.vecfield import so_pq_generators
from test_liecore import _dense_basis, _table_in_basis, _typed


def span(L, *vs):
    return Subspace(L, vs)


# --- real torus embedding --------------------------------------------------------

def test_embed_real_torus_so22(so22):
    E = so22.basis_vector
    torus, cd, trace = embed_real_torus(so22, span(so22, E("e2")))
    assert torus == span(so22, E("e2"), E("e5"))
    assert cd.cartan == torus and cd.compact_part.dim == 0
    assert trace.replay() == trace.start.with_vectors(
        [v for s in trace.steps for v in s.adjoined])


def test_embed_real_torus_so13(so13):
    E = so13.basis_vector
    torus, cd, _ = embed_real_torus(so13, span(so13, E("e1")))
    assert torus == span(so13, E("e1"))
    assert cd.cartan == span(so13, E("e1"), E("e6"))
    assert cd.compact_part == span(so13, E("e6"))


def test_embed_real_torus_so4_from_zero(so4):
    E = so4.basis_vector
    torus, cd, _ = embed_real_torus(so4, Subspace.zero(so4))
    assert torus.dim == 0
    assert cd.cartan == span(so4, E("e1"), E("e6"))
    assert cd.real_part.dim == 0


def test_embed_real_torus_wave(wave15):
    E = wave15.basis_vector
    A = span(wave15, E("e2"), E("e7m16"))
    torus, cd, _ = embed_real_torus(wave15, A)
    assert torus == A
    assert cd.cartan == span(wave15, E("e2"), E("e7m16"), E("e14"))


def test_embed_real_torus_result_is_self_maximal(wave15):
    E = wave15.basis_vector
    torus, _, _ = embed_real_torus(wave15, span(wave15, E("e2")))
    zc = centralizer(wave15, torus)
    # no basis element of the centralizer extends the torus as a real part
    for row in zc.rows:
        if torus.contains(row):
            continue
        candidate = torus.with_vectors([row])
        if not candidate.is_abelian():
            continue
        assert classify_element(wave15, row) != REAL_SEMISIMPLE


def test_embed_real_torus_rejects_bad_input(wave15):
    E = wave15.basis_vector
    with pytest.raises(NotATorus):
        embed_real_torus(wave15, span(wave15, E("e8")))
    with pytest.raises(NotATorus):
        embed_real_torus(wave15, span(wave15, E("e14")))  # compact, not real


# --- compact torus embedding ------------------------------------------------------

def test_embed_compact_torus_wave(wave15):
    E = wave15.basis_vector
    cd = embed_compact_torus(wave15, span(wave15, E("e15")))
    expected = span(wave15,
                    vec_add(vec_scale(2, E("e12")), E("e5")),
                    vec_add(E("e9"), vec_scale(4, E("e8"))),
                    E("e15"))
    assert cd.cartan == expected
    assert cd.compact_part == expected and cd.real_part.dim == 0
    assert centralizer(wave15, cd.cartan) == cd.cartan


def test_embed_compact_torus_fixed_point(wave15):
    E = wave15.basis_vector
    ck = span(wave15,
              vec_add(vec_scale(2, E("e12")), E("e5")),
              vec_add(E("e9"), vec_scale(4, E("e8"))),
              E("e15"))
    cd = embed_compact_torus(wave15, ck)
    assert cd.cartan == ck


def test_embed_compact_torus_so4(so4):
    E = so4.basis_vector
    cd = embed_compact_torus(so4, span(so4, E("e1")))
    assert cd.cartan == span(so4, E("e1"), E("e6"))


def test_embed_compact_torus_rejects_real(so22):
    with pytest.raises(NotATorus):
        embed_compact_torus(so22, span(so22, so22.basis_vector("e2")))


# --- abelian nilpotent ------------------------------------------------------------

def test_embed_abelian_nilpotent_sl2(sl2):
    X = sl2.basis_vector("X")
    result, trace = embed_abelian_nilpotent(sl2, span(sl2, X))
    assert result == span(sl2, X)
    assert not trace.steps


def test_embed_abelian_nilpotent_wave_null_translation(wave15):
    E = wave15.basis_vector
    U0 = span(wave15, vec_add(E("e8"), E("e10")))
    result, trace = embed_abelian_nilpotent(wave15, U0)
    assert result.contains_subspace(U0)
    assert result.is_abelian()
    assert all(is_ad_nilpotent(wave15, r) for r in result.rows)
    assert result.dim == 4
    # maximality oracle: the centralizer adds nothing, so no abelian
    # extension exists at all
    assert centralizer(wave15, result) == result


def test_embed_abelian_nilpotent_translations_maximal(wave15):
    E = wave15.basis_vector
    U = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))
    result, _ = embed_abelian_nilpotent(wave15, U)
    assert result == U
    assert centralizer(wave15, result) == result


def test_embed_abelian_nilpotent_monotone(wave15):
    E = wave15.basis_vector
    for vectors in ([vec_add(E("e8"), E("e10"))],
                    [E("e11"), E("e12")],
                    [E("e8"), E("e10"), E("e11"), E("e12")]):
        start = span(wave15, *vectors)
        result, trace = embed_abelian_nilpotent(wave15, start)
        assert result.contains_subspace(start)
        assert trace.replay() == result


def test_embed_abelian_nilpotent_rejects(wave15):
    E = wave15.basis_vector
    with pytest.raises(NotAbelianNilpotent):
        embed_abelian_nilpotent(wave15, span(wave15, E("e2")))
    with pytest.raises(NotAbelianNilpotent):
        embed_abelian_nilpotent(wave15, span(wave15, E("e2"), E("e4")))


# --- general nilpotent ------------------------------------------------------------

def test_embed_nilpotent_wave(wave15):
    E = wave15.basis_vector
    U = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))
    result, torus, cd, trace = embed_nilpotent(wave15, U)
    expected = U.with_vectors([vec_sub(E("e4"), E("e15")),
                               vec_sub(E("e6"), E("e13"))])
    assert result == expected
    assert torus == span(wave15, E("e2"), E("e7m16"))
    assert cd.cartan == span(wave15, E("e2"), E("e7m16"), E("e14"))
    assert cd.real_part == torus
    assert cd.compact_part == span(wave15, E("e14"))
    # the adjoined step is recorded and replays
    assert any(s.rule == "3.3/step4-eigenvector" for s in trace.steps)
    assert trace.replay() == result
    # maximality: N(result) is solvable and self-normalizing
    nm = normalizer(wave15, result)
    assert nm == result.sum(cd.cartan)
    assert normalizer(wave15, nm) == nm


def test_embed_nilpotent_g2(g2):
    X = g2.basis_vector
    U = span(g2, X("X14"), X("X13"), X("X12"))
    result, torus, cd, trace = embed_nilpotent(g2, U)
    assert result == span(g2, X("X5"), X("X14"), X("X13"), X("X12"),
                          X("X11"), X("X9"))
    assert torus == span(g2, X("X6"), X("X8"))
    assert cd.cartan == torus
    assert cd.compact_part.dim == 0
    assert centralizer(g2, cd.cartan) == cd.cartan  # self-centralizing
    rules = [s.rule for s in trace.steps]
    assert "3.3/step2-adjoin-derived" in rules
    assert "3.3/step4-eigenvector" in rules
    assert trace.replay() == result


def test_embed_nilpotent_sl2(sl2):
    X, H = sl2.basis_vector("X"), sl2.basis_vector("H")
    result, torus, cd, _ = embed_nilpotent(sl2, span(sl2, X))
    assert result == span(sl2, X)
    assert torus == span(sl2, H)
    assert cd.cartan == span(sl2, H)


def test_embed_nilpotent_monotone_and_nilpotent(wave15):
    E = wave15.basis_vector
    U = span(wave15, E("e8"))
    result, _, _, _ = embed_nilpotent(wave15, U)
    assert result.contains_subspace(U)
    assert result.is_subalgebra()
    for row in result.rows:
        assert classify_element(wave15, row) == NILPOTENT


def test_embed_nilpotent_rejects(wave15):
    E = wave15.basis_vector
    with pytest.raises(NotNilpotent):
        embed_nilpotent(wave15, span(wave15, E("e7m16")))
    with pytest.raises(NotNilpotent):
        # not a subalgebra: [e4-e15, e2] lands outside
        embed_nilpotent(wave15, span(wave15, E("e8"), E("e2")))


# --- canonical search --------------------------------------------------------------

def test_find_real_semisimple_wave_levi(wave15):
    E = wave15.basis_vector
    S = span(wave15, E("e2"), E("e4"), E("e6"), E("e13"), E("e14"), E("e15"))
    found = find_real_semisimple(S)
    assert found == E("e2")  # first qualifying basis vector in canonical order
    # e6 qualifies too, with the quoted eigenvalue pattern on S
    from lieembed.exactlin import eigenvalues
    assert classify_element(wave15, E("e6")) == REAL_SEMISIMPLE
    ev = eigenvalues(S.restrict(wave15.ad(E("e6"))))
    assert ev == [(F(-1), 2), (F(0), 2), (F(1), 2)]


def test_find_real_semisimple_sl2(sl2):
    found = find_real_semisimple(Subspace.full(sl2))
    assert found == sl2.basis_vector("H")  # X is nilpotent, H is next


def test_find_real_semisimple_budget(so3):
    with pytest.raises(NoRealSemisimpleFound):
        # compact algebra has no real-semisimple elements at all
        find_real_semisimple(Subspace.full(so3), budget=50)


def test_find_compact_prefers_compatible_extension(wave15):
    E = wave15.basis_vector
    # derived algebra of the centralizer of e15: the plane-conformal part
    der = span(wave15, E("e5"), E("e6"), E("e7m16"), E("e8"), E("e9"), E("e12"))
    found = find_compact(der, d_required=-1)
    assert found == vec_add(E("e5"), vec_scale(2, E("e12")))
    # without the constraint the first compact candidate appears earlier
    found_any = find_compact(der)
    assert found_any == vec_add(E("e5"), E("e12"))
    assert classify_element(wave15, found_any) == COMPACT_SEMISIMPLE


def test_find_compact_analyses_each_element_once(wave15, monkeypatch):
    import lieembed.liecore as liecore
    L = LieAlgebra.from_json(wave15.to_json(), name="wave15-copy")  # cold cache
    E = L.basis_vector
    analysed = []
    min_poly = liecore.min_poly
    monkeypatch.setattr(liecore, "min_poly",
                        lambda m: analysed.append(m) or min_poly(m))
    der = span(L, E("e5"), E("e6"), E("e7m16"), E("e8"), E("e9"), E("e12"))
    assert find_compact(der, d_required=-1) == vec_add(E("e5"), vec_scale(2, E("e12")))
    assert analysed and len(analysed) == len(set(analysed))
    # every candidate of a repeated search is already analysed
    seen = len(analysed)
    assert find_compact(der) == vec_add(E("e5"), E("e12"))
    assert len(analysed) == seen
    cd = embed_compact_torus(L, span(L, E("e15")))
    assert cd.cartan.dim == 3
    assert len(analysed) == len(set(analysed))


# --- maximal compact ---------------------------------------------------------------

def test_maximal_compact_split_wave(wave15):
    E = wave15.basis_vector
    U = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))
    result, torus, cd, _ = embed_nilpotent(wave15, U)
    rsd = restricted_roots(normalizer(wave15, result), [E("e7m16"), E("e2")])
    K = maximal_compact_split(wave15, cd, rsd)
    k1 = [vec_add(E("e1"), vec_add(vec_scale(2, E("e10")), vec_scale(-2, E("e14")))),
          vec_add(E("e3"), vec_add(vec_scale(2, E("e11")), vec_scale(2, E("e13")))),
          vec_add(vec_scale(-4, E("e5")), vec_add(vec_scale(-8, E("e12")),
                                                  vec_scale(8, E("e15"))))]
    k2 = [vec_add(E("e1"), vec_add(vec_scale(2, E("e10")), vec_scale(2, E("e14")))),
          vec_add(vec_scale(-1, E("e3")), vec_add(vec_scale(-2, E("e11")),
                                                  vec_scale(2, E("e13")))),
          vec_add(vec_scale(-4, E("e5")), vec_add(vec_scale(-8, E("e12")),
                                                  vec_scale(-8, E("e15"))))]
    circle = vec_add(vec_scale(4, E("e8")), E("e9"))
    assert K == Subspace(wave15, k1 + k2 + [circle])
    assert K.dim == 7 == killing_signature(wave15)[1]
    assert restricted_killing_signature(K) == (0, 7, 0)


def test_maximal_compact_split_g2(g2):
    X = g2.basis_vector
    U = span(g2, X("X14"), X("X13"), X("X12"))
    result, torus, cd, _ = embed_nilpotent(g2, U)
    rsd = restricted_roots(result, [X("X6"), X("X8")])
    K = maximal_compact_split(g2, cd, rsd)
    assert K.dim == 6 == killing_signature(g2)[1]
    assert killing_signature(K) == (0, 6, 0)


def test_maximal_compact_split_sl2(sl2):
    X, Y, H = (sl2.basis_vector(n) for n in ("X", "Y", "H"))
    result, torus, cd, _ = embed_nilpotent(sl2, span(sl2, X))
    rsd = restricted_roots(Subspace.full(sl2), [H])
    K = maximal_compact_split(sl2, cd, rsd)
    assert K.dim == 1
    # the positive root space is <X>, the opposite <Y>, and the triple is
    # (X, Y, H) itself, so the circle is X - Y
    assert K == span(sl2, vec_sub(X, Y))


def test_maximal_compact_split_rejects_compact_algebra(so4):
    E = so4.basis_vector
    torus, cd, _ = embed_real_torus(so4, Subspace.zero(so4))
    from lieembed.rootsys import root_space_decomposition
    rsd = root_space_decomposition(so4, [E("e1"), E("e6")])
    with pytest.raises(NotSplit):
        maximal_compact_split(so4, cd, rsd)


# --- trace replay / iteration bounds ------------------------------------------------

def test_traces_replay(wave15, g2, so22):
    E, X = wave15.basis_vector, g2.basis_vector
    runs = [
        embed_nilpotent(wave15, span(wave15, E("e8"), E("e10"), E("e11"), E("e12")))[3],
        embed_nilpotent(g2, span(g2, X("X14"), X("X13"), X("X12")))[3],
        embed_abelian_nilpotent(wave15, span(wave15, vec_add(E("e8"), E("e10"))))[1],
        embed_real_torus(so22, span(so22, so22.basis_vector("e2")))[2],
    ]
    for trace in runs:
        assert len(trace.steps) <= trace.algebra.dim
        replayed = trace.replay()
        assert all(replayed.contains(v) for s in trace.steps for v in s.adjoined)


# --- Killing-sign screen of the candidate search ----------------------------------

def _rebased_so(p, q, rng):
    L = so_pq_generators(p, q)
    return LieAlgebra(L.dim, L.basis_names, _table_in_basis(L, _dense_basis(L, rng)),
                      name=f"rebased so({p},{q})")


def _rand_rational_element(L, rng):
    v = [F(0)] * L.dim
    for i in rng.sample(range(L.dim), rng.randint(1, min(4, L.dim))):
        v[i] = F(rng.randint(-3, 3), rng.randint(1, 2))
    return tuple(v)


def test_killing_norm_sign_of_real_and_compact_elements(wave15, wave16, g2):
    """B(v,v) = tr(ad v)^2 is the sum of the squared eigenvalues: positive
    for a real-semisimple element, negative for a compact one."""
    rng = random.Random(9090)
    algebras = [wave15, wave16, g2] + [_rebased_so(p, q, rng)
                                       for p, q in ((2, 2), (1, 3), (4, 0))]
    seen = {COMPACT_SEMISIMPLE: 0, REAL_SEMISIMPLE: 0}
    for L in algebras:
        elements = [L.basis_vector(i) for i in range(L.dim)]
        elements += [_rand_rational_element(L, rng) for _ in range(12)]
        for v in elements:
            try:
                kind = classify_element(L, v)
            except ExtensionDegreeTooHigh:
                continue
            if kind == COMPACT_SEMISIMPLE:
                assert L.killing(v, v) < 0
            elif kind == REAL_SEMISIMPLE:
                assert L.killing(v, v) > 0
            else:
                continue
            seen[kind] += 1
    assert min(seen.values()) >= 15


def _ref_find_real_semisimple(sub, budget, seed=0):
    """find_real_semisimple before the Killing-sign screen: every nonzero
    candidate is classified."""
    L = sub.algebra
    for v in _candidates(sub, budget, seed):
        if vec_is_zero(v):
            continue
        try:
            if classify_element(L, v) == REAL_SEMISIMPLE:
                return v
        except ExtensionDegreeTooHigh:
            continue
    raise NoRealSemisimpleFound(
        f"no real-semisimple element in a {sub.dim}-dim subspace "
        f"within budget {budget}")


def _ref_find_compact(sub, d_required, budget, seed=0):
    """find_compact before the Killing-sign screen."""
    L = sub.algebra
    for v in _candidates(sub, budget, seed):
        if vec_is_zero(v):
            continue
        try:
            if classify_element(L, v) != COMPACT_SEMISIMPLE:
                continue
        except ExtensionDegreeTooHigh:
            continue
        ds = spectrum(L, v).extensions
        if len(ds) > 1:
            continue
        if d_required is not None and ds and ds != {d_required}:
            continue
        return v
    raise NoCompactFound(
        f"no compatible compact element in a {sub.dim}-dim subspace "
        f"within budget {budget}")


def _outcome(search, *args, **kwargs):
    try:
        return _typed(search(*args, **kwargs))
    except (NoCompactFound, NoRealSemisimpleFound) as exc:
        return type(exc).__name__, str(exc)


def _search_subspaces(wave15, g2):
    """The wave15 compact-torus chain's derived subspaces, the Levi parts of
    the wave15 and g2 nilpotent cases, and so(p,q), as given and rebased."""
    E, X = wave15.basis_vector, g2.basis_vector
    subs = []
    for start in ([E("e15")], [E("e14")], []):
        current = Subspace(wave15, start)
        d_ctx = -1 if start else None
        for _ in range(wave15.dim):
            der = derived_algebra(centralizer(wave15, current))
            if der.dim == 0:
                break
            subs.append(der)
            current = current.with_vectors([find_compact(der, d_required=d_ctx, seed=0)])
    for L, names in ((wave15, ("e8", "e10", "e11", "e12")),
                     (g2, ("X14", "X13", "X12"))):
        U = Subspace(L, [L.basis_vector(b) for b in names])
        subs.append(levi_decomposition(normalizer(L, U)).levi)
    subs.append(Subspace.full(g2))
    # sl(2) and so(3) with constants over 10: Killing norms of the basis in (-1, 1)
    for table in ({(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}},
                  {(0, 1): {2: 1}, (1, 2): {0: 1}, (0, 2): {1: -1}}):
        small = {ij: {k: F(c, 10) for k, c in comp.items()} for ij, comp in table.items()}
        subs.append(Subspace.full(LieAlgebra(3, ["a", "b", "c"], small)))
    rng = random.Random(9091)
    for p, q in ((2, 2), (1, 3), (4, 0)):
        subs.append(Subspace.full(so_pq_generators(p, q)))
        subs.append(Subspace.full(_rebased_so(p, q, rng)))
    return subs


def test_screened_searches_match_unscreened_reference(wave15, g2):
    """Same vector, or the same error after the same number of candidates,
    with and without d_required; also with the budget cut just before and
    just after the reference's answer."""
    subs = _search_subspaces(wave15, g2)
    assert len(subs) >= 12
    found = 0
    for sub in subs:
        searches = [(find_real_semisimple, _ref_find_real_semisimple, {})]
        searches += [(find_compact, _ref_find_compact, {"d_required": d})
                     for d in (None, -1, -3, 2)]
        for search, ref, kw in searches:
            want = _outcome(ref, sub, budget=150, **kw)
            assert _outcome(search, sub, budget=150, seed=0, **kw) == want
            if isinstance(want, tuple):
                continue
            found += 1
            pos = next(i for i, v in enumerate(_candidates(sub, 150, 0))
                       if _typed(v) == want)
            for budget in (pos, pos + 1):
                assert (_outcome(search, sub, budget=budget, seed=0, **kw) ==
                        _outcome(ref, sub, budget=budget, **kw))
    assert found >= 15


def test_classification_reached_only_by_candidates_of_the_right_sign(wave15,
                                                                     monkeypatch):
    import lieembed.embed as embed
    L = LieAlgebra.from_json(wave15.to_json(), name="wave15-copy")  # cold cache
    E = L.basis_vector
    reached = []
    monkeypatch.setattr(embed, "classify_element",
                        lambda L_, v: reached.append(v) or classify_element(L_, v))
    der = span(L, E("e5"), E("e6"), E("e7m16"), E("e8"), E("e9"), E("e12"))
    levi = span(L, E("e2"), E("e4"), E("e6"), E("e13"), E("e14"), E("e15"))
    for search, sub, sign in ((find_compact, der, -1),
                              (find_real_semisimple, levi, 1),
                              (find_real_semisimple, der, 1)):
        reached.clear()
        found = search(sub, seed=0)
        tried = []
        for v in _candidates(sub, 10_000, 0):
            tried.append(v)
            if v == found:
                break
        right_sign = [v for v in tried if sign * L.killing(v, v) > 0]
        assert reached == right_sign
        assert len(reached) < len(tried) or len(tried) == 1
    assert len(tried) > 1  # the third search screens candidates out


def test_embed_nilpotent_reuses_the_last_passes_normalizer(wave15, g2, monkeypatch):
    """One normalizer and one Levi decomposition per loop pass, none after
    the loop; the results and traces are the ones pinned below."""
    import lieembed.embed as embed
    calls = []
    real_nm, real_ld = embed.normalizer, embed.levi_decomposition
    monkeypatch.setattr(embed, "normalizer",
                        lambda L, sub: calls.append(("nm", sub)) or real_nm(L, sub))
    monkeypatch.setattr(embed, "levi_decomposition",
                        lambda sub: calls.append(("ld", sub)) or real_ld(sub))
    cases = [
        (wave15, ("e8", "e10", "e11", "e12"),
         [("3.3/step4-eigenvector", ["e4-e15", "e6-e13"], 6)],
         "<e4-e15, e6-e13, e8, e10, e11, e12> <e2, e7m16> <e2, e7m16, e14>"),
        (g2, ("X14", "X13", "X12"),
         [("3.3/step2-adjoin-derived", ["X9", "X11"], 5),
          ("3.3/step4-eigenvector", ["X5"], 6)],
         "<X5, X9, X11, X12, X13, X14> <X6, X8> <X6, X8>"),
    ]
    for L, names, steps, pinned in cases:
        calls.clear()
        U = Subspace(L, [L.basis_vector(b) for b in names])
        result, torus, cd, trace = embed_nilpotent(L, U)
        assert [(s.rule, [L.format_element(v) for v in s.adjoined], s.dim_after)
                for s in trace.steps] == steps
        assert f"{result} {torus} {cd.cartan}" == pinned
        passes = len(trace.steps) + 1
        assert [kind for kind, _ in calls] == ["nm", "ld"] * passes
        assert calls[-2][1] == result  # the last pass already saw the result
