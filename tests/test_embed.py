"""Embedding procedures: tori, abelian and general nilpotent algebras,
maximal compact construction, canonical element search."""

from fractions import Fraction as F

import pytest

from lieembed.errors import (NoRealSemisimpleFound, NotATorus,
                             NotAbelianNilpotent, NotNilpotent, NotSplit)
from lieembed.exactlin import vec_add, vec_is_zero, vec_scale, vec_sub
from lieembed.liecore import (COMPACT_SEMISIMPLE, NILPOTENT, REAL_SEMISIMPLE,
                              LieAlgebra, Subspace, centralizer,
                              classify_element,
                              is_ad_nilpotent, killing_signature, normalizer,
                              restricted_killing_signature,
                              subalgebra_generated)
from lieembed.rootsys import restricted_roots
from lieembed.embed import (embed_abelian_nilpotent, embed_compact_torus,
                            embed_nilpotent, embed_real_torus, find_compact,
                            find_real_semisimple, maximal_compact_split)


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
