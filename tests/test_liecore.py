"""Structural operations: brackets, Killing data, centralizers, radicals,
Levi and Jordan decompositions, element classification."""

import functools
import json
import random
import re
from importlib import resources
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieembed.errors import (CenterObstruction, ExtensionDegreeTooHigh,
                             InvalidStructureConstants, NotASubalgebra,
                             NotATorus)
from lieembed.exactlin import (factor_roots, make_scalar, scalar_parts,
                               symmetric_signature, unit_vector, vec_is_zero,
                               _scaled_vector, _unscaled_vector)
from lieembed.liecore import (COMPACT_SEMISIMPLE, GENERAL, MIXED_SEMISIMPLE,
                              NILPOTENT, REAL_SEMISIMPLE, LieAlgebra, Subspace,
                              center, centralizer, classify_element,
                              derived_algebra, is_ad_nilpotent,
                              is_negative_definite, jordan_decomposition,
                              killing_signature, levi_decomposition,
                              normalizer, radical, restricted_killing_signature,
                              spectrum, subalgebra_generated, torus_split)
from matrixops import ad, kernel, killing_matrix, scaled, solve_linear
from polyref import QMatrix, QPoly, is_squarefree, poly_gcd
from test_exactlin import _perfbench_module, _reference_rref_rows


def span(L, *vs):
    return Subspace(L, vs)


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def kept_entries(L, kind):
    """The keys, less their kind, of the results of that kind L keeps."""
    return [key[1:] for key in L._store if key[0] == kind]


def _rand_element(L, rng, support=3, lo=-2, hi=2):
    v = [F(0)] * L.dim
    for i in rng.sample(range(L.dim), min(support, L.dim)):
        v[i] = F(rng.randint(lo, hi))
    return tuple(v)


# --- brackets and ad ----------------------------------------------------------

def test_from_json_component_keys_are_canonical_integers():
    """A key that is not the decimal text of its index would alias another
    key ("01", " 1", "+1" all read as 1) and is rejected; so are a decimal
    fraction, a non-ASCII digit and a "c" that is not an object."""
    def table(c):
        return {"dim": 2, "basis": ["a", "b"], "brackets": [{"i": 0, "j": 1, "c": c}]}

    assert LieAlgebra.from_json(table({"1": "2"})).brackets == {(0, 1): {1: F(2)}}
    for key in (" 1", "01", "+1", "-0", "1.5", "1 ", "\u0661", ""):
        with pytest.raises(ValueError, match="canonical decimal integers"):
            LieAlgebra.from_json(table({key: "1"}))
    with pytest.raises(ValueError, match="must be an object, got list"):
        LieAlgebra.from_json(table(["1"]))
    with pytest.raises(InvalidStructureConstants, match="component index -1"):
        LieAlgebra.from_json(table({"-1": "1"}))


def test_bracket_wave_appendix_entry(wave15):
    e1, e2 = wave15.basis_vector("e1"), wave15.basis_vector("e2")
    e9 = wave15.basis_vector("e9")
    assert wave15.bracket(e1, e2) == vec_scale(F(-1, 2), e9)


def test_bracket_antisymmetry_on_elements(wave15):
    rng = random.Random(0)
    for _ in range(20):
        x, y = _rand_element(wave15, rng), _rand_element(wave15, rng)
        assert wave15.bracket(x, y) == vec_scale(-1, wave15.bracket(y, x))
        assert vec_is_zero(wave15.bracket(x, x))


def test_bracket_g2_appendix_entry(g2):
    x2, x5 = g2.basis_vector("X2"), g2.basis_vector("X5")
    assert g2.bracket(x2, x5) == vec_scale(4, g2.basis_vector("X1"))


def test_ad_zero_and_nilpotent_translation(wave15):
    assert ad(wave15, tuple([F(0)] * 15)).is_zero()
    assert is_ad_nilpotent(wave15, wave15.basis_vector("e8"))


def test_ad_diagonal_on_g2_pair(g2):
    h = vec_add(g2.basis_vector("X8"), g2.basis_vector("X6"))
    x5, x10 = g2.basis_vector("X5"), g2.basis_vector("X10")
    assert g2.bracket(h, x5) == vec_scale(2, x5)
    assert g2.bracket(h, x10) == vec_scale(-2, x10)


# --- Killing form ---------------------------------------------------------------

def test_killing_abelian_is_zero():
    ab = LieAlgebra(2, ["a", "b"], {})
    assert killing_matrix(ab).is_zero()
    assert killing_signature(ab) == (0, 0, 2)


def test_zero_dimensional_algebra_has_0x0_matrices():
    L = LieAlgebra(0, [], {})
    assert ad(L, ()) == killing_matrix(L) == QMatrix([])
    assert (ad(L, ()).rows, ad(L, ()).cols) == (0, 0)


def test_killing_so3(so3):
    assert killing_matrix(so3) == QMatrix([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])
    assert killing_signature(so3) == (0, 3, 0)


def test_killing_g2_nondegenerate(g2):
    assert symmetric_signature(scaled(killing_matrix(g2)))[3] != 0


def test_killing_signature_wave(wave15):
    assert killing_signature(wave15) == (8, 7, 0)


def test_killing_invariance_random_triples(wave15):
    rng = random.Random(1)
    for _ in range(200):
        x, y, z = (_rand_element(wave15, rng) for _ in range(3))
        lhs = wave15.killing(wave15.bracket(x, y), z)
        rhs = wave15.killing(x, wave15.bracket(y, z))
        assert lhs == rhs


def test_negative_definite(wave15):
    rot = span(wave15, *(wave15.basis_vector(n) for n in ("e15", "e14", "e13")))
    assert is_negative_definite(rot)
    sl2_like = span(wave15, *(wave15.basis_vector(n) for n in ("e7m16", "e8", "e9")))
    assert not is_negative_definite(sl2_like)
    assert is_negative_definite(Subspace.zero(wave15))


# --- derived / centralizer / normalizer / center --------------------------------

def test_derived_abelian_and_perfect(so3):
    ab = LieAlgebra(2, ["a", "b"], {})
    assert derived_algebra(Subspace.full(ab)).dim == 0
    assert derived_algebra(Subspace.full(so3)) == Subspace.full(so3)


def test_derived_of_g2_radical(g2):
    X = g2.basis_vector
    nu = normalizer(g2, span(g2, X("X14"), X("X13"), X("X12")))
    rad = radical(nu)
    expected_rad = span(g2, X("X9"), vec_sub(X("X8"), vec_scale(3, X("X6"))),
                        X("X14"), X("X13"), X("X12"), X("X11"))
    assert rad == expected_rad
    der = derived_algebra(rad)
    assert der == span(g2, X("X9"), X("X14"), X("X13"), X("X12"), X("X11"))


def test_centralizer_examples(wave15, g2):
    E = wave15.basis_vector
    rot = span(wave15, E("e15"), E("e14"), E("e13"))
    assert centralizer(wave15, rot) == span(wave15, E("e7m16"), E("e8"), E("e9"))
    assert centralizer(wave15, Subspace.zero(wave15)) == Subspace.full(wave15)

    X = g2.basis_vector
    J1 = vec_add(X("X5"), X("X10"))
    J2 = vec_sub(X("X4"), X("X11"))
    K = subalgebra_generated(g2, [J1, J2])
    J5 = vec_add(X("X3"), vec_scale(F(3, 4), X("X12")))
    assert centralizer(g2, span(g2, J1), within=K) == span(g2, J1, J5)


def test_normalizer_examples(wave15):
    E = wave15.basis_vector
    U = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))
    nu = normalizer(wave15, U)
    assert nu.dim == 11
    expected = span(wave15, E("e2"), E("e4"), E("e6"), E("e7m16"), E("e8"),
                    E("e10"), E("e11"), E("e12"), E("e13"), E("e14"), E("e15"))
    assert nu == expected
    ut = U.with_vectors([vec_sub(E("e4"), E("e15")), vec_sub(E("e6"), E("e13"))])
    nut = normalizer(wave15, ut)
    assert nut == ut.with_vectors([E("e2"), E("e7m16"), E("e14")])
    assert normalizer(wave15, Subspace.full(wave15)) == Subspace.full(wave15)


def test_centralizer_inside_normalizer(wave15):
    rng = random.Random(2)
    E = wave15.basis_vector
    for sub in (span(wave15, E("e8"), E("e10")),
                span(wave15, E("e2"), E("e7m16")),
                span(wave15, E("e13"), E("e14"), E("e15"))):
        zc, nm = centralizer(wave15, sub), normalizer(wave15, sub)
        assert nm.contains_subspace(zc)


def test_center(sl2, so3):
    ab = LieAlgebra(2, ["a", "b"], {})
    assert center(Subspace.full(ab)) == Subspace.full(ab)
    assert center(Subspace.full(so3)).dim == 0
    assert center(Subspace.full(sl2)).dim == 0


# --- radical / Levi --------------------------------------------------------------

def test_radical_semisimple_and_solvable(wave15):
    assert radical(wave15).dim == 0
    sol = LieAlgebra(2, ["h", "x"], {(0, 1): {1: 1}})
    assert radical(sol) == Subspace.full(sol)


def test_levi_wave_normalizer(wave15):
    E = wave15.basis_vector
    U = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))
    ld = levi_decomposition(normalizer(wave15, U))
    assert ld.radical == U.with_vectors([E("e7m16")])
    assert ld.levi == span(wave15, E("e2"), E("e4"), E("e6"),
                           E("e13"), E("e14"), E("e15"))
    assert ld.levi.is_subalgebra()
    assert ld.radical.dim + ld.levi.dim == 11


def test_levi_g2_normalizer(g2):
    X = g2.basis_vector
    nu = normalizer(g2, span(g2, X("X14"), X("X13"), X("X12")))
    ld = levi_decomposition(nu)
    assert ld.levi == span(g2, vec_add(X("X8"), X("X6")), X("X5"), X("X10"))
    assert ld.radical.dim == 6


def test_levi_semisimple_input(sl2):
    ld = levi_decomposition(Subspace.full(sl2))
    assert ld.radical.dim == 0 and ld.levi == Subspace.full(sl2)


def test_radical_and_levi_derive_the_series_once(wave16, g2, monkeypatch):
    """radical and levi_decomposition of one subspace share one derived
    series, kept on the algebra: an algebra argument is its full subspace."""
    import lieembed.liecore as liecore
    derived = []
    real = liecore.derived_algebra
    monkeypatch.setattr(liecore, "derived_algebra",
                        lambda sub: derived.append(sub) or real(sub))
    L = LieAlgebra.from_json(wave16.to_json())
    M = LieAlgebra.from_json(g2.to_json())
    X = M.basis_vector
    for obj, full, steps in ((L, Subspace.full(L), 1),
                             (normalizer(M, span(M, X("X14"), X("X13"), X("X12"))), None, 3)):
        derived.clear()
        rad = radical(obj)
        assert len(derived) == steps
        ld = levi_decomposition(full or obj)
        assert len(derived) == steps and ld.radical == rad
    assert kept_entries(L, "series") == [(Subspace.full(L),)]


def test_kept_radical_series_is_not_the_returned_list(wave16):
    from lieembed.liecore import _radical_series
    L = LieAlgebra.from_json(wave16.to_json())
    first = _radical_series(L)
    want = list(first)
    first.clear()
    assert _radical_series(Subspace.full(L)) == want


def test_a_failing_radical_series_raises_on_every_call(sl2):
    L = LieAlgebra.from_json(sl2.to_json())
    X = L.basis_vector
    for _ in range(2):
        with pytest.raises(NotASubalgebra):
            radical(span(L, X("X"), X("Y")))
        assert kept_entries(L, "series") == []


def test_copies_of_an_algebra_keep_their_own_radical_series(wave16):
    L1, L2 = (LieAlgebra.from_json(wave16.to_json()) for _ in range(2))
    rad = radical(L1)
    assert kept_entries(L2, "series") == []
    assert radical(L2).algebra is L2 and rad.algebra is L1
    assert radical(L2).to_json() == rad.to_json()


def test_levi_nontrivial_lift():
    # 2d abelian ideal acted on by sl2 is not complemented by coordinates:
    # basis (X, H, Y, a, b) with sl2 acting on <a, b> as the standard rep,
    # written in a skewed frame so the canonical complement needs lifting
    brackets = {
        (0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2},   # sl2
        (0, 4): {3: 1},             # [X, b] = a
        (1, 3): {3: 1, 4: 0},       # [H, a] = a
        (1, 4): {4: -1},            # [H, b] = -b
        (2, 3): {4: 1},             # [Y, a] = b
    }
    L = LieAlgebra(5, ["X", "H", "Y", "a", "b"], brackets)
    # skew: replace X by X + a in the spanning set of the full algebra
    full = Subspace(L, [vec_add(L.basis_vector("X"), L.basis_vector("a")),
                        L.basis_vector("H"), L.basis_vector("Y"),
                        L.basis_vector("a"), L.basis_vector("b")])
    ld = levi_decomposition(full)
    assert ld.radical == span(L, L.basis_vector("a"), L.basis_vector("b"))
    assert ld.levi.is_subalgebra() and ld.levi.dim == 3
    assert killing_signature(ld.levi) == (2, 1, 0)


def _ref_levi(sub):
    """levi_decomposition as it ran on Fraction tuples: a linear_solver
    for the quotient's structure constants, Fraction lifting equations and
    corrections, one solve_linear per stage."""
    from matrixops import linear_solver
    L = sub.algebra
    rad = radical(sub)
    if rad.dim in (0, sub.dim):
        return rad, sub if rad.dim == 0 else Subspace.zero(L)
    xs = [tuple(r) for r in rad.complement_in(sub).rows]
    s_dim = len(xs)
    _, solve = linear_solver(QMatrix.from_columns(xs + list(rad.rows)))
    c_table = {(i, j): solve(L.bracket(xs[i], xs[j]))[:s_dim]
               for i in range(s_dim) for j in range(i + 1, s_dim)}
    series = [rad]
    while series[-1].dim > 0:
        series.append(derived_algebra(series[-1]))
    for Rj, Rj1 in zip(series, series[1:]):
        r_basis, nr = list(Rj.rows), Rj.dim
        w_red = [Rj1.reduce(w) for w in r_basis]
        rows_eq, rhs = [], []
        for (i, j), c in c_table.items():
            defect = L.bracket(xs[i], xs[j])
            for k, ck in enumerate(c):
                defect = vec_sub(defect, vec_scale(ck, xs[k]))
            defect_mod = Rj1.reduce(defect)
            col_j = [Rj1.reduce(L.bracket(xs[i], w)) for w in r_basis]
            col_i = [Rj1.reduce(vec_scale(-1, L.bracket(xs[j], w))) for w in r_basis]
            for row in range(L.dim):
                eq = [F(0)] * (s_dim * nr)
                for a in range(nr):
                    eq[i * nr + a] += col_i[a][row]
                    eq[j * nr + a] += col_j[a][row]
                    for k, ck in enumerate(c):
                        eq[k * nr + a] -= ck * w_red[a][row]
                if defect_mod[row] or any(eq):
                    rows_eq.append(eq)
                    rhs.append(-defect_mod[row])
        if rows_eq:
            sol = solve_linear(QMatrix(rows_eq), tuple(rhs))
            for i in range(s_dim):
                for a, w in enumerate(r_basis):
                    xs[i] = vec_add(xs[i], vec_scale(sol[i * nr + a], w))
    return rad, Subspace(L, xs)


def _sl2_semidirect(radical_table, rng):
    """sl2 + R with sl2 = (X, H, Y) acting on R = (a, b, z) as the standard
    representation on (a, b) and trivially on z, R's own brackets from
    ``radical_table``, written in a dense random basis."""
    brackets = {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2},
                (0, 4): {3: 1}, (1, 3): {3: 1}, (1, 4): {4: -1}, (2, 3): {4: 1},
                **radical_table}
    L = LieAlgebra(6, ["X", "H", "Y", "a", "b", "z"], brackets)
    return LieAlgebra(6, L.basis_names, _table_in_basis(L, _dense_basis(L, rng)))


def test_levi_lifting_matches_fraction_reference(wave15, g2, so13):
    """Nontrivial lifts, one stage (abelian radical) and two (a Heisenberg
    radical, [a, b] = z), in dense bases where the canonical complement is
    far from a subalgebra, and the embeds' normalizers and centralizers."""
    rng = random.Random(7400)
    E, X = wave15.basis_vector, g2.basis_vector
    cases = [normalizer(wave15, span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))),
             normalizer(g2, span(g2, X("X14"), X("X13"), X("X12"))),
             centralizer(wave15, span(wave15, E("e14"))),
             centralizer(so13, span(so13, so13.basis_vector("e1")))]
    for table in ({}, {(3, 4): {5: 1}}) * 3:
        cases.append(Subspace.full(_sl2_semidirect(table, rng)))
    lifted = set()
    for sub in cases:
        got, (rad, levi) = levi_decomposition(sub), _ref_levi(sub)
        assert got.radical == rad
        assert [_typed(r) for r in got.levi.rows] == [_typed(r) for r in levi.rows]
        if got.levi != rad.complement_in(sub):
            lifted.add(sum(1 for r in (rad, derived_algebra(rad)) if r.dim))
    assert lifted == {1, 2}  # lifts through one stage and through two


# --- Jordan decomposition ---------------------------------------------------------

def test_jordan_pure_cases(wave15):
    E = wave15.basis_vector
    pair = jordan_decomposition(wave15, E("e8"))
    assert vec_is_zero(pair.semisimple) and pair.nilpotent == E("e8")
    pair = jordan_decomposition(wave15, E("e7m16"))
    assert pair.semisimple == E("e7m16") and vec_is_zero(pair.nilpotent)
    assert not pair.center_obstructed


def test_jordan_mixed_commuting(wave15):
    E = wave15.basis_vector
    x = vec_add(E("e2"), E("e11"))
    assert vec_is_zero(wave15.bracket(E("e2"), E("e11")))
    pair = jordan_decomposition(wave15, x)
    assert pair.semisimple == E("e2")
    assert pair.nilpotent == E("e11")
    # matrix-level check: ad splits accordingly
    assert ad(wave15, pair.semisimple) + ad(wave15, pair.nilpotent) == ad(wave15, x)


def test_jordan_invariants_random(wave15, g2):
    from lieembed.exactlin import min_poly
    rng = random.Random(5)
    for L in (wave15, g2):
        for _ in range(50):
            x = _rand_element(L, rng)
            pair = jordan_decomposition(L, x)
            assert vec_add(pair.semisimple, pair.nilpotent) == x
            assert vec_is_zero(L.bracket(pair.semisimple, pair.nilpotent))
            assert is_ad_nilpotent(L, pair.nilpotent)
            # squarefree minimal polynomial certifies ad-semisimplicity
            # without factoring (eigenvalues may leave the quadratic tower)
            assert is_squarefree(min_poly(scaled(ad(L, pair.semisimple))))


def test_jordan_step_builds_one_ad_block(wave15, monkeypatch):
    """The Jordan step's spectrum comes from the ad block its Horner pass
    reads: one Subspace.ad_block per call, on a cold element as on a warm
    one, and the spectrum is kept."""
    L = LieAlgebra.from_json(wave15.to_json(), name="wave15")  # cold cache
    E = L.basis_vector
    blocks = []
    real = Subspace.ad_block
    monkeypatch.setattr(Subspace, "ad_block",
                        lambda self, cols: blocks.append(cols) or real(self, cols))
    x = vec_add(E("e2"), E("e11"))
    for _ in range(2):
        blocks.clear()
        assert jordan_decomposition(L, x).semisimple == E("e2")
        assert len(blocks) == 1
    assert kept_entries(L, "spectrum") == [(x,)]


def test_jordan_center_flag():
    heis = LieAlgebra(3, ["x", "y", "z"], {(0, 1): {2: 1}})
    pair = jordan_decomposition(heis, heis.basis_vector("x"))
    assert pair.center_obstructed


# --- classification ---------------------------------------------------------------

def test_classify_examples(wave15, g2):
    E, X = wave15.basis_vector, g2.basis_vector
    assert classify_element(wave15, E("e2")) == REAL_SEMISIMPLE
    assert classify_element(wave15, E("e14")) == COMPACT_SEMISIMPLE
    assert classify_element(wave15, E("e8")) == NILPOTENT
    assert classify_element(g2, vec_add(X("X5"), X("X10"))) == COMPACT_SEMISIMPLE
    # commuting semisimple + nilpotent pieces: not semisimple, not nilpotent
    assert classify_element(wave15, vec_add(E("e2"), E("e11"))) == GENERAL
    mixed = vec_add(E("e2"), vec_add(E("e7m16"), E("e14")))
    assert classify_element(wave15, mixed) == MIXED_SEMISIMPLE


def test_classify_same_with_cold_and_warm_spectrum_cache(wave15, monkeypatch):
    import lieembed.liecore as liecore
    L = LieAlgebra.from_json(wave15.to_json(), name="wave15-copy")  # cold cache
    rng = random.Random(1)
    elements = ([L.basis_vector(i) for i in range(L.dim)] +
                [_rand_element(L, rng) for _ in range(60)])

    def outcome(x):
        try:
            return classify_element(L, x)
        except ExtensionDegreeTooHigh as exc:
            return f"raises: {exc}"

    cold = [outcome(x) for x in elements]
    assert {NILPOTENT, GENERAL, REAL_SEMISIMPLE, COMPACT_SEMISIMPLE,
            MIXED_SEMISIMPLE} <= set(cold)
    assert sum(o.startswith("raises") for o in cold) >= 5
    analysed = []
    monkeypatch.setattr(liecore, "min_poly", lambda block: analysed.append(block))
    assert [outcome(x) for x in elements] == cold
    assert analysed == []


# --- generation / torus split ------------------------------------------------------

def test_subalgebra_generated(so4, g2):
    E = so4.basis_vector
    u1 = vec_sub(E("e2"), E("e5"))
    v1 = vec_add(E("e3"), E("e4"))
    gen = subalgebra_generated(so4, [u1, v1])
    assert gen.dim == 3
    assert so4.bracket(u1, v1) == vec_scale(-2, vec_add(E("e1"), E("e6")))

    X = g2.basis_vector
    K = subalgebra_generated(g2, [vec_add(X("X5"), X("X10")),
                                  vec_sub(X("X4"), X("X11"))])
    assert K.dim == 6

    single = subalgebra_generated(so4, [E("e1")])
    assert single.dim == 1


def test_torus_split_examples(wave15, so4):
    E = wave15.basis_vector
    T = span(wave15, E("e2"), E("e7m16"), E("e14"))
    real, compact = torus_split(wave15, T)
    assert real == span(wave15, E("e2"), E("e7m16"))
    assert compact == span(wave15, E("e14"))

    real, compact = torus_split(wave15, span(wave15, E("e2"), E("e7m16")))
    assert real.dim == 2 and compact.dim == 0

    e = so4.basis_vector
    real, compact = torus_split(so4, span(so4, e("e1"), e("e6")))
    assert real.dim == 0 and compact.dim == 2


def test_torus_split_rejects_non_torus(wave15):
    E = wave15.basis_vector
    with pytest.raises(NotATorus, match="subspace is not abelian"):
        torus_split(wave15, span(wave15, E("e2"), E("e4")))
    with pytest.raises(NotATorus, match="element e8 is not semisimple"):
        torus_split(wave15, span(wave15, E("e8")))


# --- invariants ----------------------------------------------------------------

def test_jacobi_validated_on_load():
    with pytest.raises(ValueError, match="Jacobi"):
        LieAlgebra(3, ["a", "b", "c"],
                   {(0, 1): {2: 1}, (0, 2): {0: 1}, (1, 2): {1: 1}})


@pytest.mark.parametrize("brackets,match", [
    ({(1, 0): {0: 1}}, "bad bracket index pair"),
    ({(0, 2): {0: 1}}, "bad bracket index pair"),
    ({(0, 1): {2: 1}}, "component index 2"),
    ({(0, 1): {-1: 1}}, "component index -1"),
])
def test_table_indices_validated(brackets, match):
    with pytest.raises(InvalidStructureConstants, match=match):
        LieAlgebra(2, ["a", "b"], brackets)


def _jacobi_reference(n, brackets):
    """First basis triple i < j < k failing Jacobi, by the plain Fraction
    definition; None if the identity holds."""
    def basis_bracket(a, b):
        if a < b:
            return brackets.get((a, b), {})
        return {k: -c for k, c in brackets.get((b, a), {}).items()}

    def bracket(x, y):
        out = {}
        for a, xa in x.items():
            for b, yb in y.items():
                if a != b:
                    for k, c in basis_bracket(a, b).items():
                        out[k] = out.get(k, F(0)) + xa * yb * c
        return out

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                ei, ej, ek = {i: F(1)}, {j: F(1)}, {k: F(1)}
                total = {}
                for term in (bracket(ei, bracket(ej, ek)),
                             bracket(ej, bracket(ek, ei)),
                             bracket(ek, bracket(ei, ej))):
                    for m, c in term.items():
                        total[m] = total.get(m, F(0)) + c
                if any(total.values()):
                    return i, j, k
    return None


def _dense_rebased(L, rng):
    """Table of L in a random dense basis (see :func:`_dense_basis`)."""
    return _table_in_basis(L, _dense_basis(L, rng))


def _dense_basis(L, rng):
    """Basis f_a = s_a * sum_b P[a][b] e_b of L, with P unit lower times
    unit upper (entries -1, 0, 1) and s_a in {1, 2, 1/3}."""
    n = L.dim
    lo = [[1 if a == b else rng.choice((-1, 0, 1)) if a > b else 0
           for b in range(n)] for a in range(n)]
    up = [[1 if a == b else rng.choice((-1, 0, 1)) if a < b else 0
           for b in range(n)] for a in range(n)]
    scales = [rng.choice((F(1), F(2), F(1, 3))) for _ in range(n)]
    return [tuple(scales[a] * sum(lo[a][t] * up[t][b] for t in range(n))
                  for b in range(n)) for a in range(n)]


def _table_in_basis(L, f):
    """Structure constants of L in the basis f (rows in L's basis)."""
    n = L.dim
    to_f = QMatrix.from_columns(f)
    table = {}
    for a in range(n):
        for b in range(a + 1, n):
            coords = solve_linear(to_f, L.bracket(f[a], f[b]))
            comp = {k: c for k, c in enumerate(coords) if c}
            if comp:
                table[(a, b)] = comp
    return table


def test_jacobi_check_matches_fraction_reference():
    from lieembed.vecfield import so_pq_generators
    rng = random.Random(2024)
    bases = [so_pq_generators(2, 2), so_pq_generators(1, 3),
             so_pq_generators(3, 2)]
    failures = 0
    for trial in range(24):
        L = bases[trial % len(bases)]
        n = L.dim
        names = [f"f{a}" for a in range(n)]
        table = _dense_rebased(L, rng)
        if trial % 3:  # corrupt one entry
            pair = rng.choice([(a, b) for a in range(n) for b in range(a + 1, n)])
            k = rng.randrange(n)
            comp = dict(table.get(pair, {}))
            comp[k] = comp.get(k, F(0)) + F(rng.choice((-3, -1, 1, 2)),
                                            rng.choice((1, 2, 5)))
            table[pair] = comp
        want = _jacobi_reference(n, table)
        if want is None:
            LieAlgebra(n, names, table)
            continue
        failures += 1
        i, j, k = want
        with pytest.raises(InvalidStructureConstants) as info:
            LieAlgebra(n, names, table)
        assert str(info.value) == (f"Jacobi identity fails on basis triple "
                                   f"({names[i]}, {names[j]}, {names[k]})")
    assert failures >= 12


def _jacobi_sums(L):
    """(i, j, k, slots) for every basis triple i < j < k, the slots of the
    Jacobi sum on the scaled table by the dict loop of
    LieAlgebra._check_jacobi before it packed the table rows into ints."""
    n, (_, table) = L.dim, L.scaled_table()
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = [0] * n
                for inner, outer in ((table[j][k], table[i]), (table[k][i], table[j]),
                                     (table[i][j], table[k])):
                    for m, v in inner.items():
                        for l, w in outer[m].items():
                            total[l] += v * w
                yield i, j, k, total


def _ref_check_jacobi(L):
    """The dict-loop check, kept as the reference: the message for the
    first failing basis triple, or None."""
    for i, j, k, total in _jacobi_sums(L):
        if any(total):
            return (f"Jacobi identity fails on basis triple ({L.basis_names[i]}, "
                    f"{L.basis_names[j]}, {L.basis_names[k]})")
    return None


def _packed_verdict(n, table):
    """(packed verdict, dict-loop verdict) of one table: None or the
    message for the first failing triple."""
    L = LieAlgebra(n, [f"f{a}" for a in range(n)], table, validate=False)
    try:
        L._check_jacobi()
        got = None
    except InvalidStructureConstants as exc:
        got = str(exc)
    return got, _ref_check_jacobi(L)


_REBASED_TABLES: list = []


def _rebased_tables(wave15, g2):
    """(dim, table) of wave15, g2, so(2,2), so(1,3) and so(4,0) in a dense
    random basis; built once."""
    if not _REBASED_TABLES:
        from lieembed.vecfield import so_pq_generators
        rng = random.Random(7400)
        for L in (wave15, g2, *(so_pq_generators(p, q) for p, q in ((2, 2), (1, 3), (4, 0)))):
            _REBASED_TABLES.append((L.dim, _dense_rebased(L, rng)))
    return _REBASED_TABLES


@given(st.data())
@settings(max_examples=max(settings.default.max_examples // 4, 10), deadline=None)
def test_packed_jacobi_matches_dict_loop(wave15, g2, data):
    """The packed Jacobi check against the dict loop: the same verdict and
    the same first failing triple, on rebased catalog tables as they are
    or with one coefficient corrupted, and on random tables whose every entry is
    +-max|c|, which puts the slots near the width bound."""
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    n, table = data.draw(st.sampled_from(_rebased_tables(wave15, g2)), label="table")
    table = dict(table)
    if data.draw(st.booleans(), label="corrupt"):
        pair = rng.choice([(a, b) for a in range(n) for b in range(a + 1, n)])
        k = rng.randrange(n)
        comp = dict(table.get(pair, {}))
        comp[k] = comp.get(k, F(0)) + F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 5)))
        table[pair] = comp
    got, want = _packed_verdict(n, table)
    assert got == want
    n = data.draw(st.integers(3, 8), label="n")
    top = F(data.draw(st.integers(1, 2 ** 64), label="max|c|"), data.draw(st.integers(1, 7)))
    signs = data.draw(st.sampled_from(["random", "+", "-"]), label="signs")
    table = {(a, b): {c: top * (rng.choice((-1, 1)) if signs == "random" else
                                1 if signs == "+" else -1) for c in range(n)}
             for a in range(n) for b in range(a + 1, n)}
    got, want = _packed_verdict(n, table)
    assert got == want


def test_jacobi_sums_stay_within_the_slot_bound(wave15, g2):
    """_check_jacobi sizes its slots from 3*n*max|c|^2: no slot of a Jacobi
    sum of the test tables exceeds that bound, also when every entry is
    +-max|c|."""
    rng = random.Random(7401)
    tables = list(_rebased_tables(wave15, g2))
    for n in (3, 5, 8):  # every entry +-c, and every entry c
        for signs in ((-1, 1), (1,)):
            tables.append((n, {(a, b): {k: F(9) * rng.choice(signs) for k in range(n)}
                               for a in range(n) for b in range(a + 1, n)}))
    for n, table in tables:
        L = LieAlgebra(n, [f"f{a}" for a in range(n)], table, validate=False)
        _, scaled = L.scaled_table()
        top = max(abs(c) for row in scaled for comp in row for c in comp.values())
        assert max(abs(x) for *_, total in _jacobi_sums(L) for x in total) <= 3 * n * top * top


def _trace(m):
    return sum((m[i, i] for i in range(m.rows)), F(0))


def test_killing_matrix_matches_fraction_trace(wave15, g2):
    """K_ij against trace(ad b_i ad b_j) over Fraction matrices, on the
    catalog tables and on dense rebased so(p,q) tables with denominators."""
    from lieembed.vecfield import so_pq_generators
    rng = random.Random(2025)
    algebras = [wave15, g2]
    for p, q in ((2, 2), (1, 3), (4, 0), (3, 2)):
        L = so_pq_generators(p, q)
        algebras.append(LieAlgebra(L.dim, L.basis_names, _dense_rebased(L, rng)))
    for L in algebras:
        ads = [ad(L, L.basis_vector(i)) for i in range(L.dim)]
        want = QMatrix([[_trace(ads[i] @ ads[j]) for j in range(L.dim)]
                       for i in range(L.dim)])
        assert killing_matrix(L) == want
        assert all(type(x) is F for row in killing_matrix(L).entries for x in row)



def _fraction_killing(n, table):
    """trace(ad b_i ad b_j) over QMatrix products, from a Fraction table
    {(i, j): {k: c}}, i < j, that the package did not scale."""
    def entry(i, s, r):
        if i == s:
            return F(0)
        c = table.get((min(i, s), max(i, s)), {}).get(r, F(0))
        return c if i < s else -c
    ads = [QMatrix([[entry(i, s, r) for s in range(n)] for r in range(n)]) for i in range(n)]
    return QMatrix([[_trace(ads[i] @ ads[j]) for j in range(n)] for i in range(n)])


@settings(max_examples=max(settings.default.max_examples // 10, 10), deadline=None)
@given(st.sampled_from([(p, n - p) for n in range(2, 6) for p in range(n, -1, -1)]),
       st.integers(0, 10 ** 6), st.integers(1, 2 ** 40), st.integers(1, 2 ** 8))
@example((4, 1), 0, 1, 1)
def test_packed_killing_table_matches_fraction_trace(pq, seed, num, den):
    """The packed Killing rows equal trace(ad b_i ad b_j) over Fractions on
    so(p, q), p + q <= 5, under a seeded dense unimodular change of basis
    (the standard basis for seed 0, where |K_ii| = 2(p+q-2) exceeds
    max|c|^2 = 1), scaled by num/den (the constants times c are a Lie
    algebra too), so entries reach 2^40 and the slot width follows them."""
    rebase = _perfbench_module("rebase")
    names, table = rebase.so_pq(*pq)
    n = len(names)
    P = (rebase.unimodular(n, random.Random(f"killing:{seed}")) if seed else
         [[int(i == j) for j in range(n)] for i in range(n)])
    c = F(num, den)
    moved = {pair: {k: c * x for k, x in comp.items()}
             for pair, comp in rebase.rebase(table, P, rebase.inverse(P)).items()}
    L = LieAlgebra(len(names), names, moved)
    assert killing_matrix(L) == _fraction_killing(L.dim, moved)


def test_packed_killing_table_of_0_and_1_dim_algebras():
    for L in (LieAlgebra(0, [], {}), LieAlgebra(1, ["x"], {})):
        assert L.killing_table() == (1, [({}, {})] * L.dim)
        assert L.killing_data()[:3] == (0, 0, L.dim)


@functools.cache
def _catalogs_and_rebased_tables():
    """Every shipped catalog and so(p,q) the rebased workload loads, and
    every rebased table of seeds 1-3."""
    from lieembed.vecfield import _CATALOGS, algebra_by_name, so_pq_generators
    workloads = _perfbench_module("workloads")
    golden = json.loads(resources.files("lieembed").joinpath("data/golden.json").read_text())
    tables = [algebra_by_name(name).to_json() for name in sorted(_CATALOGS)]
    tables += [so_pq_generators(p, q).to_json() for p, q in ((2, 2), (1, 3), (4, 0), (4, 2))]
    for seed in (1, 2, 3):
        tables += [a["table"] for a in workloads.rebased_plan(golden, seed)["algebras"]]
    return tables


def test_from_json_round_trip_keeps_the_table():
    """from_json(L.to_json()) gives the same integer table, the same
    brackets and the same JSON, on the shipped catalogs and on the rebased
    tables."""
    for obj in _catalogs_and_rebased_tables():
        L = LieAlgebra.from_json(obj)
        M = LieAlgebra.from_json(L.to_json())
        assert M.scaled_table() == L.scaled_table()
        assert M.brackets == L.brackets
        assert M.to_json() == L.to_json()


def test_string_table_load_calls_no_rat(monkeypatch, wave15):
    """A coefficient string goes to the integer table without a Fraction:
    loading string tables calls rat on no coefficient of 640 characters or
    fewer (a longer one is converted a chunk at a time, also without rat)."""
    import lieembed.exactlin as exactlin
    import lieembed.liecore as liecore
    seen = []
    for module in (exactlin, liecore):
        real = module.rat
        monkeypatch.setattr(module, "rat", lambda x, real=real: seen.append(x) or real(x))
    long = {"dim": 2, "basis": ["a", "b"],
            "brackets": [{"i": 0, "j": 1, "c": {"1": "1/" + "3" * 640}}]}
    for obj in [wave15.to_json(), long] + _catalogs_and_rebased_tables()[-5:]:
        assert all(isinstance(c, str) for e in obj["brackets"] for c in e["c"].values())
        LieAlgebra.from_json(obj)
    assert not [x for x in seen if isinstance(x, str) and len(x) <= 640]
    assert LieAlgebra.from_json(long).brackets == {(0, 1): {1: F(1, int("3" * 640))}}

@pytest.mark.parametrize("d", [0, 2, 3, -1, -3])
def test_killing_matches_x_K_y(wave15, g2, d):
    """The integer B(x, y) against x . K . y summed over the Fraction
    killing_matrix (which test_killing_matrix_matches_fraction_trace checks),
    value and entry type, on seeded vectors over Q or Q(sqrt d) and the zero
    vector; restricted_killing_signature against symmetric_signature of the
    Fraction Gram matrix of the subspace's rows, or the same ValueError."""
    rng = random.Random(4100 + d)
    for L in _kernel_algebras(wave15, g2):
        K = killing_matrix(L)

        def form(x, y):
            return sum((a * b for a, b in zip(x, K.apply(y)) if a and b), F(0))

        vecs = [(F(0),) * L.dim] + [_rand_vec(rng, L.dim, 8, d) for _ in range(12)]
        for x in vecs:
            y = rng.choice(vecs)
            for a, b in ((x, y), (x, x)):
                want = form(a, b)
                got = L.killing(a, b)
                assert got == want and type(got) is type(want), (L, a, b)
        for k in (1, 2, 4):
            sub = Subspace(L, rng.sample(vecs[1:], k))
            try:
                want = symmetric_signature(scaled(QMatrix([[form(r, s) for s in sub.rows]
                                                          for r in sub.rows])))[:3]
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    restricted_killing_signature(sub)
            else:
                assert restricted_killing_signature(sub) == want, (L, sub)


def test_solvable_derived_is_nilpotent(wave15, g2):
    # derived algebra of the radical of a normalizer consists of nilpotents
    for L, names in ((wave15, ("e8", "e10", "e11", "e12")),
                     (g2, ("X14", "X13", "X12"))):
        sub = span(L, *(L.basis_vector(n) for n in names))
        rad = radical(normalizer(L, sub))
        der = derived_algebra(rad)
        for row in der.rows:
            assert classify_element(L, row) == NILPOTENT


def test_centralizer_levi_identity_for_tori(wave15, so13, so22):
    # Levi of the centralizer of a torus: levi = derived, radical = center
    cases = [
        (wave15, span(wave15, wave15.basis_vector("e2"))),
        (wave15, span(wave15, wave15.basis_vector("e2"), wave15.basis_vector("e7m16"))),
        (wave15, span(wave15, wave15.basis_vector("e14"))),
        (so13, span(so13, so13.basis_vector("e1"))),
        (so22, span(so22, so22.basis_vector("e2"))),
    ]
    for L, torus in cases:
        zc = centralizer(L, torus)
        ld = levi_decomposition(zc)
        assert ld.levi == derived_algebra(zc)
        assert ld.radical == center(zc)


def test_subspace_basis_independence(wave15):
    rng = random.Random(9)
    E = wave15.basis_vector
    vectors = [E("e8"), E("e10"), E("e11"), E("e12")]
    sub = span(wave15, *vectors)
    for _ in range(5):
        mixed = []
        for _ in range(len(vectors)):
            combo = tuple([F(0)] * 15)
            for v in vectors:
                combo = vec_add(combo, vec_scale(F(rng.randint(-3, 3)), v))
            mixed.append(combo)
        remix = span(wave15, *mixed)
        if remix.dim < sub.dim:
            continue  # random combination collapsed; skip
        assert remix == sub
        assert normalizer(wave15, remix) == normalizer(wave15, sub)
        assert centralizer(wave15, remix) == centralizer(wave15, sub)


def test_restricted_killing_signature(wave15):
    E = wave15.basis_vector
    rot = span(wave15, E("e13"), E("e14"), E("e15"))
    # ambient form restricted to a compact subalgebra is negative definite
    assert restricted_killing_signature(rot) == (0, 3, 0)


def test_restricted_killing_signature_over_a_quadratic_field(so4):
    """Rows in Q(sqrt 5): the span of v+ + x and v- + 2x in so(2,1), v+- the
    root vectors of x = e2 + 2e3, against sympy's exact eigenvalue signs.
    Rows in Q(i) have no real signature."""
    sympy = pytest.importorskip("sympy")
    from lieembed.exactlin import scalar_parts
    from lieembed.rootsys import root_space_decomposition
    from lieembed.vecfield import algebra_by_name
    L = algebra_by_name("so(2,1)")
    x = L.element({"e2": 1, "e3": 2})
    (_, vp), (_, vm) = root_space_decomposition(L, [x]).pairs
    sub = span(L, vec_add(vp.rows[0], x), vec_add(vm.rows[0], vec_scale(2, x)))
    assert {scalar_parts(c)[2] for row in sub.rows for c in row} == {0, 5}

    def exact(c):
        a, b, d = scalar_parts(c)
        return sympy.Rational(a.numerator, a.denominator) + sympy.Rational(
            b.numerator, b.denominator) * sympy.sqrt(d)

    K = sympy.Matrix([[exact(L.killing(r, s)) for s in sub.rows] for r in sub.rows])
    values = K.eigenvals(multiple=True)
    want = (sum(bool(v.is_positive) for v in values),
            sum(bool(v.is_negative) for v in values),
            sum(bool(v.is_zero) for v in values))
    assert sum(want) == 2
    assert restricted_killing_signature(sub) == want
    imaginary = span(so4, vec_add(so4.basis_vector("e1"), vec_scale(
        make_scalar(1, 1, -1), so4.basis_vector("e2"))))
    with pytest.raises(ValueError, match="imaginary field"):
        restricted_killing_signature(imaginary)
    # e13 + i*e14 in wave15's so(3), K = c*I there: its Gram matrix is the
    # rational [[0]], which has a signature
    W = algebra_by_name("wave15")
    isotropic = span(W, vec_add(W.basis_vector("e13"),
                                vec_scale(make_scalar(0, 1, -1), W.basis_vector("e14"))))
    (row,) = isotropic.rows
    assert W.killing(row, row) == 0
    assert restricted_killing_signature(isotropic) == (0, 0, 1)


# --- the integer kernel against the Fraction loops it replaced ----------------
# Reference copies of the Fraction loops of LieAlgebra.bracket/ad and
# Subspace.reduce/coords_of/from_coords and of Subspace.restrict (the
# Fraction matrix of an endomorphism on the subspace, which ad_block
# replaced) before they ran on the integer table; outputs must agree in
# value and in entry type.

def _ref_bracket(L, x, y):
    def basis_bracket(i, j):
        if i < j:
            return L.brackets.get((i, j), {})
        return {k: -c for k, c in L.brackets.get((j, i), {}).items()}

    out = [F(0)] * L.dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj or i == j:
                continue
            for k, c in basis_bracket(i, j).items():
                out[k] = out[k] + xi * yj * c
    return tuple(out)


def _ref_ad(L, x):
    return QMatrix.from_columns([_ref_bracket(L, x, L.basis_vector(j))
                                for j in range(L.dim)])


def _ref_reduce(S, v):
    work = list(v)
    for row, p in zip(S.rows, S.pivots):
        if work[p]:
            f = work[p]
            work = [x - f * y for x, y in zip(work, row)]
    return tuple(work)


def _ref_coords_of(S, v):
    coords = []
    work = list(v)
    for row, p in zip(S.rows, S.pivots):
        f = work[p]
        coords.append(f)
        if f:
            work = [x - f * y for x, y in zip(work, row)]
    if not vec_is_zero(tuple(work)):
        return None
    return tuple(coords)


def _ref_from_coords(S, coords):
    out = tuple([F(0)] * S.algebra.dim)
    for c, row in zip(coords, S.rows):
        if c:
            out = vec_add(out, vec_scale(c, row))
    return out


def _ref_restrict(S, m):
    cols = []
    for r in S.rows:
        c = _ref_coords_of(S, m.apply(r))
        if c is None:
            raise ValueError("subspace is not invariant")
        cols.append(c)
    return QMatrix.from_columns(cols)


def _block_key(block):
    """The entries of a (den, d, rows) block as Fraction (or ExactScalar)
    rows: equal matrices give equal keys whatever their scale."""
    den, d, rows = block
    return tuple(_unscaled_vector(den, d, a.items(), b.items(), len(rows)) for a, b in rows)


def _ad_on(S, x):
    """The block of ad(x) on S (:meth:`Subspace.ad_block`) as the Fraction
    (or ExactScalar) matrix that ``_ref_restrict(S, ad(L, x))`` gives."""
    den, d, rows = S.ad_block(S.algebra._ad_ints(_scaled_vector(x)))
    return QMatrix([_unscaled_vector(den, d, a.items(), b.items(), S.dim) for a, b in rows])


def _typed(v):
    """Entries with their types, so that 1/2 and an ExactScalar differ."""
    if v is None:
        return None
    if isinstance(v, QMatrix):
        return [_typed(row) for row in v.entries]
    return [(type(x).__name__, x) for x in v]


def _rand_rat(rng, bits):
    """Zero a quarter of the time, else a random p/q with |p| and q of up
    to ``bits`` bits."""
    if rng.random() < 0.25:
        return F(0)
    return F(rng.choice((-1, 1)) * rng.randint(1, 2 ** rng.randint(1, bits)),
             rng.randint(1, 2 ** rng.randint(1, bits)))


def _rand_vec(rng, n, bits, d=0):
    """Random vector; over Q(sqrt d) (surd parts on about half the
    entries) when d is nonzero."""
    from lieembed.exactlin import make_scalar
    if d == 0:
        return tuple(_rand_rat(rng, bits) for _ in range(n))
    return tuple(make_scalar(_rand_rat(rng, bits),
                             _rand_rat(rng, bits) if rng.random() < 0.5 else 0, d)
                 for _ in range(n))


def _kernel_algebras(wave15, g2):
    from lieembed.vecfield import so_pq_generators
    rng = random.Random(2026)
    algebras = [wave15, g2]
    for p, q in ((2, 2), (1, 3), (4, 0), (3, 2)):
        L = so_pq_generators(p, q)
        algebras.append(LieAlgebra(L.dim, L.basis_names, _dense_rebased(L, rng),
                                   name=f"rebased so({p},{q})"))
    return algebras


@pytest.mark.parametrize("d", [0, -1, 2])
def test_integer_kernel_matches_fraction_reference(wave15, g2, d):
    """bracket, ad, reduce, coords_of and from_coords against the
    Fraction loops: rational vectors of 1-40 bits with mixed denominators
    (d = 0) or vectors over Q(sqrt d), zero vectors, members and
    non-members of random subspaces."""
    rng = random.Random(7000 + d)
    for L in _kernel_algebras(wave15, g2):
        n = L.dim
        for trial in range(6):
            bits = (1, 8, 40)[trial % 3]
            x = _rand_vec(rng, n, bits, d if trial % 2 else 0)
            y = _rand_vec(rng, n, bits, d)
            zero = tuple([F(0)] * n)
            for a, b in ((x, y), (y, x), (x, zero), (zero, y)):
                assert _typed(L.bracket(a, b)) == _typed(_ref_bracket(L, a, b))
            if trial < 2:
                assert _typed(ad(L, x)) == _typed(_ref_ad(L, x))
                assert _typed(ad(L, zero)) == _typed(_ref_ad(L, zero))
        for trial in range(6):
            bits = (1, 8, 40)[trial % 3]
            k = rng.randint(0, n - 1)
            S = Subspace(L, [_rand_vec(rng, n, bits, d if trial % 2 else 0)
                             for _ in range(k)])
            coords = _rand_vec(rng, S.dim, bits, d)
            member = S.from_coords(coords)
            assert _typed(member) == _typed(_ref_from_coords(S, coords))
            outside = _rand_vec(rng, n, bits, d)
            for v in (member, outside, tuple([F(0)] * n)):
                assert _typed(S.reduce(v)) == _typed(_ref_reduce(S, v))
                assert _typed(S.coords_of(v)) == _typed(_ref_coords_of(S, v))
                assert S.contains(v) == vec_is_zero(_ref_reduce(S, v))
            assert S.coords_of(outside) is None  # a random vector is outside
            assert _ref_coords_of(S, member) is not None


def test_restrict_matches_fraction_reference(wave15, g2, so4):
    from lieembed.rootsys import root_space_decomposition
    rng = random.Random(7100)
    cases = []
    E = wave15.basis_vector
    S = normalizer(wave15, span(wave15, E("e8"), E("e10"), E("e11"), E("e12")))
    cases.append((wave15, S, S.from_coords(_rand_vec(rng, S.dim, 20))))
    S = normalizer(g2, span(g2, *(g2.basis_vector(b) for b in ("X14", "X13", "X12"))))
    cases.append((g2, S, S.from_coords(_rand_vec(rng, S.dim, 20))))
    for L in _kernel_algebras(wave15, g2)[2:]:
        full = Subspace.full(L)
        cases.append((L, full, _rand_vec(rng, L.dim, 30)))
    # root spaces over Q(sqrt -1), invariant under the Cartan
    rsd = root_space_decomposition(so4, [so4.basis_vector("e1"), so4.basis_vector("e6")])
    for _root, space in rsd.pairs:
        cases.append((so4, space, so4.basis_vector("e1")))
    for L, S, x in cases:
        assert _typed(_ad_on(S, x)) == _typed(_ref_restrict(S, ad(L, x)))
    outside = span(so4, so4.basis_vector("e2"))
    with pytest.raises(ValueError, match="not invariant"):
        _ad_on(outside, so4.basis_vector("e1"))


def test_bracket_rejects_two_extensions(so4):
    from lieembed.exactlin import make_scalar
    x = tuple(make_scalar(0, 1, -1) if i == 0 else F(0) for i in range(so4.dim))
    y = tuple(make_scalar(0, 1, 2) if i == 1 else F(0) for i in range(so4.dim))
    with pytest.raises(ExtensionDegreeTooHigh):
        so4.bracket(x, y)


# --- the scaled integer state of a Subspace against the Fraction loops --------

_DIFF_ALGEBRAS: list = []


def _diff_algebras(wave15, g2):
    """wave15, g2, and so(2,2), so(1,3) in a dense random basis; built once."""
    if not _DIFF_ALGEBRAS:
        from lieembed.vecfield import so_pq_generators
        rng = random.Random(7300)
        _DIFF_ALGEBRAS.extend([wave15, g2])
        for p, q in ((2, 2), (1, 3)):
            L = so_pq_generators(p, q)
            _DIFF_ALGEBRAS.append(LieAlgebra(L.dim, L.basis_names, _dense_rebased(L, rng),
                                             name=f"rebased so({p},{q})"))
    return _DIFF_ALGEBRAS


def _ref_basis(vectors):
    """Canonical RREF rows of the span, by dense Fraction Gauss-Jordan."""
    rows = [list(v) for v in vectors if not vec_is_zero(v)]
    if not rows:
        return ()
    reduced, pivots = _reference_rref_rows(rows)
    return tuple(tuple(r) for r in reduced[:len(pivots)])


def _ref_derived(S):
    """Span of the brackets of the basis rows, or NotASubalgebra if one of
    them leaves S."""
    L, rows = S.algebra, S.rows
    brackets = [_ref_bracket(L, r, s) for i, r in enumerate(rows) for s in rows[i + 1:]]
    if any(_ref_coords_of(S, w) is None for w in brackets):
        raise NotASubalgebra("derived algebra of a non-closed subspace")
    return _ref_basis(brackets)


def _ref_structure(S):
    """as_subalgebra's table: coordinates of the brackets of the basis rows
    (a LieAlgebra takes rational constants only)."""
    out = {}
    for i, r in enumerate(S.rows):
        for j in range(i + 1, S.dim):
            coords = _ref_coords_of(S, _ref_bracket(S.algebra, r, S.rows[j]))
            if coords is None:
                raise NotASubalgebra("bracket leaves the subspace")
            comp = {t: c for t, c in enumerate(coords) if c}
            if comp:
                out[(i, j)] = comp
    if any(type(c) is not F for comp in out.values() for c in comp.values()):
        raise ExtensionDegreeTooHigh("structure constants must be rational")
    return out


def _same_outcome(got, want):
    """Both calls return equal values with equal entry types, or both raise
    the same exception type."""
    results = []
    for call in (got, want):
        try:
            results.append(("ok", call()))
        except (NotASubalgebra, ExtensionDegreeTooHigh, ValueError, TypeError) as exc:
            results.append((type(exc).__name__, None))
    return results[0] == results[1]


@given(st.data())
# a tenth of the active profile: 10 examples locally, 50 under the ci profile
@settings(max_examples=max(settings.default.max_examples // 10, 10), deadline=None)
def test_subspace_state_matches_fraction_loops(wave15, g2, data):
    """Random spanning sets with duplicate, dependent and zero vectors in
    shuffled order, over Q, Q(sqrt 2) and Q(i) with 20-bit numerators:
    rows, reduce, contains, coords_of, from_coords, ad_block,
    derived_algebra and as_subalgebra agree with the Fraction loops in
    value and entry type, and equal spans give equal, equally hashed
    subspaces."""
    L = data.draw(st.sampled_from(_diff_algebras(wave15, g2)), label="algebra")
    d = data.draw(st.sampled_from([0, 2, -1]), label="d")
    rng = random.Random(data.draw(st.integers(0, 2 ** 32), label="seed"))
    n = L.dim
    vectors = [_rand_vec(rng, n, 20, d if rng.random() < 0.7 else 0)
               for _ in range(data.draw(st.integers(0, n), label="k"))]
    extra = [tuple(F(0) for _ in range(n))]
    for v in vectors[:3]:
        w = rng.choice(vectors)
        extra += [v, vec_scale(F(rng.randint(-9, 9), rng.randint(1, 9)), v),
                  vec_sub(v, vec_scale(F(rng.randint(1, 9)), w))]
    spanning = vectors + extra
    rng.shuffle(spanning)

    S = Subspace(L, spanning)
    assert [_typed(r) for r in S.rows] == [_typed(r) for r in _ref_basis(spanning)]
    for other in (Subspace(L, vectors), Subspace(L, S.rows),
                  Subspace(L, list(reversed(spanning)))):
        assert other == S and hash(other) == hash(S)
    root = make_scalar(0, 1, S.d or 2)  # a unit of the field: the same span
    rescaled = Subspace(L, [vec_scale(root, r) for r in S.rows])
    assert rescaled == S and hash(rescaled) == hash(S)
    prefix = Subspace(L, vectors[:-1])
    assert (prefix == S) == (prefix.rows == S.rows)
    free = [c for c in range(n) if c not in S.pivots and S.dim and c > S.pivots[0]]
    if free:  # the same pivots and denominator, another first row
        moved = Subspace(L, [vec_add(S.rows[0], L.basis_vector(free[0])), *S.rows[1:]])
        assert moved.pivots == S.pivots and moved != S
    if S.dim == 0:
        assert S == Subspace.zero(L) and hash(S) == hash(Subspace.zero(L))

    coords = _rand_vec(rng, S.dim, 20, d)
    assert _typed(S.from_coords(coords)) == _typed(_ref_from_coords(S, coords))
    for v in (S.from_coords(coords), _rand_vec(rng, n, 20, d), extra[0]):
        assert _typed(S.reduce(v)) == _typed(_ref_reduce(S, v))
        assert _typed(S.coords_of(v)) == _typed(_ref_coords_of(S, v))
        assert S.contains(v) == vec_is_zero(_ref_reduce(S, v))

    # subalgebras: what a combination of two basis vectors centralizes and
    # normalizes
    i, j = rng.sample(range(n), 2)
    x = vec_add(vec_scale(_rand_vec(rng, 1, 20, d)[0] or F(1), L.basis_vector(i)),
                vec_scale(_rand_vec(rng, 1, 20, d)[0], L.basis_vector(j)))
    closed = [centralizer(L, Subspace(L, [x])), normalizer(L, Subspace(L, [x]))]
    assert closed[0].contains(x) and closed[1].contains_subspace(closed[0])
    for A in [S] + closed:
        y = A.rows[0] if A.dim else x
        if A.dim == 0:  # the reference has no 0 x 0 matrix
            assert _ad_on(A, y) == QMatrix([])
        else:
            assert _same_outcome(lambda: _typed(_ad_on(A, y)),
                                 lambda: _typed(_ref_restrict(A, ad(L, y))))
        assert _same_outcome(lambda: [_typed(r) for r in derived_algebra(A).rows],
                             lambda: [_typed(r) for r in _ref_derived(A)])
        assert _same_outcome(lambda: A.as_subalgebra().brackets, lambda: _ref_structure(A))


def test_scaled_table_is_built_once(wave15):
    L = LieAlgebra(wave15.dim, wave15.basis_names, wave15.brackets)
    table = L.scaled_table()
    killing_matrix(L)
    L.bracket(L.basis_vector(0), L.basis_vector(1))
    ad(L, L.basis_vector(2))
    assert L.scaled_table() is table


# --- radical against the all-pairs routine it replaced ------------------------

def _ref_radical(obj):
    """radical before it worked in L itself and stopped at full rank: the
    subspace copied through as_subalgebra and every bracket row-reduced."""
    sub = Subspace.full(obj) if isinstance(obj, LieAlgebra) else obj
    if sub.dim == 0:
        return sub
    inner = sub.as_subalgebra()
    k = sub.dim
    der_rows = []
    for i in range(k):
        for j in range(i + 1, k):
            w = inner.bracket(unit_vector(k, i), unit_vector(k, j))
            if not vec_is_zero(w):
                der_rows.append(w)
    der = _ref_basis(der_rows)
    if not der:
        return sub
    K = killing_matrix(inner)
    rad_coords = kernel(QMatrix([K.apply(d) for d in der]))
    return Subspace(sub.algebra, [sub.from_coords(c) for c in rad_coords])


def _borel(L, cartan):
    """Normalizer of the sum of the positive root spaces."""
    from lieembed.rootsys import is_positive, root_space_decomposition
    rsd = root_space_decomposition(L, cartan)
    return normalizer(L, Subspace(L, [row for root, space in rsd.pairs
                                      if is_positive(root) for row in space.rows]))


def test_radical_matches_all_pairs_reference(wave15, wave16, g2, so13, so22):
    from lieembed.embed import embed_real_torus
    from lieembed.vecfield import so_pq_generators
    rng = random.Random(8080)
    E, X = wave15.basis_vector, g2.basis_vector
    cases = [wave15, wave16, g2]
    for L in (so22, so13, so_pq_generators(4, 0), so_pq_generators(3, 2), wave16):
        cases.append(LieAlgebra(L.dim, L.basis_names,
                                _table_in_basis(L, _dense_basis(L, rng)),
                                name=f"rebased {L.name}"))
    cases += [
        _borel(g2, [X("X6"), X("X8")]),
        _borel(so22, [so22.basis_vector("e2"), so22.basis_vector("e5")]),
        normalizer(wave15, span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))),
        normalizer(g2, span(g2, X("X14"), X("X13"), X("X12"))),
        centralizer(wave15, embed_real_torus(wave15, span(wave15, E("e2")))[0]),
        centralizer(wave15, span(wave15, E("e2"), E("e7m16"))),
        centralizer(wave15, span(wave15, E("e14"))),
        centralizer(so13, span(so13, so13.basis_vector("e1"))),
        Subspace.zero(g2),
    ]
    # sl2 on (a, b), z central, in dense bases: both take the degenerate
    # branch.  With R abelian the derived algebra sl2 + <a, b> misses z, so
    # the radical is ker(der . K); with [a, b] = z the algebra is perfect,
    # so the radical is ker K.
    semidirect = [_sl2_semidirect(table, rng) for table in ({}, {(3, 4): {5: 1}})]
    assert [derived_algebra(Subspace.full(S)).dim for S in semidirect] == [5, 6]
    cases += semidirect
    dims = set()
    for obj in cases:
        got, want = radical(obj), _ref_radical(obj)
        assert [_typed(r) for r in got.rows] == [_typed(r) for r in want.rows]
        dims.add((got.dim, obj.dim))
    # semisimple, reductive, solvable and mixed cases all occur
    assert {(0, 14), (1, 16), (8, 8), (5, 11), (3, 6)} <= dims


def test_radical_of_semisimple_algebra_copies_nothing(wave15, wave16, g2, monkeypatch):
    """Cartan's criterion first: on a semisimple algebra (dense g2, wave15
    and so(3,2)) the radical is read off the kept Killing data, so the
    algebra is not copied, no bracket is formed and no row reaches a row
    reduction; on a semisimple subalgebra (the Levi parts of wave16 and of
    a g2 parabolic) only the copy's brackets are formed, and no row reaches
    a row reduction either."""
    import lieembed.exactlin as exactlin
    import lieembed.liecore as liecore
    from lieembed.vecfield import so_pq_generators
    rng = random.Random(8081)
    algebras = [LieAlgebra(M.dim, M.basis_names, _table_in_basis(M, _dense_basis(M, rng)))
                for M in (g2, wave15, so_pq_generators(3, 2))]
    W, G = (LieAlgebra(M.dim, M.basis_names, M.brackets) for M in (wave16, g2))
    X = G.basis_vector
    levis = [levi_decomposition(Subspace.full(W)).levi,
             levi_decomposition(normalizer(G, span(G, X("X14"), X("X13"), X("X12")))).levi]
    assert [s.dim for s in levis] == [15, 3]
    copies, brackets, fed = [], [], []
    real_copy, real_bracket = Subspace.as_subalgebra, LieAlgebra._bracket_ints
    monkeypatch.setattr(Subspace, "as_subalgebra",
                        lambda self: copies.append(self) or real_copy(self))
    monkeypatch.setattr(LieAlgebra, "_bracket_ints",
                        lambda self, x, y: brackets.append(x) or real_bracket(self, x, y))
    for module in (exactlin, liecore):
        monkeypatch.setattr(module, "_rref_ints",
                            lambda rows, d, reverse=False, real=module._rref_ints:
                            fed.extend(rows) or real(rows, d, reverse))
    for L in algebras:
        assert radical(L).dim == 0
        assert copies == [] and brackets == [] and fed == []
    for sub in levis:
        assert radical(sub).dim == 0
        k = sub.dim
        assert copies == [sub] and len(brackets) == k * (k - 1) // 2 and fed == []
        copies.clear()
        brackets.clear()


def test_spectrum_roots_are_the_factored_min_poly(wave15, g2):
    """A spectrum's roots are its minimal polynomial's by the divisor
    search (or sympy's verdict where that raises), entry types included."""
    from test_exactlin import _assert_roots_match_oracles
    rng = random.Random(8082)
    for L in (wave15, g2):
        elements = ([L.basis_vector(i) for i in range(L.dim)] +
                    [_rand_element(L, rng) for _ in range(10)])
        for x in elements:
            s = spectrum(L, x)
            want = _assert_roots_match_oracles(QPoly(s.min_poly), lambda: s.roots)
            if want is not None:
                assert [(_typed([r]), m) for r, m in s.roots] == \
                    [(_typed([r]), m) for r, m in want]
                assert s.roots is s.roots  # factored once, kept


# --- Jordan pull-back against the stacked solve it replaced ------------------

def _ref_jordan(L, x):
    """(semisimple, nilpotent, center_obstructed) by solving the stacked
    ad-basis system with solve_linear on every call, and the center from
    its kernel."""
    from lieembed.liecore import _semisimple_poly
    m = ad(L, x)
    p, den = _semisimple_poly(spectrum(L, x))
    s_mat = QPoly([F(c, den) for c in p]).eval_matrix(m)
    stacked = QMatrix.from_columns(
        [tuple(c for row in ad(L, unit_vector(L.dim, i)).entries for c in row)
         for i in range(L.dim)])
    sol = solve_linear(stacked, tuple(c for row in s_mat.entries for c in row))
    if sol is None:
        raise CenterObstruction("semisimple part lies outside ad(L)")
    return sol, vec_sub(x, sol), len(kernel(stacked)) > 0


def _jordan_algebras(wave15, wave16, g2):
    from lieembed.vecfield import so_pq_generators
    rng = random.Random(9191)
    heis = LieAlgebra(3, ["x", "y", "z"], {(0, 1): {2: 1}}, name="heisenberg")
    E = wave15.basis_vector
    # reductive with a 1-dim center: the centralizer of a compact element
    torus_centralizer = centralizer(wave15, span(wave15, E("e14"))).as_subalgebra()
    algebras = [wave15, wave16, g2, heis, torus_centralizer]
    for L in (so_pq_generators(2, 2), so_pq_generators(1, 3),
              so_pq_generators(4, 0), g2):
        algebras.append(LieAlgebra(L.dim, L.basis_names,
                                   _table_in_basis(L, _dense_basis(L, rng)),
                                   name=f"rebased {L.name}"))
    return algebras


def test_jordan_matches_stacked_solve_reference(wave15, wave16, g2):
    rng = random.Random(9192)
    flags = set()
    for L in _jordan_algebras(wave15, wave16, g2):
        elements = [L.basis_vector(i) for i in range(L.dim)]
        elements += [_rand_element(L, rng, support=4, lo=-3, hi=3) for _ in range(6)]
        for x in elements:
            pair = jordan_decomposition(L, x)
            s, n, obstructed = _ref_jordan(L, x)
            assert _typed(pair.semisimple) == _typed(s)
            assert _typed(pair.nilpotent) == _typed(n)
            assert pair.center_obstructed == obstructed
            flags.add((L.name, obstructed))
    assert ("heisenberg", True) in flags and ("sub(7)", True) in flags
    assert ("g2", False) in flags


def test_jordan_of_non_semisimple_elements_in_a_dense_basis(wave15, g2):
    """jordan_decomposition of non-semisimple elements of wave15 and g2 in
    a seeded dense basis meets the definition, checked without the Newton
    step: x = s + n, [s, n] = 0, a power of ad n is 0, and ad s has a
    squarefree minimal polynomial.  Mapped back to the paper basis, the
    pair is the paper basis's own pair."""
    from lieembed.exactlin import min_poly
    rng = random.Random(2121)
    for L0 in (wave15, g2):
        f = _dense_basis(L0, rng)
        to_f = QMatrix.from_columns(f)
        L = LieAlgebra(L0.dim, L0.basis_names, _table_in_basis(L0, f), name="dense")
        tried = mixed = 0
        while mixed < 6:
            y = _rand_element(L0, rng, support=4, lo=-3, hi=3)
            x = solve_linear(to_f, y)
            if spectrum(L, x).semisimple:
                continue
            pair = jordan_decomposition(L, x)
            assert vec_add(pair.semisimple, pair.nilpotent) == x
            assert vec_is_zero(L.bracket(pair.semisimple, pair.nilpotent))
            power, k = ad(L, pair.nilpotent), 1
            while k < L.dim:
                power, k = power @ power, 2 * k
            assert power.is_zero()
            assert is_squarefree(min_poly(scaled(ad(L, pair.semisimple))))
            assert to_f.apply(pair.semisimple) == jordan_decomposition(L0, y).semisimple
            tried += 1
            mixed += not vec_is_zero(pair.semisimple)
        assert tried < 40


def test_jordan_outside_ad_image_raises():
    """[x, y] = y, [x, z] = y + z: the semisimple part of ad x, diag(0, 1, 1),
    is no ad of an element."""
    L = LieAlgebra(3, ["x", "y", "z"], {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1}})
    x = L.basis_vector("x")
    with pytest.raises(CenterObstruction):
        _ref_jordan(L, x)
    with pytest.raises(CenterObstruction):
        jordan_decomposition(L, x)
    assert L.center_dim() == 0


def test_ad_map_is_factored_once_per_algebra(wave15, monkeypatch):
    import lieembed.liecore as liecore
    factored = []
    real_solver = liecore.linear_solver
    monkeypatch.setattr(liecore, "linear_solver", lambda m, height:
                        factored.append((height, len(m[2]))) or real_solver(m, height))

    def forbidden(*args):
        raise AssertionError("no kernel or row reduction in the Jordan pull-back")
    monkeypatch.setattr(liecore, "_kernel_ints", forbidden)
    monkeypatch.setattr(liecore, "_rref_ints", forbidden)
    rng = random.Random(9193)
    heis = LieAlgebra(3, ["x", "y", "z"], {(0, 1): {2: 1}})
    wave = LieAlgebra.from_json(wave15.to_json())  # nothing cached yet
    for L in (heis, wave, heis, wave):
        assert L.center_dim() == (1 if L is heis else 0)
        for _ in range(5):
            jordan_decomposition(L, _rand_element(L, rng))
        assert L.center_dim() == (1 if L is heis else 0)
    # the ad maps (n*n rows, n columns); the other solves are the Newton
    # step's square ones for 1/g' mod the minimal polynomial
    assert [h for h, n in factored if h == n * n] == [9, 225]
    assert all(h == n for h, n in factored if h != n * n)


# --- spectra: one squarefree split ----------------------------------------------

def _ref_nilpotent_semisimple(p):
    """The definitions: t^k has no coefficient below its lead, and p is
    squarefree when gcd(p, p') over Q is a constant."""
    return not any(p.coeffs[:-1]), is_squarefree(p)


def _product_one_to_38():
    """prod (t - a) for a = 1..38: each of the first 12 primes is at most
    37, so none keeps it squarefree."""
    out = QPoly([1])
    for a in range(1, 39):
        out = out * QPoly([-a, 1])
    return out


def _spectrum_polys():
    """t^k * f for k = 0..3, with f constant, squarefree or with a
    repeated quadratic factor, and the product of t - a for a = 1..38
    times 1, t and t - 1."""
    t = QPoly([0, 1])
    quad = t * t - QPoly([3])
    fs = [QPoly([1]), t - QPoly([F(5, 2)]), quad * (t + QPoly([7])),
          quad * quad * (t - QPoly([1])), (t * t + QPoly([1])) * quad * quad]
    wide = _product_one_to_38()
    return ([QPoly([0] * k + [1]) * f for k in range(4) for f in fs]
            + [wide, t * wide, wide * (t - QPoly([1]))])


def test_spectrum_flags_match_their_definitions():
    """Spectrum.nilpotent and .semisimple, read off the squarefree parts,
    equal the definitions on every minimal polynomial of a verify pass and
    of rebased seeds 101-103 and on constructed t^k * f; the parts times t
    (when k > 0) are the squarefree part p / gcd(p, p')."""
    from lieembed.liecore import Spectrum
    from test_exactlin import _workload_calls
    polys = [QPoly(mp) for mp in _workload_calls()[1]] + _spectrum_polys()
    assert len(polys) >= 150
    seen = set()
    for p in polys:
        s = Spectrum(p.primitive())
        nilpotent, semisimple = _ref_nilpotent_semisimple(p)
        assert (s.nilpotent, s.semisimple) == (nilpotent, semisimple), p
        seen.add((nilpotent, semisimple))
        g = QPoly([0, 1] if s.zeros else [1])
        for f, _ in s.parts:
            g = g * QPoly(f)
        assert g.monic() == p.exact_div(poly_gcd(p, p.derivative())).monic(), p
    assert seen == {(True, False), (True, True), (False, True), (False, False)}


def _ref_semisimple_kind(roots):
    """The flag loop that labelled a semisimple spectrum before
    Spectrum.kind read one rule."""
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


@given(st.randoms(use_true_random=False))
@settings(deadline=None, max_examples=60)
def test_spectrum_kind_matches_the_flag_loop(rng):
    """Spectrum.kind of a squarefree polynomial with drawn roots (0,
    rationals, and conjugate pairs a +- b sqrt(d) over Q(sqrt 2), Q(i) and
    Q(sqrt -2), a = 0 or not, in one field or several) is the flag loop's
    label of the drawn roots."""
    from lieembed.liecore import Spectrum
    t = QPoly([0, 1])
    p, roots, seen = QPoly([1]), [], set()
    for _ in range(rng.randint(1, 4)):
        a = rng.choice((F(0), F(rng.randint(-3, 3), rng.randint(1, 2))))
        d = rng.choice((0, 2, -1, -2))
        b = F(rng.randint(1, 3), rng.randint(1, 2))
        pair = [make_scalar(a, b, d), make_scalar(a, -b, d)] if d else [a]
        if any(x in seen for x in pair):
            continue
        seen.update(pair)
        roots += [(x, 1) for x in pair]
        p = p * (t * t - QPoly([2 * a]) * t + QPoly([a * a - d * b * b]) if d
                 else t - QPoly([a]))
    if all(not x for x, _ in roots):
        p = p * (t - QPoly([1]))  # a nonzero root, so not nilpotent
        roots.append((F(1), 1))
    s = Spectrum(p.primitive())
    assert s.semisimple and not s.nilpotent
    assert s.kind == _ref_semisimple_kind(roots), roots


def test_squarefree_parts_of_a_product_with_no_good_small_prime():
    """prod (t - a), a = 1..38: every one of the first 12 primes is at most
    37 and leaves it with a repeated root, so Yun's decomposition decides
    and factor_roots gives 38 simple roots."""
    from lieembed.exactlin import _squarefree_parts, _squarefree_prime
    wide = _product_one_to_38()
    k, prime, parts = _squarefree_parts(wide.primitive())
    assert (k, prime, [m for _, m in parts]) == (0, None, [1])
    assert _squarefree_prime(parts[0][0]) is None
    assert factor_roots(wide.coeffs) == [(F(a), 1) for a in range(1, 39)]
    k, prime, parts = _squarefree_parts((wide * QPoly([-1, 1])).primitive())
    assert (k, prime, sorted(len(f) - 1 for f, _ in parts)) == (0, None, [1, 37])
    assert sorted(m for _, m in parts) == [1, 2]


def test_integer_yun_against_sympy_sqf_list():
    """The squarefree parts of t^k * prod (t - a)^m, a rational, with
    repeated factors (so that no prime proves them squarefree and Yun's
    decomposition over Z runs) and of prod (t - a), a = 1..38, times 1,
    (t - 1) and (t - 2)^2 equal sympy's sqf_list of p / t^k."""
    sympy = pytest.importorskip("sympy")
    from lieembed.exactlin import _squarefree_parts
    t = sympy.Symbol("t")
    rng = random.Random(2122)
    wide = _product_one_to_38()
    cases = [wide, wide * QPoly([-1, 1]), wide * QPoly([4, -4, 1])]
    for _ in range(40):
        p = QPoly([0] * rng.randint(0, 3) + [rng.choice((1, F(-2, 3)))])
        for a in rng.sample(range(1, 30), rng.randint(1, 5)):
            a = F(rng.choice((-1, 1)) * a, rng.choice((1, 1, 2, 5)))
            for _ in range(rng.randint(1, 4)):
                p = p * QPoly([-a, 1])
        cases.append(p)
    yun = 0
    for p in cases:
        k, prime, parts = _squarefree_parts(p.primitive())
        zeros = next(i for i, c in enumerate(p.coeffs) if c)
        expr = sum(sympy.Rational(c.numerator, c.denominator) * t ** (i - zeros)
                   for i, c in enumerate(p.coeffs))
        want = set()
        for g, m in sympy.Poly(expr, t).sqf_list()[1]:
            g = sympy.Poly(g, t).clear_denoms()[1].primitive()[1].all_coeffs()[::-1]
            want.add((tuple(int(c) * (1 if g[-1] > 0 else -1) for c in g), m))
        assert k == zeros and {(tuple(g), m) for g, m in parts} == want, p
        yun += prime is None
    assert yun >= 35


def test_nilpotent_spectrum_tries_no_prime(wave15, monkeypatch):
    """A nilpotent spectrum, and its roots, take no squarefree prime."""
    from lieembed import exactlin
    from lieembed.liecore import Spectrum
    calls = []
    real = exactlin._squarefree_prime
    monkeypatch.setattr(exactlin, "_squarefree_prime",
                        lambda f, tries=12: calls.append(f) or real(f, tries))
    L = LieAlgebra(wave15.dim, wave15.basis_names, wave15.brackets, name="cold")
    for s in [Spectrum((0,) * k + (1,)) for k in range(1, 5)] + [
            spectrum(L, L.basis_vector(b)) for b in ("e8", "e10", "e11")]:
        assert s.nilpotent and s.kind == NILPOTENT
        assert s.roots == [(0, len(s.min_poly) - 1)]
    assert calls == []
    assert not Spectrum((-2, 0, 1)).nilpotent and len(calls) == 1
