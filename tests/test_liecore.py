"""Structural operations: brackets, Killing data, centralizers, radicals,
Levi and Jordan decompositions, element classification."""

import random
from fractions import Fraction as F

import pytest

from lieembed.errors import (CenterObstruction, ExtensionDegreeTooHigh,
                             InvalidStructureConstants, NotATorus)
from lieembed.exactlin import (Matrix, determinant, factor_roots, kernel,
                               row_space_basis, solve_linear, unit_vector,
                               vec_add, vec_is_zero, vec_scale, vec_sub)
from lieembed.liecore import (COMPACT_SEMISIMPLE, GENERAL, MIXED_SEMISIMPLE,
                              NILPOTENT, REAL_SEMISIMPLE, LieAlgebra, Subspace,
                              center, centralizer, classify_element,
                              derived_algebra, is_ad_nilpotent,
                              is_negative_definite, jordan_decomposition,
                              killing_signature, levi_decomposition,
                              normalizer, radical, restricted_killing_signature,
                              spectrum, subalgebra_generated, torus_split)


def span(L, *vs):
    return Subspace(L, vs)


def _rand_element(L, rng, support=3, lo=-2, hi=2):
    v = [F(0)] * L.dim
    for i in rng.sample(range(L.dim), min(support, L.dim)):
        v[i] = F(rng.randint(lo, hi))
    return tuple(v)


# --- brackets and ad ----------------------------------------------------------

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
    assert wave15.ad(tuple([F(0)] * 15)).is_zero()
    assert is_ad_nilpotent(wave15, wave15.basis_vector("e8"))


def test_ad_diagonal_on_g2_pair(g2):
    h = vec_add(g2.basis_vector("X8"), g2.basis_vector("X6"))
    x5, x10 = g2.basis_vector("X5"), g2.basis_vector("X10")
    assert g2.bracket(h, x5) == vec_scale(2, x5)
    assert g2.bracket(h, x10) == vec_scale(-2, x10)


# --- Killing form ---------------------------------------------------------------

def test_killing_abelian_is_zero():
    ab = LieAlgebra(2, ["a", "b"], {})
    assert ab.killing_matrix().is_zero()
    assert killing_signature(ab) == (0, 0, 2)


def test_killing_so3(so3):
    assert so3.killing_matrix() == Matrix([[-2, 0, 0], [0, -2, 0], [0, 0, -2]])
    assert killing_signature(so3) == (0, 3, 0)


def test_killing_g2_nondegenerate(g2):
    assert determinant(g2.killing_matrix()) != 0


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
    assert wave15.ad(pair.semisimple) + wave15.ad(pair.nilpotent) == wave15.ad(x)


def test_jordan_invariants_random(wave15, g2):
    from lieembed.exactlin import min_poly, poly_gcd
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
            mp = min_poly(L.ad(pair.semisimple))
            assert poly_gcd(mp, mp.derivative()).degree == 0


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
    monkeypatch.setattr(liecore, "min_poly", analysed.append)
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
    with pytest.raises(NotATorus):
        torus_split(wave15, span(wave15, E("e2"), E("e4")))  # not abelian
    with pytest.raises(NotATorus):
        torus_split(wave15, span(wave15, E("e8")))  # nilpotent


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
    to_f = Matrix.from_columns(f)
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
        ads = [L.ad(L.basis_vector(i)) for i in range(L.dim)]
        want = Matrix([[(ads[i] @ ads[j]).trace() for j in range(L.dim)]
                       for i in range(L.dim)])
        assert L.killing_matrix() == want
        assert all(type(x) is F for row in L.killing_matrix().entries for x in row)


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


# --- the integer kernel against the Fraction loops it replaced ----------------
# Reference copies of the Fraction loops of LieAlgebra.bracket/ad and
# Subspace.reduce/coords_of/from_coords/restrict before they ran on the
# integer table; outputs must agree in value and in entry type.

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
    return Matrix.from_columns([_ref_bracket(L, x, L.basis_vector(j))
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
    return Matrix.from_columns(cols)


def _typed(v):
    """Entries with their types, so that 1/2 and an ExactScalar differ."""
    if v is None:
        return None
    if isinstance(v, Matrix):
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
    """bracket, ad, reduce, coords_of, from_coords and restrict against the
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
                assert _typed(L.ad(x)) == _typed(_ref_ad(L, x))
                assert _typed(L.ad(zero)) == _typed(_ref_ad(L, zero))
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
        m = L.ad(x)
        assert _typed(S.restrict(m)) == _typed(_ref_restrict(S, m))
    outside = span(so4, so4.basis_vector("e2"))
    with pytest.raises(ValueError, match="not invariant"):
        outside.restrict(so4.ad(so4.basis_vector("e1")))


def test_bracket_rejects_two_extensions(so4):
    from lieembed.exactlin import make_scalar
    x = tuple(make_scalar(0, 1, -1) if i == 0 else F(0) for i in range(so4.dim))
    y = tuple(make_scalar(0, 1, 2) if i == 1 else F(0) for i in range(so4.dim))
    with pytest.raises(ExtensionDegreeTooHigh):
        so4.bracket(x, y)


def test_scaled_table_is_built_once(wave15):
    L = LieAlgebra(wave15.dim, wave15.basis_names, wave15.brackets)
    table = L.scaled_table()
    L.killing_matrix()
    L.bracket(L.basis_vector(0), L.basis_vector(1))
    L.ad(L.basis_vector(2))
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
    der = row_space_basis(der_rows, k)
    if not der:
        return sub
    K = inner.killing_matrix()
    rad_coords = kernel(Matrix([K.apply(d) for d in der]))
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
    dims = set()
    for obj in cases:
        got, want = radical(obj), _ref_radical(obj)
        assert [_typed(r) for r in got.rows] == [_typed(r) for r in want.rows]
        dims.add((got.dim, obj.dim))
    # semisimple, reductive, solvable and mixed cases all occur
    assert {(0, 14), (1, 16), (8, 8), (5, 11)} <= dims


def test_radical_of_semisimple_algebra_copies_nothing(g2, monkeypatch):
    import lieembed.liecore as liecore
    rng = random.Random(8081)
    L = LieAlgebra(g2.dim, g2.basis_names, _table_in_basis(g2, _dense_basis(g2, rng)))
    k = L.dim
    copies, brackets, fed = [], [], set()
    monkeypatch.setattr(Subspace, "as_subalgebra",
                        lambda self: copies.append(self))
    real_bracket, real_basis = LieAlgebra._bracket_ints, liecore.row_space_basis
    monkeypatch.setattr(LieAlgebra, "_bracket_ints",
                        lambda self, x, y: brackets.append(x) or real_bracket(self, x, y))

    def basis(vectors, width):
        vectors = list(vectors)
        fed.update(vectors)
        return real_basis(vectors, width)
    monkeypatch.setattr(liecore, "row_space_basis", basis)
    assert radical(L).dim == 0
    assert copies == [] and brackets == []
    # the stored brackets that reached a row reduction: about k of them
    stored = {tuple(c.get(t, F(0)) for t in range(k)) for c in L.brackets.values()}
    assert len(stored) > k * (k - 1) // 3  # a dense table
    assert len(fed & stored) <= 2 * k < k * (k - 1) // 2


def test_spectrum_roots_are_the_factored_min_poly(wave15, g2):
    rng = random.Random(8082)
    for L in (wave15, g2):
        elements = ([L.basis_vector(i) for i in range(L.dim)] +
                    [_rand_element(L, rng) for _ in range(10)])
        for x in elements:
            s = spectrum(L, x)
            try:
                want = factor_roots(s.min_poly, single_extension=False)
            except ExtensionDegreeTooHigh:
                with pytest.raises(ExtensionDegreeTooHigh):
                    s.roots
                continue
            assert [(_typed([r]), m) for r, m in s.roots] == \
                [(_typed([r]), m) for r, m in want]
            assert s.roots is s.roots  # factored once, kept


# --- Jordan pull-back against the stacked solve it replaced ------------------

def _ref_jordan(L, x):
    """(semisimple, nilpotent, center_obstructed) by solving the stacked
    ad-basis system with solve_linear on every call, and the center from
    its kernel."""
    from lieembed.exactlin import Poly
    from lieembed.liecore import _semisimple_poly
    m = L.ad(x)
    p = _semisimple_poly(spectrum(L, x))
    s_mat = m if p == Poly.x() else p.eval_matrix(m)
    stacked = Matrix.from_columns(
        [tuple(c for row in L.ad(unit_vector(L.dim, i)).entries for c in row)
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
    monkeypatch.setattr(liecore, "linear_solver",
                        lambda m: factored.append(m.rows) or real_solver(m))

    def forbidden(*args):
        raise AssertionError("no kernel or solve_linear in the Jordan pull-back")
    monkeypatch.setattr(liecore, "kernel", forbidden)
    monkeypatch.setattr(liecore, "solve_linear", forbidden)
    rng = random.Random(9193)
    heis = LieAlgebra(3, ["x", "y", "z"], {(0, 1): {2: 1}})
    wave = LieAlgebra.from_json(wave15.to_json())  # nothing cached yet
    for L in (heis, wave, heis, wave):
        assert L.center_dim() == (1 if L is heis else 0)
        for _ in range(5):
            jordan_decomposition(L, _rand_element(L, rng))
        assert L.center_dim() == (1 if L is heis else 0)
    assert factored == [9, 225]
