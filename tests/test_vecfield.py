"""Vector fields, catalogs, structure-constant extraction and invariant
counts."""

import random
from fractions import Fraction as F

import pytest

from lieembed.errors import NotClosed, VariableMismatch
from lieembed.exactlin import vec_is_zero, vec_scale
from lieembed.liecore import killing_signature
from lieembed.vecfield import (GeneratorCatalog, MPoly, PolyVectorField,
                               algebra_by_name, catalog_by_name, g2_catalog,
                               invariant_count, so_pq_generators,
                               structure_constants, vf_bracket,
                               wave15_catalog, wave16_catalog)


def _mk_field(name, nvars, comps):
    return PolyVectorField(name, tuple(f"x{i}" for i in range(nvars)),
                           tuple(comps))


def test_vf_bracket_constant_coefficient():
    # [d_t, t d_y] = d_y over (t, y)
    t = MPoly.var(0, 2)
    one = MPoly.const(1, 2)
    zero = MPoly(2, {})
    dt = _mk_field("dt", 2, [one, zero])
    tdy = _mk_field("tdy", 2, [zero, t])
    out = vf_bracket(dt, tdy)
    assert out.components == (zero, one)


def test_vf_bracket_variable_mismatch():
    a = PolyVectorField("a", ("x",), (MPoly.const(1, 1),))
    b = PolyVectorField("b", ("y",), (MPoly.const(1, 1),))
    with pytest.raises(VariableMismatch):
        vf_bracket(a, b)


def test_vf_bracket_wave_entry(wave15):
    cat = wave16_catalog()
    w = vf_bracket(cat.field("e1"), cat.field("e2"))
    # -(1/2) e9 as a vector field
    e9 = cat.field("e9")
    assert w.components == tuple(F(-1, 2) * c for c in e9.components)


def test_vf_bracket_g2_entry():
    cat = g2_catalog()
    w = vf_bracket(cat.field("X2"), cat.field("X5"))
    x1 = cat.field("X1")
    assert w.components == tuple(4 * c for c in x1.components)


def test_vf_bracket_antisymmetry_jacobi_random():
    cat = wave16_catalog()
    rng = random.Random(4)
    fields = list(cat.fields)
    for _ in range(10):
        u, v, w = (rng.choice(fields) for _ in range(3))
        uv = vf_bracket(u, v)
        vu = vf_bracket(v, u)
        assert all((a + b).is_zero() for a, b in zip(uv.components, vu.components))
        jac = vf_bracket(u, vf_bracket(v, w)).components
        jac2 = vf_bracket(v, vf_bracket(w, u)).components
        jac3 = vf_bracket(w, uv).components
        assert all((a + b + c).is_zero() for a, b, c in zip(jac, jac2, jac3))


def test_structure_constants_tables_bit_exact(golden_corpus):
    expected = {c["catalog"]: c["expect"] for c in golden_corpus["cases"]
                if c["kind"] == "table"}
    assert structure_constants(wave16_catalog()).to_json() == expected["wave16"]
    assert structure_constants(g2_catalog()).to_json() == expected["g2"]


def test_structure_constants_commuting_translations():
    nv = 2
    zero = MPoly(nv, {})
    one = MPoly.const(1, nv)
    cat = GeneratorCatalog("trans", ("x", "y"),
                           (_mk_field("dx", 2, [one, zero]),
                            _mk_field("dy", 2, [zero, one])))
    L = structure_constants(cat)
    assert L.brackets == {}


def test_structure_constants_not_closed():
    # <d_x, x^2 d_x> is not closed: bracket gives 2x d_x
    x = MPoly.var(0, 1)
    one = MPoly.const(1, 1)
    cat = GeneratorCatalog("bad", ("x",),
                           (PolyVectorField("a", ("x",), (one,)),
                            PolyVectorField("b", ("x",), (x * x,))))
    with pytest.raises(NotClosed):
        structure_constants(cat)


def test_structure_constants_leaves_span_known_monomials():
    # [x d_y, d_x + d_y] = -d_y: every monomial is known, yet -d_y is not
    # in the span of the two fields
    x = MPoly.var(0, 2)
    one = MPoly.const(1, 2)
    zero = MPoly(2, {})
    cat = GeneratorCatalog("skew", ("x0", "x1"),
                           (_mk_field("a", 2, [zero, x]),
                            _mk_field("b", 2, [one, one])))
    with pytest.raises(NotClosed, match="leaves the span$") as info:
        structure_constants(cat)
    assert info.value.pair == ("a", "b")
    assert info.value.residual is None


def test_structure_constants_dependent_fields():
    one = MPoly.const(1, 1)
    cat = GeneratorCatalog("twice", ("x",),
                           (PolyVectorField("a", ("x",), (one,)),
                            PolyVectorField("b", ("x",), (2 * one,))))
    with pytest.raises(ValueError, match="fields are dependent"):
        structure_constants(cat)


def test_wave15_closure_and_identity(wave15):
    assert wave15.dim == 15
    names = wave15.basis_names
    assert names[6] == "e7m16"
    # e16 is central in the 16-dim algebra; the 15-dim one is semisimple
    from lieembed.liecore import radical
    assert radical(wave15).dim == 0


def test_wave15_consistent_with_wave16(wave15, wave16):
    # brackets in the 15-dim basis agree with the 16-dim table after the
    # e7 -> e7 - e16 substitution
    from lieembed.exactlin import vec_sub, unit_vector
    lift = {}
    for k, name in enumerate(wave15.basis_names):
        if name == "e7m16":
            lift[k] = vec_sub(wave16.basis_vector("e7"), wave16.basis_vector("e16"))
        else:
            lift[k] = wave16.basis_vector(name)

    def lift_vec(v15):
        out = tuple([F(0)] * 16)
        from lieembed.exactlin import vec_add, vec_scale
        for k, c in enumerate(v15):
            if c:
                out = vec_add(out, vec_scale(c, lift[k]))
        return out

    for i in range(15):
        for j in range(i + 1, 15):
            small = wave15.bracket(unit_vector(15, i), unit_vector(15, j))
            big = wave16.bracket(lift[i], lift[j])
            assert lift_vec(small) == big


def test_restricted_roots_noninvariant_ambient(wave15):
    from lieembed.errors import NotATorus
    from lieembed.liecore import Subspace
    from lieembed.rootsys import restricted_roots
    E = wave15.basis_vector
    bad_ambient = Subspace(wave15, [E("e8")])  # not ad(e2)-invariant
    with pytest.raises(NotATorus):
        restricted_roots(bad_ambient, [E("e2")])


def test_so_pq_bases(so4, so13, so22):
    assert so4.dim == so13.dim == so22.dim == 6
    # so(4): all generators are E_ij - E_ji; Killing definite
    assert killing_signature(so4) == (0, 6, 0)
    assert killing_signature(so22)[0] > 0  # indefinite
    # so(1,3): e1 = E_12 + E_21 (sign pattern of the metric)
    from lieembed.exactlin import eigenvalues
    ev = eigenvalues(so13.ad(so13.basis_vector("e1")))
    assert ev == [(F(-1), 2), (F(0), 2), (F(1), 2)]


def test_so_pq_closure_random():
    for (p, q) in ((3, 0), (2, 1), (3, 2)):
        L = so_pq_generators(p, q)
        n = (p + q) * (p + q - 1) // 2
        assert L.dim == n  # construction validated Jacobi already


def test_algebra_by_name():
    assert algebra_by_name("so(2,2)").name == "so(2,2)"
    assert algebra_by_name("wave15").dim == 15
    with pytest.raises(KeyError):
        algebra_by_name("nope")


# --- invariant counts ---------------------------------------------------------------

def _combination(cat, spec):
    names = [f.name for f in cat.fields]
    coeffs = [F(0)] * len(names)
    for coef, name in spec:
        coeffs[names.index(name)] = F(coef)
    return cat.combination(coeffs)


SIMILARITY_CASES = [
    ("L1,0", [[(1, "e8")], [(1, "e10")], [(1, "e11")]], 2),
    ("L2,0", [[(1, "e2")], [(1, "e7"), (-1, "e16")], [(1, "e14")]], 2),
    ("L3,0", [[(1, "e12"), (F(1, 2), "e5")], [(1, "e9"), (4, "e8")], [(1, "e15")]], 2),
    ("L1,1", [[(1, "e2")], [(1, "e7"), (-1, "e16")], [(1, "e8"), (1, "e10")]], 2),
    ("L2,1", [[(1, "e12")], [(-1, "e6"), (1, "e13")], [(-1, "e8"), (1, "e10")]], 3),
    ("L1,2", [[(1, "e7"), (-1, "e16")], [(1, "e11")], [(1, "e12")]], 2),
    ("L2,2", [[(1, "e2")], [(1, "e8"), (1, "e10")], [(1, "e8"), (-1, "e10")]], 3),
    ("L3,2", [[(1, "e14")], [(1, "e11")], [(1, "e12")]], 3),
    ("L4,2", [[(1, "e14")], [(-1, "e6"), (1, "e13")], [(-1, "e4"), (1, "e15")]], 3),
    ("L1,3", [[(1, "e15")], [(1, "e14")], [(1, "e13")]], 3),
    ("L2,3", [[(1, "e7"), (-1, "e16")], [(1, "e8")], [(1, "e9")]], 3),
    ("L3,3", [[(1, "e1"), (2, "e10"), (2, "e14")],
              [(-1, "e3"), (-2, "e11"), (2, "e13")],
              [(-4, "e5"), (-8, "e12"), (-8, "e15")]], 2),
]


@pytest.mark.parametrize("name,specs,expected",
                         SIMILARITY_CASES, ids=[c[0] for c in SIMILARITY_CASES])
def test_invariant_counts_similarity_subalgebras(name, specs, expected):
    cat = wave16_catalog()
    fields = [_combination(cat, s) for s in specs]
    assert invariant_count(fields, 5) == expected


def test_invariant_count_empty_and_monotone():
    cat = wave16_catalog()
    assert invariant_count([], 5) == 5
    fields = []
    previous = 5
    for name in ("e8", "e10", "e11", "e12", "e7"):
        fields.append(cat.field(name))
        count = invariant_count(fields, 5)
        assert count <= previous
        previous = count
    assert previous == 1  # only u survives all five frames


def test_catalog_json_roundtrip():
    cat = wave16_catalog()
    obj = cat.to_json()
    assert obj["vars"] == ["t", "x", "y", "z", "u"]
    f = cat.field("e9")
    back = MPoly.from_json(f.components[0].to_json(), 5)
    assert back == f.components[0]
