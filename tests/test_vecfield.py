"""Vector fields, catalogs, structure-constant extraction and invariant
counts."""

import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from lieembed import vecfield
from lieembed.errors import NotClosed, VariableMismatch
from lieembed.exactlin import vec_is_zero
from lieembed.liecore import killing_signature
from lieembed.vecfield import (GeneratorCatalog, MPoly, PolyVectorField,
                               algebra_by_name, catalog_by_name, g2_catalog,
                               invariant_count, so_pq_generators,
                               structure_constants, vf_bracket,
                               wave15_catalog, wave16_catalog)
from matrixops import ad, solve_linear
from polyref import QMatrix, reference_char_poly
from test_liecore import vec_add, vec_scale, vec_sub
from vfref import (combination_reference, invariant_count_reference,
                   so_pq_reference)


def _mk_field(name, nvars, comps):
    return PolyVectorField(name, tuple(f"x{i}" for i in range(nvars)),
                           tuple(comps))


def _ref_apply(v, f):
    """Derivation: sum_j v_j * d f / d x_j, in MPoly arithmetic."""
    out = MPoly(len(v.variables), {})
    for j, comp in enumerate(v.components):
        if not comp.is_zero():
            out = out + comp * f.diff(j)
    return out


def _ref_vf_bracket(v, w):
    """The bracket before the packed integer kernel: MPoly arithmetic."""
    if v.variables != w.variables:
        raise VariableMismatch(f"{v.variables} vs {w.variables}")
    comps = tuple(_ref_apply(v, wc) - _ref_apply(w, vc)
                  for vc, wc in zip(v.components, w.components))
    return PolyVectorField(f"[{v.name},{w.name}]", v.variables, comps)


def _typed_terms(field):
    return [sorted((e, c, type(c)) for e, c in comp.terms.items())
            for comp in field.components]


def _assert_same_bracket(v, w):
    got, want = vf_bracket(v, w), _ref_vf_bracket(v, w)
    assert got.name == want.name and got.variables == want.variables
    assert [c.nvars for c in got.components] == [c.nvars for c in want.components]
    assert _typed_terms(got) == _typed_terms(want)


@pytest.mark.parametrize("catalog", [wave16_catalog, wave15_catalog, g2_catalog])
def test_vf_bracket_matches_reference_catalog_pairs(catalog):
    fields = catalog().fields
    for v in fields:
        for w in fields:
            _assert_same_bracket(v, w)


@pytest.mark.parametrize("catalog", [wave16_catalog, wave15_catalog, g2_catalog])
def test_vf_bracket_matches_reference_random_combinations(catalog):
    cat = catalog()
    rng = random.Random(10)
    for _ in range(12):
        v, w = (cat.combination(
            [F(rng.randint(-9, 9), rng.randint(1, 97)) if rng.random() < 0.4 else 0
             for _ in cat.fields]) for _ in range(2))
        _assert_same_bracket(v, w)


def test_vf_bracket_matches_reference_high_degree():
    # exponents of 300 and more need more than 8 bits per packed exponent
    x, y, z = (MPoly.var(i, 3) for i in range(3))
    big = x
    for _ in range(299):
        big = big * x
    v = _mk_field("v", 3, [big * y + F(1, 3), F(2, 7) * big * big * z, y * z])
    w = _mk_field("w", 3, [F(5, 11) * big * x, x * y * y, big * z * z + x])
    assert max(sum(e) for comp in v.components for e in comp.terms) >= 300
    _assert_same_bracket(v, w)
    _assert_same_bracket(w, v)


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


def test_structure_constants_wave15_matches_reference_table():
    # coordinates of every reference bracket in the catalog fields
    cat = wave15_catalog()
    fields = cat.fields
    keys = sorted({(i, e) for f in fields for i, comp in enumerate(f.components)
                   for e in comp.terms})
    m = QMatrix.from_columns([[f.components[i].terms.get(e, F(0)) for i, e in keys]
                             for f in fields])
    want = {}
    for a in range(len(fields)):
        for b in range(a + 1, len(fields)):
            w = _ref_vf_bracket(fields[a], fields[b])
            assert all(e in {k[1] for k in keys if k[0] == i}
                       for i, comp in enumerate(w.components) for e in comp.terms)
            sol = solve_linear(m, [w.components[i].terms.get(e, F(0)) for i, e in keys])
            comp = {k: c for k, c in enumerate(sol) if c}
            if comp:
                want[(a, b)] = comp
    got = structure_constants(cat).brackets
    assert got == want
    assert {type(c) for comp in got.values() for c in comp.values()} == {F}


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
    with pytest.raises(NotClosed) as info:
        structure_constants(cat)
    assert str(info.value) == "[a, b] leaves the span (new monomial in component 0)"
    assert info.value.pair == ("a", "b")
    assert info.value.residual == (0, (1,), F(2))
    assert type(info.value.residual[2]) is F


def test_structure_constants_not_closed_first_term_graded_lex():
    # [d_x, (x^2 + x y^3) d_x + x d_y] = (2x + y^3) d_x + d_y: three new
    # terms; the first in (component, graded-lex) order is 2x in component 0
    # (plain lex order would pick y^3, degree first the 1 in component 1)
    x, y = MPoly.var(0, 2), MPoly.var(1, 2)
    one = MPoly.const(1, 2)
    zero = MPoly(2, {})
    cat = GeneratorCatalog("bad2", ("x0", "x1"),
                           (_mk_field("a", 2, [one, zero]),
                            _mk_field("b", 2, [x * x + x * y * y * y, x])))
    with pytest.raises(NotClosed) as info:
        structure_constants(cat)
    assert str(info.value) == "[a, b] leaves the span (new monomial in component 0)"
    assert info.value.pair == ("a", "b")
    comp, exps, coef = info.value.residual
    assert (comp, exps, coef) == (0, (1, 0), F(2))
    assert type(exps) is tuple and all(type(k) is int for k in exps)
    assert type(coef) is F


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
    from lieembed.exactlin import unit_vector
    lift = {}
    for k, name in enumerate(wave15.basis_names):
        if name == "e7m16":
            lift[k] = vec_sub(wave16.basis_vector("e7"), wave16.basis_vector("e16"))
        else:
            lift[k] = wave16.basis_vector(name)

    def lift_vec(v15):
        out = tuple([F(0)] * 16)
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
    from lieembed.exactlin import factor_roots
    ev = factor_roots(reference_char_poly(ad(so13, so13.basis_vector("e1"))).coeffs)
    assert ev == [(F(-1), 2), (F(0), 2), (F(1), 2)]


def test_so_pq_closure_random():
    for (p, q) in ((3, 0), (2, 1), (3, 2)):
        L = so_pq_generators(p, q)
        n = (p + q) * (p + q - 1) // 2
        assert L.dim == n  # construction validated Jacobi already


@pytest.mark.parametrize("n", range(2, 8))
def test_so_pq_matches_matrix_commutators(n):
    """Every so(p, q) with p + q = n has the brackets and JSON of the
    Fraction matrix commutators of its generators."""
    for p in range(n + 1):
        got, want = so_pq_generators(p, n - p), so_pq_reference(p, n - p)
        assert got.brackets == want.brackets
        assert got.to_json() == want.to_json()


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


def _points_evaluated(monkeypatch, fields, n_vars):
    """(count, points) with one RREF per evaluated point."""
    calls = []
    real = vecfield.rref

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(vecfield, "rref", counting)
    count = invariant_count(fields, n_vars)
    monkeypatch.undo()
    return count, len(calls)


# the first point (the primes) already reaches the rank cap
# min(fields, components) = 3 of these six; the others take all five points
ONE_POINT = {"L1,0", "L2,0", "L3,0", "L1,1", "L1,2", "L3,3"}


@pytest.mark.parametrize("name,specs,expected",
                         SIMILARITY_CASES, ids=[c[0] for c in SIMILARITY_CASES])
def test_invariant_counts_similarity_subalgebras(monkeypatch, name, specs, expected):
    cat = wave16_catalog()
    fields = [_combination(cat, s) for s in specs]
    assert _points_evaluated(monkeypatch, fields, 5) == (
        expected, 1 if name in ONE_POINT else 5)


def test_invariant_count_cap_is_the_number_of_components(monkeypatch):
    """Six fields on five variables reach rank 5 at the first point and
    stop there: the cap is min(len(fields), components), not len(fields)."""
    cat = wave16_catalog()
    fields = [cat.field(n) for n in ("e8", "e10", "e11", "e12", "e16", "e7")]
    assert _points_evaluated(monkeypatch, fields, 5) == (0, 1)
    assert _points_evaluated(monkeypatch, fields[:5], 5) == (0, 1)
    assert _points_evaluated(monkeypatch, fields[:4], 5) == (1, 1)


def test_invariant_count_cap_ignores_a_smaller_n_vars():
    """e6, e7, e10, e11 with n_vars = 3 have rank 3 at the first point and
    4 at the second: the cap comes from the five components, so a caller's
    smaller n_vars does not stop the points early."""
    cat = wave16_catalog()
    fields = [cat.field(n) for n in ("e6", "e7", "e10", "e11")]
    assert invariant_count(fields, 3) == invariant_count_reference(fields, 3) == -1


def _keys(field):
    return {(i, e) for i, comp in enumerate(field.components) for e in comp.terms}


def _cancelling_pair(rng, cat):
    """Coefficients of a combination of two catalog fields in which one
    shared (component, monomial) term cancels; None if no pair shares one."""
    fields = cat.fields
    pairs = [(a, b, key) for a in range(len(fields)) for b in range(a + 1, len(fields))
             for key in _keys(fields[a]) & _keys(fields[b])]
    if not pairs:
        return None
    a, b, (i, e) = rng.choice(pairs)
    coeffs = [F(0)] * len(fields)
    coeffs[a] = fields[b].components[i].terms[e]
    coeffs[b] = -fields[a].components[i].terms[e]
    return coeffs


def _random_field_sets(cat, seed, count):
    """Lists of 1-6 fields: random rational combinations of a few catalog
    fields, the zero combination, repeats and multiples of earlier ones,
    differences of earlier coefficient vectors and two-field combinations
    with a cancelling term."""
    rng = random.Random(seed)
    n = len(cat.fields)
    for _ in range(count):
        support = rng.sample(range(n), rng.randint(1, 4))
        vectors = []
        for _ in range(rng.randint(1, 6)):
            kind = rng.random()
            if kind < 0.1:
                c = [F(0)] * n
            elif kind < 0.3 and vectors:
                c = [F(rng.choice((1, -2, 3))) * x for x in rng.choice(vectors)]
            elif kind < 0.45 and len(vectors) >= 2:
                u, v = rng.sample(vectors, 2)
                c = [x - y for x, y in zip(u, v)]
            elif kind < 0.6:
                c = _cancelling_pair(rng, cat) or [F(0)] * n
            else:
                c = [F(0)] * n
                for k in support:
                    if rng.random() < 0.8:
                        c[k] = F(rng.randint(-9, 9), rng.randint(1, 9))
            vectors.append(c)
        yield [cat.combination(c) for c in vectors]


@pytest.mark.parametrize("catalog", [wave16_catalog, g2_catalog])
def test_invariant_count_matches_fraction_evaluation(catalog):
    """The evaluation with its early stop counts what the evaluation at
    all five points counts."""
    cat = catalog()
    nv = len(cat.variables)
    counts = set()
    for fields in _random_field_sets(cat, seed=22, count=150):
        want = invariant_count_reference(fields, nv)
        assert invariant_count(fields, nv) == want, [f.name for f in fields]
        counts.add(want)
    assert len(counts) >= 3


def test_invariant_count_matches_fraction_evaluation_on_three_field_spans(monkeypatch):
    """Three random combinations of each three wave16 fields.  Many of
    these spans (e1, e2, e9 among them) stay below rank 3 at the first
    point, so the later rational points decide."""
    cat = wave16_catalog()
    rng = random.Random(25)
    n = len(cat.fields)
    past_first = 0
    for support in combinations(range(n), 3):
        vectors = [[F(0)] * n for _ in range(3)]
        for c in vectors:
            for k in support:
                c[k] = F(rng.randint(-9, 9) or 1, rng.randint(1, 9))
        fields = [cat.combination(c) for c in vectors]
        count, points = _points_evaluated(monkeypatch, fields, 5)
        assert count == invariant_count_reference(fields, 5), support
        past_first += points > 1
    assert past_first >= 10


def test_invariant_count_matches_fraction_evaluation_similarity_cases():
    """The similarity cases with each field scaled and a dependent field
    added: the same counts as the evaluation at all five points."""
    cat = wave16_catalog()
    rng = random.Random(23)
    for _, specs, expected in SIMILARITY_CASES:
        scales = [F(rng.randint(-9, 9) or 1, rng.randint(1, 9)) for _ in specs]
        fields = [_combination(cat, [(k * F(c), name) for c, name in s])
                  for k, s in zip(scales, specs)]
        assert invariant_count(fields, 5) == invariant_count_reference(fields, 5) == expected
        extra = fields + [_combination(cat, specs[0] + specs[1])]
        assert invariant_count(extra, 5) == invariant_count_reference(extra, 5)


@pytest.mark.parametrize("catalog", [wave16_catalog, wave15_catalog, g2_catalog])
def test_combination_matches_mpoly_sum(catalog):
    cat = catalog()
    rng = random.Random(24)
    n = len(cat.fields)
    vectors = [[F(0)] * n, [F(1)] * n]
    for _ in range(40):
        vectors.append([F(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.3
                        else F(0) for _ in range(n)])
        vectors.append(_cancelling_pair(rng, cat) or vectors[-1])
    for c in vectors:
        got, want = cat.combination(c), combination_reference(cat, c)
        assert got.name == want.name and got.variables == want.variables
        assert got.components == want.components


def test_combination_cancels_to_zero():
    """e7 - e16 - e7m16 over wave16's fields and wave15's e7m16: every
    term cancels, and no zero coefficient is kept."""
    base = wave16_catalog()
    cat = GeneratorCatalog("mixed", base.variables,
                           base.fields + (wave15_catalog().field("e7m16"),))
    coeffs = [F(0)] * len(cat.fields)
    coeffs[6], coeffs[15], coeffs[16] = F(1), F(-1), F(-1)
    got = cat.combination(coeffs)
    assert got.name == "1*e7+-1*e16+-1*e7m16"
    assert got.is_zero() and all(c.terms == {} for c in got.components)
    assert got.components == combination_reference(cat, coeffs).components


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
