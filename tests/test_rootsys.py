"""Root space decompositions, positivity, bonds and diagram classification."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lieembed.errors import (ExtensionDegreeTooHigh, NotATorus,
                             UnrecognizedBondPattern, UnrecognizedDiagram)
from lieembed.exactlin import (factor_roots, is_complex_positive, make_scalar,
                               min_poly, scalar_d, vec_is_zero, _scaled_rows,
                               _scaled_vector)
from lieembed.liecore import (LieAlgebra, Spectrum, Subspace, normalizer, spectrum,
                              torus_split)
from lieembed.rootsys import (Root, bond, conjugation_pairing, dynkin_type,
                              is_positive, joint_eigenspaces, restricted_roots,
                              root_space_decomposition, simple_roots,
                              sl2_triple)
from matrixops import ad, kernel, scaled, solve_linear
from polyref import QMatrix, reference_char_poly, reference_solve
from test_liecore import (_dense_basis, _rand_element, _ref_restrict, _table_in_basis, _typed,
                          kept_entries, vec_add, vec_scale, vec_sub)

I = make_scalar(0, 1, -1)
MI = make_scalar(0, -1, -1)


def span(L, *vs):
    return Subspace(L, vs)


# --- decompositions -------------------------------------------------------------

def test_so4_decomposition(so4):
    E = so4.basis_vector
    rsd = root_space_decomposition(so4, [E("e1"), E("e6")])
    roots = {tuple(r.values) for r in rsd.roots}
    assert roots == {(I, I), (I, MI), (MI, I), (MI, MI)}
    va = rsd.space_of(Root((I, I)))
    assert va.rows == ((F(0), F(1), I, I, F(-1), F(0)),)
    vb = rsd.space_of(Root((I, MI)))
    assert vb.rows == ((F(0), F(1), MI, I, F(1), F(0)),)
    assert rsd.zero_space == span(so4, E("e1"), E("e6"))
    # real and imaginary parts of V_a, V_b generate commuting so(3)s
    from lieembed.exactlin import scalar_parts
    from lieembed.liecore import killing_signature, subalgebra_generated
    re_a, im_a = zip(*(scalar_parts(x)[:2] for x in va.rows[0]))
    re_b, im_b = zip(*(scalar_parts(x)[:2] for x in vb.rows[0]))
    ka = subalgebra_generated(so4, [re_a, im_a])
    kb = subalgebra_generated(so4, [re_b, im_b])
    assert ka.dim == 3 and kb.dim == 3
    assert killing_signature(ka) == (0, 3, 0) == killing_signature(kb)
    assert all(vec_is_zero(so4.bracket(r, s)) for r in ka.rows for s in kb.rows)


def test_so22_decomposition(so22):
    E = so22.basis_vector
    rsd = root_space_decomposition(so22, [E("e2"), E("e5")])
    e = [E(f"e{k}") for k in range(1, 7)]
    expected = {
        (F(1), F(1)): vec_sub(vec_add(e[0], e[3]), vec_add(e[2], e[5])),
        (F(1), F(-1)): vec_add(vec_add(e[0], e[2]), vec_add(e[3], e[5])),
        (F(-1), F(-1)): vec_sub(vec_add(e[0], e[2]), vec_add(e[3], e[5])),
        (F(-1), F(1)): vec_add(vec_sub(e[0], e[2]), vec_sub(e[5], e[3])),
    }
    for values, vec in expected.items():
        space = rsd.space_of(Root(values))
        assert space is not None and space == span(so22, vec)


def test_abelian_algebra_all_zero_space():
    ab = LieAlgebra(2, ["a", "b"], {})
    rsd = root_space_decomposition(ab, [ab.basis_vector("a"), ab.basis_vector("b")])
    assert rsd.pairs == ()
    assert rsd.zero_space.dim == 2


def test_decomposition_rejects_non_torus(wave15):
    E = wave15.basis_vector
    with pytest.raises(NotATorus, match="element e8 is not semisimple"):
        root_space_decomposition(wave15, [E("e8")])
    with pytest.raises(NotATorus, match="subspace is not abelian"):
        root_space_decomposition(wave15, [E("e2"), E("e4")])


def test_torus_check_commutation_matches_the_bracket(wave15, g2):
    """The torus check's commutation test, summed over the kept ad columns
    of the first element, agrees with the bracket: on random pairs (which
    rarely commute) and on commuting pairs, whose elements the check then
    only needs to be semisimple."""
    from lieembed.liecore import _check_torus
    rng = random.Random(30)
    for L in (_cold(wave15), _cold(g2)):
        pairs = [(_rand_element(L, rng), _rand_element(L, rng)) for _ in range(15)]
        x = _rand_element(L, rng)
        pairs += [(x, vec_scale(F(-2, 3), x)), (x, x)]
        if L.dim == 15:
            E = L.basis_vector
            pairs += [(E("e2"), vec_add(E("e7m16"), E("e14"))), (E("e2"), E("e4"))]
        for x, y in pairs:
            try:
                _check_torus(L, [x, y])
                verdict = ""
            except NotATorus as exc:
                verdict = str(exc)
            assert (verdict == "subspace is not abelian") == (not vec_is_zero(L.bracket(x, y)))


def test_restricted_roots_wave(wave15):
    E = wave15.basis_vector
    ut = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"),
              vec_sub(E("e4"), E("e15")), vec_sub(E("e6"), E("e13")))
    ambient = normalizer(wave15, ut)
    rsd = restricted_roots(ambient, [E("e7m16"), E("e2")])
    dims = {tuple(r.values): s.dim for r, s in rsd.pairs}
    assert dims == {(F(-1), F(0)): 2, (F(-1), F(-1)): 1,
                    (F(-1), F(1)): 1, (F(0), F(1)): 2}
    # eigenspace contents match the worked run
    assert rsd.space_of(Root((F(-1), F(-1)))) == span(wave15, vec_add(E("e8"), E("e10")))
    assert rsd.space_of(Root((F(-1), F(1)))) == span(wave15, vec_sub(E("e8"), E("e10")))
    assert rsd.space_of(Root((F(-1), F(0)))) == span(wave15, E("e11"), E("e12"))
    assert rsd.space_of(Root((F(0), F(1)))) == span(
        wave15, vec_sub(E("e4"), E("e15")), vec_sub(E("e6"), E("e13")))
    assert rsd.zero_space == span(wave15, E("e2"), E("e7m16"), E("e14"))


def test_restricted_roots_g2(g2):
    X = g2.basis_vector
    ut = span(g2, X("X5"), X("X14"), X("X13"), X("X12"), X("X11"), X("X9"))
    rsd = restricted_roots(ut, [X("X6"), X("X8")])
    values = {tuple(r.values) for r in rsd.roots}
    assert values == {(F(1, 2), F(3, 2)), (F(-1), F(0)), (F(-1, 2), F(3, 2)),
                      (F(-1, 2), F(1, 2)), (F(-1, 2), F(-1, 2)), (F(0), F(1))}
    assert all(s.dim == 1 for _, s in rsd.pairs)
    assert rsd.zero_space.dim == 0


def test_torus_on_own_center_only_zero_weights(wave15):
    E = wave15.basis_vector
    A = span(wave15, E("e2"), E("e7m16"))
    zero_ambient = span(wave15, E("e2"), E("e7m16"), E("e14"))
    rsd = restricted_roots(zero_ambient, [E("e7m16"), E("e2")])
    assert rsd.pairs == ()
    assert rsd.zero_space == zero_ambient


def test_grading_property(wave15, so22):
    for L, cartan in ((so22, [so22.basis_vector("e2"), so22.basis_vector("e5")]),
                      (wave15, [wave15.basis_vector("e7m16"),
                                wave15.basis_vector("e2"),
                                wave15.basis_vector("e14")])):
        rsd = root_space_decomposition(L, cartan)
        spaces = {tuple(r.values): s for r, s in rsd.pairs}
        for r, sr in rsd.pairs:
            for s, ss in rsd.pairs:
                total = tuple(a + b for a, b in zip(r.values, s.values))
                for u in sr.rows:
                    for v in ss.rows:
                        w = L.bracket(u, v)
                        if vec_is_zero(w):
                            continue
                        if all(not t for t in total):
                            assert rsd.zero_space.contains(w)
                        else:
                            assert total in spaces, (r, s)
                            assert spaces[total].contains(w)


def test_dimension_count(wave15):
    E = wave15.basis_vector
    rsd = root_space_decomposition(wave15, [E("e7m16"), E("e2"), E("e14")])
    assert sum(s.dim for _, s in rsd.pairs) + rsd.zero_space.dim == wave15.dim


# --- positivity -----------------------------------------------------------------

def test_is_positive():
    assert is_positive(Root((F(1), F(-1))))
    assert is_positive(Root((F(0), I)))
    assert not is_positive(Root((F(-1), F(5))))
    assert is_positive(Root((make_scalar(0, 1, 2),)))  # sqrt(2) > 0
    for values in ((F(1), F(0)), (F(0), MI), (I, I)):
        r = Root(values)
        assert is_positive(r) != is_positive(-r)


def test_positive_negative_bijection(so4):
    E = so4.basis_vector
    rsd = root_space_decomposition(so4, [E("e1"), E("e6")])
    positives = [r for r in rsd.roots if is_positive(r)]
    negatives = [r for r in rsd.roots if not is_positive(r)]
    assert len(positives) == len(negatives) == 2
    assert {(-r).values for r in positives} == {r.values for r in negatives}


# --- simple roots / bonds / diagrams ----------------------------------------------

def _wave_b2_roots():
    a = Root((F(-1), F(0)))
    b = Root((F(-1), F(-1)))
    c = Root((F(-1), F(1)))
    d = Root((F(0), F(1)))
    return a, b, c, d


def test_simple_roots_wave():
    a, b, c, d = _wave_b2_roots()
    simples = simple_roots([a, b, c, d])
    assert {tuple(r.values) for r in simples} == {b.values, d.values}


def test_simple_roots_singleton():
    r = Root((F(1),))
    assert simple_roots([r]) == [r]


def test_positive_roots_are_integer_combinations_of_simples(g2):
    X = g2.basis_vector
    ut = span(g2, X("X5"), X("X14"), X("X13"), X("X12"), X("X11"), X("X9"))
    rsd = restricted_roots(ut, [X("X6"), X("X8")])
    simples = simple_roots(rsd.roots)
    m = QMatrix.from_columns([s.values for s in simples])
    for r in rsd.roots:
        sol = solve_linear(m, r.values)
        assert sol is not None
        assert all(c.denominator == 1 and c >= 0 for c in sol)


def test_bond_rules():
    a, b, c, d = _wave_b2_roots()
    assert bond(b, d, [a, b, c, d]) == (2, 0, 1)   # double, arrow b -> d
    # G2 simple pair
    ga = Root((F(1, 2), F(3, 2)))
    ge = Root((F(-1, 2), F(-1, 2)))
    positives = [ga, ge, Root((F(0), F(1))), Root((F(-1, 2), F(1, 2))),
                 Root((F(-1), F(0))), Root((F(-1, 2), F(3, 2)))]
    assert bond(ga, ge, positives) == (3, 0, 1)
    # orthogonal pair
    pa, pb = Root((I, I)), Root((I, MI))
    assert bond(pa, pb, [pa, pb]) == (0, -1, -1)
    # single bond inside A2
    r1, r2 = Root((F(1), F(0))), Root((F(0), F(1)))
    assert bond(r1, r2, [r1, r2, Root((F(1), F(1)))]) == (1, -1, -1)


def test_bond_unrecognized():
    # a, b, a+b, 2a+2b present: no diagram rule matches
    a, b = Root((F(1), F(0))), Root((F(0), F(1)))
    weird = [a, b, Root((F(1), F(1))), Root((F(2), F(2)))]
    with pytest.raises(UnrecognizedBondPattern):
        bond(a, b, weird)


def _ref_bond(a, b, all_positives):
    """bond as it was: the combinations m*a + n*b in ExactScalar arithmetic
    against the positives' value tuples; an error is returned, not raised."""
    from lieembed import rootsys
    values = {r.values for r in all_positives}
    present = set()
    try:
        for m in range(0, 5):
            for n in range(0, 5):
                if (m, n) in ((0, 0), (1, 0), (0, 1)):
                    continue
                combo = tuple(m * x + n * y for x, y in zip(a.values, b.values))
                if combo in values:
                    present.add((m, n))
    except ExtensionDegreeTooHigh as exc:
        return type(exc)
    rules = {frozenset(): (0, -1, -1), frozenset(rootsys._SINGLE): (1, -1, -1),
             frozenset(rootsys._DOUBLE_AB): (2, 0, 1), frozenset(rootsys._DOUBLE_BA): (2, 1, 0),
             frozenset(rootsys._TRIPLE_AB): (3, 0, 1), frozenset(rootsys._TRIPLE_BA): (3, 1, 0)}
    return rules.get(frozenset(present), UnrecognizedBondPattern)


def _bond_or_error(a, b, all_positives):
    try:
        return bond(a, b, all_positives)
    except (ExtensionDegreeTooHigh, UnrecognizedBondPattern) as exc:
        return type(exc)


def _golden_positives(L, case, cartan):
    """The positive roots of a golden roots case under the ordered torus
    basis ``cartan``, taken as the dynkin request takes them."""
    if case.get("ambient"):
        ambient = Subspace(L, [tuple(F(x) for x in row) for row in case["ambient"]])
        rsd = restricted_roots(ambient, cartan)
    else:
        rsd = root_space_decomposition(L, cartan)
    if case.get("positive_system") == "as-given":
        return rsd.roots
    return [r for r in rsd.roots if is_positive(r)]


def _bond_root_sets(golden_corpus, wave15, g2, so4):
    """(label, positives) for A3 (wave15), B2 (wave15 restricted), G2 (g2
    restricted) and the complex A1xA1 of so(4), each under the golden case's
    torus basis and under a dense basis of the same torus (rows of a unit
    lower times unit upper matrix, entries -1, 0, 1, scaled by 1, 2 or 1/3),
    which changes every root's coordinates."""
    rng = random.Random(3232)
    cases = {c["name"]: c for c in golden_corpus["cases"]}
    out = []
    for name, L in (("wave-absolute-A3", wave15), ("wave-restricted-B2", wave15),
                    ("g2-restricted-G2", g2), ("so4-roots-dynkin", so4)):
        case = cases[name]
        cartan = [tuple(F(x) for x in row) for row in case["cartan"]]
        k = len(cartan)
        lo = [[1 if a == b else rng.choice((-1, 0, 1)) if a > b else 0 for b in range(k)]
              for a in range(k)]
        up = [[1 if a == b else rng.choice((-1, 0, 1)) if a < b else 0 for b in range(k)]
              for a in range(k)]
        P = [[rng.choice((F(1), F(2), F(1, 3))) * sum(lo[a][t] * up[t][b] for t in range(k))
              for b in range(k)] for a in range(k)]
        dense = [tuple(sum(P[a][b] * cartan[b][i] for b in range(k)) for i in range(L.dim))
                 for a in range(k)]
        for label, basis in ((name, cartan), (f"{name} dense", dense)):
            out.append((label, _golden_positives(L, case, basis)))
    return out


def test_bond_matches_exact_scalar_reference(golden_corpus, wave15, g2, so4):
    """bond on int coordinates against the ExactScalar loop it replaced:
    every ordered pair of simple roots and of positive roots of A3, B2, G2
    and so(4)'s complex A1xA1, in the paper's torus bases and dense ones,
    and the same root sets scaled by a nonzero c in Q or Q(sqrt d), under
    which bonds do not change."""
    seen = set()
    for label, positives in _bond_root_sets(golden_corpus, wave15, g2, so4):
        simples = simple_roots(positives)
        fields = {d for r in positives for d in map(scalar_d, r.values) if d}
        scales = [F(1), F(-2, 3), F(5)] + [make_scalar(1, 2, d) for d in fields or (2, -1, 5)]
        for c in scales:
            scaled_positives = [Root(tuple(c * v for v in r.values)) for r in positives]
            by_values = dict(zip((r.values for r in positives), scaled_positives))
            for a in positives:
                for b in positives:
                    if a == b:
                        continue
                    want = _ref_bond(a, b, positives)
                    assert _bond_or_error(a, b, positives) == want, (label, a, b)
                    ca, cb = by_values[a.values], by_values[b.values]
                    assert _bond_or_error(ca, cb, scaled_positives) == want, (label, c, a, b)
                    seen.add((a in simples and b in simples, want))
        assert len(simples) >= 2, label
    # simple pairs take every bond rule; some other pairs match none
    assert {want for simple, want in seen if simple} == {
        (0, -1, -1), (1, -1, -1), (2, 0, 1), (2, 1, 0), (3, 0, 1), (3, 1, 0)}
    assert (False, UnrecognizedBondPattern) in seen


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_bond_matches_exact_scalar_reference_on_random_roots(data):
    """Random a, b over Q or one Q(sqrt d), 1 <= rank <= 3, with positives
    that hold a random set of the combinations m*a + n*b and random other
    roots, some over a second field: the same bond, or the same error."""
    small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    rank = data.draw(st.integers(1, 3))
    d = data.draw(st.sampled_from((0, 2, -1, 5)))

    def root(field):
        values = tuple(make_scalar(data.draw(small), data.draw(small) if field else 0, field)
                       for _ in range(rank))
        assume(any(values))
        return Root(values)

    a, b = root(d), root(d)
    combos = [tuple(m * x + n * y for x, y in zip(a.values, b.values))
              for m in range(5) for n in range(5)]
    picked = data.draw(st.lists(st.sampled_from(combos), max_size=8))
    others = [root(data.draw(st.sampled_from((d, d, 3))))
              for _ in range(data.draw(st.integers(0, 2)))]
    positives = [a, b] + [Root(v) for v in picked if any(v)] + others
    fields = {scalar_d(v) for r in positives for v in r.values} - {0}
    want = ExtensionDegreeTooHigh if len(fields) > 1 else _ref_bond(a, b, positives)
    assert _bond_or_error(a, b, positives) == want


def test_bond_of_roots_over_two_fields_raises_up_front():
    """Values over Q(sqrt 2) and Q(sqrt 3) raise before any combination is
    formed: the ExactScalar loop only raised where a combination added the
    two fields, and here none does."""
    s2, s3 = make_scalar(0, 1, 2), make_scalar(0, 1, 3)
    a, b = Root((s2, F(0))), Root((F(0), s3))
    assert _ref_bond(a, b, [a, b]) == (0, -1, -1)
    with pytest.raises(ExtensionDegreeTooHigh, match="more than one quadratic extension"):
        bond(a, b, [a, b])
    # a rational pair with a positive over a second field
    r1, r2 = Root((F(1), F(0))), Root((F(0), F(1)))
    with pytest.raises(ExtensionDegreeTooHigh):
        bond(r1, r2, [r1, r2, Root((s2, F(1))), Root((s3, F(1)))])
    # one field throughout is fine
    c = Root((s2, s2))
    assert bond(a, c, [a, c]) == _ref_bond(a, c, [a, c]) == (0, -1, -1)

def test_dynkin_labels():
    a, b, c, d = _wave_b2_roots()
    assert dynkin_type(simple_roots([a, b, c, d]), [a, b, c, d]).type_label == "B2"
    pa, pb = Root((I, I)), Root((I, MI))
    assert dynkin_type([pa, pb], [pa, pb]).type_label == "A1xA1"
    # A3 from explicit positives
    s1, s2, s3 = Root((F(1), F(0), F(0))), Root((F(0), F(1), F(0))), Root((F(0), F(0), F(1)))
    pos = [s1, s2, s3, s1.plus(s2), s2.plus(s3), s1.plus(s2).plus(s3)]
    diag = dynkin_type([s1, s2, s3], pos)
    assert diag.type_label == "A3"
    # middle node is s2: degree 2 in the bond graph
    degree = {n: 0 for n in range(3)}
    for (i, j, *_rest) in diag.bonds:
        degree[i] += 1
        degree[j] += 1
    middle = [diag.nodes[n] for n, deg in degree.items() if deg == 2]
    assert middle == [s2]


def test_wave_absolute_a3(wave15):
    E = wave15.basis_vector
    rsd = root_space_decomposition(wave15, [E("e7m16"), E("e2"), E("e14")])
    positives = [r for r in rsd.roots if is_positive(r)]
    assert len(positives) == 6
    a = Root((F(0), F(1), MI))
    b = Root((F(0), F(1), I))
    e = Root((F(1), F(-1), F(0)))
    simples = simple_roots(positives)
    assert {tuple(r.values) for r in simples} == {a.values, b.values, e.values}
    diag = dynkin_type(simples, positives)
    assert diag.type_label == "A3"
    pairing = conjugation_pairing(rsd)
    assert pairing[a] == b and pairing[b] == a and pairing[e] == e


def test_dynkin_unrecognized_cycle():
    # three simples forming a triangle of single bonds: not a tree
    s1, s2, s3 = Root((F(1), F(0))), Root((F(0), F(1))), Root((F(1), F(1)))
    pos = [s1, s2, s3, Root((F(2), F(1))), Root((F(1), F(2))), Root((F(2), F(2)))]
    with pytest.raises((UnrecognizedDiagram, UnrecognizedBondPattern)):
        dynkin_type([s1, s2, s3], pos)


# --- sl2 triples -----------------------------------------------------------------

def test_sl2_triple_g2(g2):
    X = g2.basis_vector
    rsd = root_space_decomposition(g2, [X("X6"), X("X8")])
    a = Root((F(1, 2), F(3, 2)))
    x, y, h = sl2_triple(g2, rsd, a)
    assert x == X("X5")
    assert h == vec_add(X("X8"), X("X6"))
    assert g2.bracket(h, x) == vec_scale(2, x)
    assert g2.bracket(h, y) == vec_scale(-2, y)
    assert g2.bracket(x, y) == h


def test_sl2_triple_so13(so13):
    E = so13.basis_vector
    rsd = root_space_decomposition(so13, [E("e1")], ambient=None)
    one = Root((F(1),))
    x, y, h = sl2_triple(so13, rsd, one)
    assert so13.bracket(x, y) == h
    assert so13.bracket(h, x) == vec_scale(2, x)
    # worked claim, orientation fixed to the matrix realization:
    # [e3+e5, e3-e5] = 2 e1 (the printed pairing gives -2 e1)
    v1 = vec_add(E("e3"), E("e5"))
    v2 = vec_sub(E("e3"), E("e5"))
    assert so13.bracket(v1, v2) == vec_scale(2, E("e1"))
    assert so13.bracket(v1, vec_scale(-1, v2)) == vec_scale(-2, E("e1"))
    # the opposite-eigenvalue pair generates a copy of sl(2, R) and
    # <e4, e5, e6> generates so(3)
    from lieembed.liecore import killing_signature, subalgebra_generated
    rot = subalgebra_generated(so13, [E("e4"), E("e5"), E("e6")])
    assert rot.dim == 3 and killing_signature(rot) == (0, 3, 0)
    boosts = subalgebra_generated(so13, [v1, v2])
    assert boosts.dim == 3 and killing_signature(boosts) == (2, 1, 0)


def test_sl2_triple_so22(so22):
    E = so22.basis_vector
    rsd = root_space_decomposition(so22, [E("e2"), E("e5")])
    x, y, h = sl2_triple(so22, rsd, Root((F(1), F(1))))
    from lieembed.liecore import killing_signature, subalgebra_generated
    triple_alg = subalgebra_generated(so22, [x, y])
    assert triple_alg.dim == 3
    assert killing_signature(triple_alg) == (2, 1, 0)  # sl(2, R)


def test_complete_sl2_matches_a_reference_solve(wave15, g2):
    """sl2_triple on every root of the Cartan that embed_nilpotent builds
    from an empty subspace, on wave15, g2 and so(p, q), 3 <= p+q <= 7,
    q <= p: X is the root space's first row and Y equals the Y of a
    Fraction Gauss-Jordan solve of [[X, w], X] = 2X over the opposite
    space's rows w (free unknowns 0), then H = [X, Y]."""
    from lieembed.embed import embed_nilpotent
    from lieembed.vecfield import so_pq_generators
    algebras = [wave15, g2] + [so_pq_generators(p, q) for p in range(2, 8)
                               for q in range(p + 1) if 3 <= p + q <= 7]
    roots = surd = 0
    for L in algebras:
        _, _, cd, _ = embed_nilpotent(L, Subspace.zero(L))
        decomposition = root_space_decomposition(L, cd.cartan)
        for root in decomposition.roots:
            x, y, h = sl2_triple(L, decomposition, root)
            opposite = decomposition.space_of(-root)
            cols = [L.bracket(L.bracket(x, w), x) for w in opposite.rows]
            coords = reference_solve(QMatrix.from_columns(cols), vec_scale(2, x))
            assert x == decomposition.space_of(root).rows[0], (L.name, root)
            assert y == opposite.from_coords(coords) and h == L.bracket(x, y), (L.name, root)
            roots += 1
            surd += any(scalar_d(c) for c in y)
    assert len(algebras) == 18 and (roots, surd) == (184, 108)


def test_sl2_triple_degenerate_on_one_sided(wave15):
    from lieembed.errors import DegenerateRoot
    E = wave15.basis_vector
    ut = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"),
              vec_sub(E("e4"), E("e15")), vec_sub(E("e6"), E("e13")))
    rsd = restricted_roots(normalizer(wave15, ut), [E("e7m16"), E("e2")])
    # one-sided system: the opposite space is absent
    with pytest.raises(DegenerateRoot):
        sl2_triple(wave15, rsd, Root((F(-1), F(-1))))


def test_compact_cartan_eigenvalues_in_sqrt_minus_two(g2):
    # ad of the first compact generator on the compact subalgebra has
    # eigenvalues in Q(sqrt(-2))
    from lieembed.liecore import subalgebra_generated
    X = g2.basis_vector
    J1 = vec_add(X("X5"), X("X10"))
    J2 = vec_sub(X("X4"), X("X11"))
    K = subalgebra_generated(g2, [J1, J2])
    ev = factor_roots(reference_char_poly(_ref_restrict(K, ad(g2, J1))).coeffs)
    ds = {scalar_d(lam) for lam, _ in ev if scalar_d(lam)}
    assert ds == {-2}


def test_conjugation_so4_negates(so4):
    E = so4.basis_vector
    rsd = root_space_decomposition(so4, [E("e1"), E("e6")])
    pairing = conjugation_pairing(rsd)
    assert all(s == -r for r, s in pairing.items())


def test_conjugation_so22_fixes(so22):
    E = so22.basis_vector
    rsd = root_space_decomposition(so22, [E("e2"), E("e5")])
    pairing = conjugation_pairing(rsd)
    assert all(s == r for r, s in pairing.items())


# --- joint eigenspaces against the intersection algorithm they replaced --------
# Reference copy of joint_eigenspaces before it refined by restriction: the
# eigenvalues of each ad(h) on the ambient come from the characteristic
# polynomial (Faddeev-LeVerrier in polyref), and each weight space is
# intersected with each eigenspace; Subspace.intersect is kept here as
# _ref_intersect.

def _ref_intersect(S, T):
    if not S.rows or not T.rows:
        return Subspace.zero(S.algebra)
    cols = [tuple(r) for r in S.rows] + [vec_scale(-1, r) for r in T.rows]
    return Subspace(S.algebra, [S.from_coords(k[: S.dim])
                                for k in kernel(QMatrix.from_columns(cols))])


def _ref_joint_eigenspaces(L, basis, ambient=None):
    if ambient is None:
        ambient = Subspace.full(L)
    spaces = [((), ambient)]
    seen_d = {0}
    for h in basis:
        try:
            restricted = _ref_restrict(ambient, ad(L, h))
        except ValueError:
            raise NotATorus("ambient space is not invariant under the torus")
        eigens = []
        for lam, _mult in factor_roots(reference_char_poly(restricted).coeffs):
            seen_d.add(scalar_d(lam))
            if len(seen_d - {0}) > 1:
                raise ExtensionDegreeTooHigh(
                    "torus weights span two quadratic extensions")
            shifted = QMatrix([[restricted.entries[i][j] - (lam if i == j else 0)
                               for j in range(restricted.cols)]
                              for i in range(restricted.rows)])
            vecs = [ambient.from_coords(kv) for kv in kernel(shifted)]
            if vecs:
                eigens.append((lam, Subspace(L, vecs)))
        refined = []
        for weight, space in spaces:
            for lam, eig in eigens:
                inter = _ref_intersect(space, eig)
                if inter.dim:
                    refined.append((weight + (lam,), inter))
        if sum(s.dim for _, s in refined) != sum(s.dim for _, s in spaces):
            raise NotATorus("action is not diagonalizable over the tower")
        spaces = refined
    return spaces


def _typed_spaces(spaces):
    return [(_typed(weight), [_typed(r) for r in space.rows])
            for weight, space in spaces]


def _joint_cases(wave15, g2):
    """(label, algebra, torus basis, ambient or None)."""
    from lieembed.liecore import centralizer, subalgebra_generated
    from lieembed.vecfield import so_pq_generators
    E, X = wave15.basis_vector, g2.basis_vector
    ut = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"),
              vec_sub(E("e4"), E("e15")), vec_sub(E("e6"), E("e13")))
    g2_ut = span(g2, *(X(b) for b in ("X5", "X14", "X13", "X12", "X11", "X9")))
    j1 = vec_add(X("X5"), X("X10"))
    # X_a + c*X_-a for a root a of the split Cartan, and the Cartan elements
    # that a vanishes on: weights in Q(sqrt 2)
    wave_r2 = [wave15.element({"e1": -1, "e8": 1, "e9": F(-1, 2), "e10": 1}),
               vec_sub(E("e7m16"), E("e2"))]
    g2_r2 = [vec_sub(X("X14"), X("X1")), X("X8")]
    cases = [
        ("wave15", wave15, [E("e7m16"), E("e2"), E("e14")], None),
        ("wave15 normalizer(ut)", wave15, [E("e7m16"), E("e2")],
         normalizer(wave15, ut)),
        ("wave15 compact", wave15, [E("e15")], None),
        ("g2", g2, [X("X6"), X("X8")], None),
        ("g2 ut", g2, [X("X6"), X("X8")], g2_ut),
        ("g2 compact, Q(sqrt -2)", g2, [j1], None),
        ("g2 compact on K", g2, [j1],
         subalgebra_generated(g2, [j1, vec_sub(X("X4"), X("X11"))])),
        ("wave15 Q(sqrt 2)", wave15, wave_r2, None),
        ("wave15 Q(sqrt 2) on a centralizer", wave15, wave_r2,
         centralizer(wave15, span(wave15, E("e14")))),
        ("g2 Q(sqrt 2)", g2, g2_r2, None),
    ]
    # dense rebased tables; the tori are given in the original basis, and
    # the mixed one of so(2,2) is a compact and a real element
    tori = {
        (2, 2): [("split", [{"e2": 1}, {"e5": 1}]),
                 ("compact, Q(sqrt -1)", [{"e1": 1}, {"e6": 1}]),
                 ("mixed", [{"e1": 1, "e6": 1},
                            {"e1": 1, "e2": 1, "e3": 1, "e4": -1, "e5": 1, "e6": -1}]),
                 ("mixed element", [{"e1": 2, "e2": 1, "e3": 1, "e4": -1, "e5": 1}]),
                 ("real, Q(sqrt 2)", [{"e1": -1, "e3": 3, "e4": -3, "e6": 1},
                                      {"e2": 1, "e5": -1}])],
        (1, 3): [("mixed", [{"e1": 1}, {"e6": 1}]), ("real", [{"e2": 1}]),
                 ("real, Q(sqrt 2)", [{"e1": 1, "e2": 1}])],
        (4, 0): [("compact, Q(sqrt -1)", [{"e1": 1}, {"e6": 1}]),
                 ("compact element", [{"e3": 2, "e4": 1}])],
    }
    rng = random.Random(6006)
    for (p, q), named in tori.items():
        L = so_pq_generators(p, q)
        f = _dense_basis(L, rng)
        M = LieAlgebra(L.dim, L.basis_names, _table_in_basis(L, f),
                       name=f"rebased so({p},{q})")
        to_f = QMatrix.from_columns(f)
        for label, specs in named:
            basis = [solve_linear(to_f, L.element(x)) for x in specs]
            cases.append((f"rebased so({p},{q}) {label}", M, basis, None))
    return cases


def test_joint_eigenspaces_match_intersection_reference(wave15, g2):
    """Weights (values and entry types) and the rows of each space, in
    order, against the intersection algorithm."""
    kinds = set()
    for label, L, basis, ambient in _joint_cases(wave15, g2):
        got = joint_eigenspaces(L, basis, ambient)
        assert _typed_spaces(got) == _typed_spaces(
            _ref_joint_eigenspaces(L, basis, ambient)), label
        assert sum(s.dim for _, s in got) == (L.dim if ambient is None
                                               else ambient.dim), label
        kinds.update(scalar_d(w) for weight, _ in got for w in weight)
    assert kinds == {0, 2, -1, -2}  # rational, real and both imaginary fields


# --- integer ad blocks against the Fraction restriction they replaced ----------
# Reference copies of joint_eigenspaces and embed._positive_real_eigenspace
# as they ran on Fraction matrices: ad(h) restricted to each space by
# _ref_restrict, eigenvalues from min_poly, and each eigenspace the part of
# the space whose coordinates lie in the kernel of the shifted Fraction block.

def _ref_block(space, m):
    return _ref_restrict(space, m) if space.dim else QMatrix([])


def _ref_eigenspace(space, m, lam):
    shifted = QMatrix([[x - lam if i == j else x for j, x in enumerate(row)]
                      for i, row in enumerate(m.entries)])
    return space._kernel_span(*_scaled_rows(shifted.entries)[1:])


def _ref_restricted_eigenspaces(L, basis, ambient=None):
    spaces = [((), Subspace.full(L) if ambient is None else ambient)]
    seen_d = set()
    for h in basis:
        ad_h = ad(L, h)
        try:
            whole = ad_h if ambient is None else _ref_block(ambient, ad_h)
            roots = Spectrum(min_poly(scaled(whole))).roots
            blocks = [_ref_block(space, ad_h) for _, space in spaces]
        except ValueError:
            raise NotATorus("ambient space is not invariant under the torus")
        lams = [lam for lam, _mult in roots]
        seen_d.update(scalar_d(lam) for lam in lams if scalar_d(lam))
        if len(seen_d) > 1:
            raise ExtensionDegreeTooHigh("torus weights span two quadratic extensions")
        refined = []
        for (weight, space), m in zip(spaces, blocks):
            for lam in lams:
                eigen = _ref_eigenspace(space, m, lam)
                if eigen.dim:
                    refined.append((weight + (lam,), eigen))
        if sum(s.dim for _, s in refined) != sum(s.dim for _, s in spaces):
            raise NotATorus("action is not diagonalizable over the tower")
        spaces = refined
    return spaces


def _ref_positive_real_eigenspace(L, alpha, space):
    m = _ref_restrict(space, ad(L, alpha))
    best = None
    for lam, _ in factor_roots(min_poly(scaled(m))):
        if scalar_d(lam) >= 0 and is_complex_positive(lam if best is None else lam - best):
            best = lam
    return None if best is None else _ref_eigenspace(space, m, best)


def test_integer_blocks_match_fraction_restriction(wave15, g2, monkeypatch):
    """joint_eigenspaces with and without an ambient, torus_split and
    _positive_real_eigenspace against the Fraction restriction, with
    weights in Q, Q(sqrt 2), Q(i) and Q(sqrt -2): weight values and entry
    types, and every space."""
    import lieembed.rootsys as rootsys
    from lieembed.embed import _positive_real_eigenspace
    kinds = set()
    for label, L, basis, ambient in _joint_cases(wave15, g2):
        got = joint_eigenspaces(L, basis, ambient)
        assert _typed_spaces(got) == _typed_spaces(
            _ref_restricted_eigenspaces(L, basis, ambient)), label
        kinds.update(scalar_d(w) for weight, _ in got for w in weight)
        space = Subspace.full(L) if ambient is None else ambient
        for alpha in basis:
            assert (_positive_real_eigenspace(L, alpha, space)
                    == _ref_positive_real_eigenspace(L, alpha, space)), label
        torus = Subspace(L, basis)
        got = torus_split(L, torus)
        with monkeypatch.context() as patch:
            patch.setattr(rootsys, "joint_eigenspaces", _ref_restricted_eigenspaces)
            assert got == torus_split(L, torus), label
    assert kinds == {0, 2, -1, -2}


def test_surd_and_non_invariant_inputs_raise_as_before(so22, so4):
    """A torus basis element with surd coordinates, in the first or a later
    position, with or without an ambient, raises min_poly's ValueError, as
    root_space_decomposition and classify_element do on it.  Coordinates in
    two fields, and an ambient the torus does not preserve: the same error
    and message as the Fraction restriction."""
    from lieembed.embed import _positive_real_eigenspace
    from lieembed.liecore import classify_element
    r2, r3 = make_scalar(0, 1, 2), make_scalar(0, 1, 3)
    E, R = so22.basis_vector, so4.basis_vector
    full = Subspace.full(so22)
    surd = [(so22, [vec_scale(r2, E("e2"))], None),
            (so22, [E("e2"), vec_scale(r2, E("e5"))], None),
            (so22, [vec_scale(r2, E("e2"))], full),
            (so22, [E("e2"), vec_scale(I, E("e5"))], full),
            (so4, [R("e1"), vec_scale(r3, R("e6"))], None),
            (so4, [R("e1"), vec_scale(I, R("e6"))], Subspace.full(so4))]
    for L, basis, ambient in surd:
        for fn in (joint_eigenspaces, root_space_decomposition,
                   lambda L, basis, _: classify_element(L, basis[-1])):
            with pytest.raises(ValueError, match="min_poly needs a rational matrix"):
                fn(L, basis, ambient)
    cases = [(so22, [E("e2"), tuple(r3 if k == 1 else r2 if k == 4 else F(0)
                                    for k in range(6))], None),
             (so22, [E("e1")], span(so22, E("e2"))),
             (so22, [E("e2"), E("e1")], span(so22, E("e2"), E("e5")))]
    for L, basis, ambient in cases:
        outcomes = []
        for fn in (joint_eigenspaces, _ref_restricted_eigenspaces):
            with pytest.raises((NotATorus, ExtensionDegreeTooHigh)) as info:
                fn(L, basis, ambient)
            outcomes.append((type(info.value), str(info.value)))
        assert outcomes[0] == outcomes[1], basis
    alpha = vec_scale(r2, E("e2"))
    for fn in (_positive_real_eigenspace, _ref_positive_real_eigenspace):
        with pytest.raises(ValueError, match="rational matrix"):
            fn(so22, alpha, full)
    # the eigenvector step goes through joint_eigenspaces
    with pytest.raises(NotATorus, match="not invariant"):
        _positive_real_eigenspace(so22, E("e1"), span(so22, E("e2")))


def test_mixed_torus_splits_into_real_and_compact(so22):
    a = so22.element({"e1": 1, "e6": 1})
    b = so22.element({"e1": 1, "e2": 1, "e3": 1, "e4": -1, "e5": 1, "e6": -1})
    real, compact = torus_split(so22, span(so22, a, b))
    assert (real.dim, compact.dim) == (1, 1)
    # a + b has nonzero real and nonzero imaginary weights
    weights = [w for (w,), _ in joint_eigenspaces(so22, [vec_add(a, b)])]
    assert {scalar_d(w) for w in weights if w} == {0, -1}


def test_joint_eigenspaces_rejections_match_reference(so22, wave15):
    E = so22.basis_vector
    not_invariant = span(so22, E("e2"))
    nilpotent = wave15.basis_vector("e8")
    for fn in (joint_eigenspaces, _ref_joint_eigenspaces, _ref_restricted_eigenspaces):
        with pytest.raises(NotATorus, match="not invariant"):
            fn(so22, [E("e1")], not_invariant)
        with pytest.raises(NotATorus, match="not diagonalizable"):
            fn(wave15, [nilpotent])
    # sl2 + sl2 with X - Y (weights +-2i) in the first factor and X + 2Y
    # (weights +-2 sqrt 2) in the second
    sl2 = {(0, 1): {0: F(-2)}, (0, 2): {1: F(1)}, (1, 2): {2: F(-2)}}
    table = dict(sl2)
    table.update({(i + 3, j + 3): {k + 3: c for k, c in comp.items()}
                  for (i, j), comp in sl2.items()})
    L = LieAlgebra(6, ["X", "H", "Y", "X'", "H'", "Y'"], table)
    u = [F(1), F(0), F(-1), F(0), F(0), F(0)]
    v = [F(0), F(0), F(0), F(1), F(0), F(2)]
    for basis in ([tuple(u), tuple(v)], [tuple(vec_add(u, v))]):
        for fn in (joint_eigenspaces, _ref_joint_eigenspaces, _ref_restricted_eigenspaces):
            with pytest.raises(ExtensionDegreeTooHigh):
                fn(L, basis)
        with pytest.raises(ExtensionDegreeTooHigh):
            root_space_decomposition(L, basis)
    # each element alone stays in one field
    for h, d in ((u, -1), (v, 2)):
        weights = [w for (w,), _ in joint_eigenspaces(L, [tuple(h)])]
        assert {scalar_d(w) for w in weights} == {0, d}


def test_zero_ambient_gives_empty_decomposition(so22):
    E = so22.basis_vector
    basis = [E("e1"), E("e6")]
    zero = Subspace.zero(so22)
    assert zero.ad_block(so22._ad_ints(_scaled_vector(E("e1"))))[2] == []
    rsd = restricted_roots(zero, basis)
    assert rsd.pairs == () and rsd.zero_space.dim == 0
    assert repr(rsd.zero_space) == "<>"
    assert joint_eigenspaces(so22, basis, zero) == []
    assert joint_eigenspaces(so22, [], zero) == [((), zero)]


def test_joint_eigenspaces_read_the_cached_spectra(wave15, monkeypatch):
    import lieembed.liecore as liecore
    import lieembed.rootsys as rootsys
    L = LieAlgebra.from_json(wave15.to_json(), name="wave15-copy")  # cold cache
    E = L.basis_vector
    basis = [E("e7m16"), E("e2"), E("e14")]
    analysed = []
    for module in (liecore, rootsys):
        real = module.min_poly
        monkeypatch.setattr(module, "min_poly", lambda block, real=real:
                            analysed.append(block) or real(block))
    # the semisimplicity checks compute one spectrum per element; the
    # whole-algebra eigenspaces read those
    root_space_decomposition(L, basis)
    assert len(analysed) == len(basis)
    joint_eigenspaces(L, basis)
    torus_split(L, Subspace(L, basis))
    assert len(analysed) == len(basis)
    # a restricted ambient needs one minimal polynomial per element
    ambient = normalizer(L, span(L, E("e8"), E("e10"), E("e11"), E("e12")))
    joint_eigenspaces(L, basis[:2], ambient)
    assert len(analysed) == len(basis) + 2


def test_joint_eigenspaces_read_each_ad_once(wave15, monkeypatch):
    """Each ad(h) is read once: on a cold spectrum cache the first step's
    columns of all of L also give the spectrum, which is then kept, and the
    columns are kept too, so a later basis reads only its new elements."""
    L = LieAlgebra.from_json(wave15.to_json(), name="wave15-copy")  # cold cache
    E = L.basis_vector
    basis = [E("e7m16"), E("e2"), E("e14")]
    reads = []
    real = LieAlgebra._ad_ints
    monkeypatch.setattr(LieAlgebra, "_ad_ints",
                        lambda self, x: reads.append(x) or real(self, x))
    joint_eigenspaces(L, basis[:1])
    assert len(reads) == 1 and (basis[0],) in kept_entries(L, "spectrum")
    for h in basis:
        spectrum(L, h)
    reads.clear()
    joint_eigenspaces(L, basis)
    assert reads == [(1, 0, {L.index_of(h): 1}, {}) for h in ("e2", "e14")]



def test_torus_checks_fill_each_ad_once(wave15, monkeypatch):
    """On a cold copy, a roots call, the decomposition a Dynkin call makes
    again, and torus_split of the span fill each Cartan element's ad
    columns once: the torus checks and the joint eigenspaces share the
    kept ("ad", h) entries."""
    L = _cold(wave15)
    E = L.basis_vector
    basis = [E("e7m16"), E("e2"), E("e14")]
    fills = []
    real = LieAlgebra._ad_ints
    monkeypatch.setattr(LieAlgebra, "_ad_ints",
                        lambda self, x: fills.append(x) or real(self, x))
    root_space_decomposition(L, basis)
    positives = [r for r in root_space_decomposition(L, basis).roots if is_positive(r)]
    assert dynkin_type(simple_roots(positives), positives).type_label == "A3"
    torus_split(L, span(L, *basis))
    assert len(fills) == len(basis)
    assert sorted(kept_entries(L, "ad")) == sorted((h,) for h in basis)


def test_search_candidates_keep_no_ad_columns(wave15):
    """The compact search keeps no ad columns for its candidates (its answer
    is candidate 72); only the torus that the embedding ends with has kept
    columns."""
    from lieembed.embed import embed_compact_torus, find_compact
    L = _cold(wave15)
    E = L.basis_vector
    der = span(L, E("e5"), E("e6"), E("e7m16"), E("e8"), E("e9"), E("e12"))
    assert find_compact(der, d_required=-1) == vec_add(E("e5"), vec_scale(2, E("e12")))
    assert kept_entries(L, "ad") == []
    cd = embed_compact_torus(L, span(L, E("e15")))
    assert sorted(kept_entries(L, "ad")) == sorted((r,) for r in cd.cartan.rows)


def test_joint_eigenspaces_errors_stand_apart_from_the_torus_check(wave15, so22):
    """joint_eigenspaces runs no torus check of its own: a nilpotent element
    whose ad columns the failed check kept still gives the eigenspaces'
    own error, and a non-invariant ambient raises on the kept columns as on
    a cold algebra."""
    L = _cold(wave15)
    e8 = L.basis_vector("e8")
    with pytest.raises(NotATorus, match="element e8 is not semisimple"):
        root_space_decomposition(L, [e8])
    assert kept_entries(L, "ad") == [(e8,)]
    with pytest.raises(NotATorus, match="not diagonalizable over the tower"):
        joint_eigenspaces(L, [e8])
    M = _cold(so22)
    E = M.basis_vector
    for _ in range(2):
        with pytest.raises(NotATorus, match="not invariant"):
            joint_eigenspaces(M, [E("e1")], span(M, E("e2")))
    assert kept_entries(M, "ad") == [(E("e1"),)]

def _cold(L):
    """A copy of L that keeps nothing yet."""
    return LieAlgebra.from_json(L.to_json(), name=L.name)


def test_joint_eigenspaces_stop_once_a_space_is_filled(wave15, g2, monkeypatch):
    """A space tries eigenvalues only until its eigenspaces fill it: on
    each space the last eigenspace computed is the one that completes it.
    Cold copies, since the algebras keep their joint eigenspaces."""
    tried = {}  # id -> (space, eigenspace dims in call order)
    real = Subspace.eigenspace

    def counted(self, block, lam):
        eigen = real(self, block, lam)
        tried.setdefault(id(self), (self, []))[1].append(eigen.dim)
        return eigen

    monkeypatch.setattr(Subspace, "eigenspace", counted)
    for L, names in ((wave15, ("e7m16", "e2", "e14")), (g2, ("X6", "X8"))):
        L = _cold(L)
        joint_eigenspaces(L, [L.basis_vector(n) for n in names])
    assert len(tried) > 10
    for space, dims in tried.values():
        assert sum(dims) == space.dim and dims[-1] > 0


def test_a_torus_is_decomposed_once_per_algebra(wave15, monkeypatch):
    """A second decomposition, restricted decomposition or split of the same
    torus on one algebra forms no eigenspace, and gives what a cold copy
    of the algebra gives."""
    L = _cold(wave15)
    E = L.basis_vector
    basis = [E("e7m16"), E("e2"), E("e14")]
    ambient = normalizer(L, span(L, E("e8"), E("e10"), E("e11"), E("e12")))
    calls = [
        (lambda M: root_space_decomposition(M, [M.element(h) for h in basis]),
         lambda r: r.to_json()),
        (lambda M: restricted_roots(Subspace(M, ambient.rows), [M.element(h)
                                                               for h in basis[:2]]),
         lambda r: r.to_json()),
        (lambda M: torus_split(M, Subspace(M, [M.element(h) for h in basis])),
         lambda parts: [part.to_json() for part in parts]),
    ]
    formed = []
    real = Subspace.eigenspace
    monkeypatch.setattr(Subspace, "eigenspace",
                        lambda self, block, lam: formed.append(lam) or real(self, block, lam))
    for call, as_json in calls:
        call(L)
        formed.clear()
        again = call(L)
        assert formed == []
        assert as_json(again) == as_json(call(_cold(L)))
        assert formed  # the cold copy forms its eigenspaces


def test_kept_eigenspaces_are_not_the_returned_list(wave15):
    L = _cold(wave15)
    basis = [L.basis_vector("e7m16"), L.basis_vector("e2")]
    first = joint_eigenspaces(L, basis)
    want = list(first)
    first.clear()
    second = joint_eigenspaces(L, basis)
    assert second == want and second is not first
    second.append(second.pop(0))
    assert joint_eigenspaces(L, basis) == want


def test_a_failing_torus_raises_on_every_call():
    """The two-field element and a non-invariant ambient raise each time,
    and leave nothing kept."""
    L = _sl2_sum()
    # X - Y has weights +-2i, X' + 2Y' has weights +-2 sqrt 2
    h = (F(1), F(0), F(-1), F(1), F(0), F(2))
    # [H, X + Y] = 2X - 2Y leaves <X + Y>
    ambient = span(L, L.element({"X": 1, "Y": 1}))
    for basis, amb, error, match in (([h], None, ExtensionDegreeTooHigh, "two quadratic"),
                                     ([L.basis_vector("H")], ambient, NotATorus,
                                      "not invariant")):
        for _ in range(2):
            with pytest.raises(error, match=match):
                joint_eigenspaces(L, basis, amb)
            assert kept_entries(L, "eigenspaces") == []


def test_copies_of_an_algebra_keep_their_own_eigenspaces(wave15):
    L1, L2 = _cold(wave15), _cold(wave15)
    basis = [L1.basis_vector("e7m16"), L1.basis_vector("e2")]
    one = joint_eigenspaces(L1, basis)
    assert kept_entries(L2, "eigenspaces") == []
    two = joint_eigenspaces(L2, basis)
    assert {s.algebra for _, s in one} == {L1} and {s.algebra for _, s in two} == {L2}
    assert [(w, s.to_json()) for w, s in one] == [(w, s.to_json()) for w, s in two]
    assert len(kept_entries(L1, "eigenspaces")) == len(kept_entries(L2, "eigenspaces")) == 1


def _sl2_sum():
    """sl2 + sl2 in bases (X, H, Y) and (X', H', Y')."""
    sl2 = {(0, 1): {0: F(-2)}, (0, 2): {1: F(1)}, (1, 2): {2: F(-2)}}
    table = dict(sl2)
    table.update({(i + 3, j + 3): {k + 3: c for k, c in comp.items()}
                  for (i, j), comp in sl2.items()})
    return LieAlgebra(6, ["X", "H", "Y", "X'", "H'", "Y'"], table)


def test_torus_check_reads_every_basis_vector():
    """H and X' commute, and X' is nilpotent: root_space_decomposition and
    torus_split run one check over every vector they decompose by."""
    L = _sl2_sum()
    E = L.basis_vector
    with pytest.raises(NotATorus, match="X' is not semisimple"):
        root_space_decomposition(L, [E("H"), E("X'")])
    with pytest.raises(NotATorus, match="X' is not semisimple"):
        torus_split(L, span(L, E("H"), E("X'")))


def test_whole_algebra_eigenspaces_read_the_cached_roots(wave15, monkeypatch):
    import lieembed.exactlin as exactlin
    import lieembed.liecore as liecore
    from lieembed.liecore import classify_element
    L = LieAlgebra.from_json(wave15.to_json(), name="wave15-copy")  # cold cache
    E = L.basis_vector
    basis = [E("e7m16"), E("e2"), E("e14")]
    want = root_space_decomposition(wave15, basis).to_json()
    # every factoring, by factor_roots or a Spectrum's roots, factors its
    # squarefree parts with _part_roots
    factored = []
    for module in (exactlin, liecore):
        real = module._part_roots
        monkeypatch.setattr(module, "_part_roots", lambda *a, real=real:
                            factored.append(a) or real(*a))
    for h in basis:
        classify_element(L, h)
    assert len(factored) == len(basis)
    rsd = root_space_decomposition(L, basis)
    assert len(factored) == len(basis)
    assert rsd.to_json() == want
    # a restricted ambient factors its own minimal polynomials
    ambient = normalizer(L, span(L, E("e8"), E("e10"), E("e11"), E("e12")))
    joint_eigenspaces(L, basis[:2], ambient)
    assert len(factored) == len(basis) + 2


def test_cached_roots_in_two_fields_still_raise():
    from lieembed.liecore import MIXED_SEMISIMPLE, classify_element, spectrum
    L = _sl2_sum()
    # X - Y has weights +-2i, X' + 2Y' has weights +-2 sqrt 2
    h = (F(1), F(0), F(-1), F(1), F(0), F(2))
    assert classify_element(L, h) == MIXED_SEMISIMPLE
    assert {scalar_d(r) for r, _ in spectrum(L, h).roots} == {0, -1, 2}
    for call in (lambda: joint_eigenspaces(L, [h]),
                 lambda: root_space_decomposition(L, [h]),
                 lambda: torus_split(L, span(L, h))):
        with pytest.raises(ExtensionDegreeTooHigh, match="two quadratic"):
            call()
