"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Every expected value is pinned exactly (no tolerances); each test prints a
pass line when its assertions complete.
"""

import json
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from lieembed.exactlin import (factor_roots, make_scalar, min_poly,
                               scalar_parts, symmetric_signature, vec_is_zero)
from lieembed.liecore import (NILPOTENT, LieAlgebra, Subspace, center,
                              centralizer, classify_element, derived_algebra,
                              is_ad_nilpotent, jordan_decomposition,
                              killing_signature, levi_decomposition,
                              normalizer, radical, restricted_killing_signature,
                              subalgebra_generated)
from lieembed.rootsys import (Root, conjugation_pairing, dynkin_type,
                              is_positive, restricted_roots,
                              root_space_decomposition, simple_roots)
from lieembed.embed import (embed_abelian_nilpotent, embed_compact_torus,
                            embed_nilpotent, embed_real_torus,
                            maximal_compact_split)
from lieembed.vecfield import (g2_catalog, structure_constants, invariant_count,
                               wave16_catalog)
from matrixops import ad, killing_matrix, scaled
from polyref import QMatrix, is_squarefree, reference_char_poly
from test_liecore import vec_add, vec_scale, vec_sub

I = make_scalar(0, 1, -1)
MI = make_scalar(0, -1, -1)


def span(L, *vs):
    return Subspace(L, vs)


def _real_imag(u):
    """The rational vectors (a, b) of a vector a + b*sqrt(d)."""
    return tuple(zip(*(scalar_parts(x)[:2] for x in u)))


def _passed(n, text):
    print(f"criterion {n}: PASS - {text}")


def test_criterion_01_appendix_round_trip(golden_corpus):
    """Catalog brackets reproduce the stored commutator tables bit-exactly."""
    expected = {c["catalog"]: c["expect"] for c in golden_corpus["cases"]
                if c["kind"] == "table"}
    wave16 = structure_constants(wave16_catalog())
    g2 = structure_constants(g2_catalog())
    assert wave16.to_json() == expected["wave16"]
    assert g2.to_json() == expected["g2"]
    _passed(1, "wave16 and g2 commutator tables reproduced entry for entry")


def test_criterion_02_so4(so4):
    E = so4.basis_vector
    rsd = root_space_decomposition(so4, [E("e1"), E("e6")])
    assert {tuple(r.values) for r in rsd.roots} == {
        (I, I), (I, MI), (MI, I), (MI, MI)}
    positives = [r for r in rsd.roots if is_positive(r)]
    diag = dynkin_type(simple_roots(positives), positives)
    assert diag.type_label == "A1xA1"
    generated = []
    for root in positives:
        re, im = _real_imag(rsd.space_of(root).rows[0])
        k = subalgebra_generated(so4, [re, im])
        assert k.dim == 3
        assert killing_signature(k) == (0, 3, 0)
        generated.append(k)
    ka, kb = generated
    assert all(vec_is_zero(so4.bracket(r, s)) for r in ka.rows for s in kb.rows)
    assert ka.sum(kb) == Subspace.full(so4)
    _passed(2, "so(4): roots +-(i,i), +-(i,-i); A1xA1; commuting so(3) pair")


def test_criterion_03_so13(so13):
    E = so13.basis_vector
    ev = factor_roots(reference_char_poly(ad(so13, E("e1"))).coeffs)
    assert ev == [(F(-1), 2), (F(0), 2), (F(1), 2)]
    rsd = root_space_decomposition(so13, [E("e1")])
    plus = rsd.space_of(Root((F(1),)))
    maximal_solvable_real = plus.with_vectors([E("e1")])
    expected = span(so13, E("e1"),
                    vec_add(E("e3"), E("e5")), vec_add(E("e2"), E("e4")))
    assert maximal_solvable_real == expected
    _passed(3, "so(1,3): ad(e1) spectrum {-1,-1,0,0,1,1}; solvable span matches")


def test_criterion_04_so22(so22):
    E = so22.basis_vector
    torus, cd, _ = embed_real_torus(so22, span(so22, E("e2")))
    assert torus == span(so22, E("e2"), E("e5"))
    rsd = root_space_decomposition(so22, [E("e2"), E("e5")])
    e = [E(f"e{k}") for k in range(1, 7)]
    expected_spaces = {
        (F(1), F(1)): vec_sub(vec_add(e[0], e[3]), vec_add(e[2], e[5])),
        (F(1), F(-1)): vec_add(vec_add(e[0], e[2]), vec_add(e[3], e[5])),
        (F(-1), F(-1)): vec_sub(vec_add(e[0], e[2]), vec_add(e[3], e[5])),
        (F(-1), F(1)): vec_add(vec_sub(e[0], e[2]), vec_sub(e[5], e[3])),
    }
    assert len(rsd.pairs) == 4
    for values, vector in expected_spaces.items():
        assert rsd.space_of(Root(values)) == span(so22, vector)
    _passed(4, "so(2,2): torus embeds to <e2,e5>; four root vectors exact")


def test_criterion_05_wave_pipeline(wave15):
    E = wave15.basis_vector
    U = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))
    result, torus, cd, _ = embed_nilpotent(wave15, U)
    assert result == U.with_vectors([vec_sub(E("e4"), E("e15")),
                                     vec_sub(E("e6"), E("e13"))])
    assert result.dim == 6
    nut = normalizer(wave15, result)
    assert nut == result.with_vectors([E("e2"), E("e7m16"), E("e14")])
    rsd = restricted_roots(nut, [E("e7m16"), E("e2")])
    dims = {tuple(r.values): s.dim for r, s in rsd.pairs}
    assert dims == {(F(-1), F(0)): 2, (F(-1), F(-1)): 1,
                    (F(-1), F(1)): 1, (F(0), F(1)): 2}
    simples = simple_roots(rsd.roots)
    assert {tuple(r.values) for r in simples} == {(F(-1), F(-1)), (F(0), F(1))}
    assert dynkin_type(simples, rsd.roots).type_label == "B2"
    absolute = root_space_decomposition(wave15, [E("e7m16"), E("e2"), E("e14")])
    abs_pos = [r for r in absolute.roots if is_positive(r)]
    assert dynkin_type(simple_roots(abs_pos), abs_pos).type_label == "A3"
    _passed(5, "wave: 6-dim nilpotent closure, B2 restricted and A3 absolute")


def test_criterion_06_wave_maximal_compact(wave15):
    E = wave15.basis_vector
    assert killing_signature(wave15) == (8, 7, 0)
    U = span(wave15, E("e8"), E("e10"), E("e11"), E("e12"))
    result, _, cd, _ = embed_nilpotent(wave15, U)
    rsd = restricted_roots(normalizer(wave15, result), [E("e7m16"), E("e2")])
    K = maximal_compact_split(wave15, cd, rsd)
    k1 = [vec_add(E("e1"), vec_add(vec_scale(2, E("e10")), vec_scale(-2, E("e14")))),
          vec_add(E("e3"), vec_add(vec_scale(2, E("e11")), vec_scale(2, E("e13")))),
          vec_add(vec_scale(-4, E("e5")),
                  vec_add(vec_scale(-8, E("e12")), vec_scale(8, E("e15"))))]
    k2 = [vec_add(E("e1"), vec_add(vec_scale(2, E("e10")), vec_scale(2, E("e14")))),
          vec_add(vec_scale(-1, E("e3")),
                  vec_add(vec_scale(-2, E("e11")), vec_scale(2, E("e13")))),
          vec_add(vec_scale(-4, E("e5")),
                  vec_add(vec_scale(-8, E("e12")), vec_scale(-8, E("e15"))))]
    circle = vec_add(vec_scale(4, E("e8")), E("e9"))
    assert K == Subspace(wave15, k1 + k2 + [circle])
    assert K.dim == 7
    assert restricted_killing_signature(K) == (0, 7, 0)
    assert centralizer(wave15, Subspace(wave15, k1)) == Subspace(wave15, k2 + [circle])
    _passed(6, "wave: n_neg = 7; compact = span(k1,k2,4e8+e9); Z(k1) = k2+<4e8+e9>")


def test_criterion_07_g2_pipeline(g2):
    X = g2.basis_vector
    assert symmetric_signature(scaled(killing_matrix(g2)))[3] != 0
    U = span(g2, X("X14"), X("X13"), X("X12"))
    result, torus, cd, _ = embed_nilpotent(g2, U)
    assert result == span(g2, X("X5"), X("X14"), X("X13"), X("X12"),
                          X("X11"), X("X9"))
    assert cd.cartan == span(g2, X("X6"), X("X8"))
    assert centralizer(g2, cd.cartan) == cd.cartan
    rsd = restricted_roots(result, [X("X6"), X("X8")])
    a = Root((F(1, 2), F(3, 2)))
    b = Root((F(-1), F(0)))
    c = Root((F(-1, 2), F(3, 2)))
    d = Root((F(-1, 2), F(1, 2)))
    e = Root((F(-1, 2), F(-1, 2)))
    f = Root((F(0), F(1)))
    assert {tuple(r.values) for r in rsd.roots} == {
        tuple(r.values) for r in (a, b, c, d, e, f)}
    simples = simple_roots(rsd.roots)
    assert {tuple(r.values) for r in simples} == {a.values, e.values}
    decompositions = {(1, 0): a, (0, 1): e, (1, 1): f,
                      (1, 2): d, (1, 3): b, (2, 3): c}
    for (m, n), root in decompositions.items():
        combo = tuple(m * x + n * y for x, y in zip(a.values, e.values))
        assert combo == root.values
    assert dynkin_type(simples, rsd.roots).type_label == "G2"
    _passed(7, "g2: nonzero Killing det; 6-dim closure; roots a..f; type G2")


def test_criterion_08_g2_maximal_compact(g2):
    X = g2.basis_vector
    J1 = vec_add(X("X5"), X("X10"))
    J2 = vec_sub(X("X4"), X("X11"))
    K = subalgebra_generated(g2, [J1, J2])
    assert K.dim == 6 == killing_signature(g2)[1]
    assert killing_signature(K) == (0, 6, 0)
    zj1 = centralizer(g2, span(g2, J1), within=K)
    J5 = vec_add(X("X3"), vec_scale(F(3, 4), X("X12")))
    assert zj1.dim == 2 and zj1 == span(g2, J1, J5)
    # circle triples from the compact Cartan root vectors (paper's (g1)
    # second vector carries a sign slip on the J2 term; computed from the
    # decomposition directly)
    rsd = root_space_decomposition(g2, [J1, J5], ambient=K)
    triples = []
    positives = [r for r in rsd.roots if is_positive(r)]
    assert len(positives) == 2
    for root in positives:
        re, im = _real_imag(rsd.space_of(root).rows[0])
        k = subalgebra_generated(g2, [re, im])
        assert k.dim == 3 and killing_signature(k) == (0, 3, 0)
        triples.append(k)
    ka, kb = triples
    assert all(vec_is_zero(g2.bracket(r, s)) for r in ka.rows for s in kb.rows)
    assert ka.sum(kb) == K
    # the sign-corrected printed vectors generate the same pair
    J3 = vec_add(X("X1"), vec_scale(F(3, 8), X("X14")))
    J4 = vec_sub(X("X2"), vec_scale(F(3, 4), X("X13")))
    J6 = vec_sub(X("X7"), vec_scale(F(3, 2), X("X9")))
    g1 = subalgebra_generated(g2, [vec_sub(J3, vec_scale(F(1, 6), J6)),
                                   vec_add(vec_scale(2, J4), J2)])
    g2_ = subalgebra_generated(g2, [vec_add(J3, vec_scale(F(1, 2), J6)),
                                    vec_add(vec_scale(-2, J4), vec_scale(3, J2))])
    assert {g1, g2_} == {ka, kb}
    _passed(8, "g2: compact from J1,J2 is 6-dim; so(3)+so(3); Z_K(J1) 2-dim")


SIMILARITY = [
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


def test_criterion_09_invariant_counts():
    cat = wave16_catalog()
    names = [f.name for f in cat.fields]
    for label, specs, expected in SIMILARITY:
        fields = []
        for spec in specs:
            coeffs = [F(0)] * len(names)
            for coef, name in spec:
                coeffs[names.index(name)] = F(coef)
            fields.append(cat.combination(coeffs))
        assert invariant_count(fields, 5) == expected, label
    _passed(9, "all twelve similarity subalgebras give 5 - rank invariants")


def _rand_element(L, rng, support=3):
    v = [F(0)] * L.dim
    for i in rng.sample(range(L.dim), support):
        v[i] = F(rng.randint(-2, 2))
    return tuple(v)


def test_criterion_10_property_suites(wave15, g2, so4, so13, so22):
    # Jacobi and antisymmetry hold on every loaded table (the constructors
    # validate; re-assert explicitly on a sample of triples)
    rng = random.Random(0)
    for L in (wave15, g2, so4, so13, so22):
        for _ in range(50):
            x, y, z = (_rand_element(L, rng) for _ in range(3))
            assert L.bracket(x, y) == vec_scale(-1, L.bracket(y, x))
            cyc = vec_add(vec_add(L.bracket(x, L.bracket(y, z)),
                                  L.bracket(y, L.bracket(z, x))),
                          L.bracket(z, L.bracket(x, y)))
            assert vec_is_zero(cyc)

    # Killing invariance on 1000 random triples per algebra
    for L in (wave15, g2):
        for _ in range(1000):
            x, y, z = (_rand_element(L, rng, support=2) for _ in range(3))
            assert L.killing(L.bracket(x, y), z) == L.killing(x, L.bracket(y, z))

    # grading on every corpus decomposition
    decomps = [
        root_space_decomposition(so4, [so4.basis_vector("e1"), so4.basis_vector("e6")]),
        root_space_decomposition(so22, [so22.basis_vector("e2"), so22.basis_vector("e5")]),
        root_space_decomposition(wave15, [wave15.basis_vector("e7m16"),
                                          wave15.basis_vector("e2"),
                                          wave15.basis_vector("e14")]),
        root_space_decomposition(g2, [g2.basis_vector("X6"), g2.basis_vector("X8")]),
    ]
    for rsd in decomps:
        spaces = {tuple(r.values): s for r, s in rsd.pairs}
        for r, sr in rsd.pairs:
            for s, ss in rsd.pairs:
                target = tuple(a + b for a, b in zip(r.values, s.values))
                for u in sr.rows:
                    for v in ss.rows:
                        w = rsd.algebra.bracket(u, v)
                        if vec_is_zero(w):
                            continue
                        if all(not t for t in target):
                            assert rsd.zero_space.contains(w)
                        else:
                            assert target in spaces and spaces[target].contains(w)

    # Jordan pair invariants on 100 random elements (50 per algebra)
    for L in (wave15, g2):
        for _ in range(50):
            x = _rand_element(L, rng)
            pair = jordan_decomposition(L, x)
            assert vec_add(pair.semisimple, pair.nilpotent) == x
            assert vec_is_zero(L.bracket(pair.semisimple, pair.nilpotent))
            assert is_ad_nilpotent(L, pair.nilpotent)
            assert is_squarefree(min_poly(scaled(ad(L, pair.semisimple))))

    # centralizer Levi identity for every torus in the corpus
    tori = [
        (wave15, span(wave15, wave15.basis_vector("e2"))),
        (wave15, span(wave15, wave15.basis_vector("e2"), wave15.basis_vector("e7m16"))),
        (wave15, span(wave15, wave15.basis_vector("e14"))),
        (wave15, span(wave15, wave15.basis_vector("e15"))),
        (g2, span(g2, g2.basis_vector("X6"), g2.basis_vector("X8"))),
        (so13, span(so13, so13.basis_vector("e1"))),
        (so22, span(so22, so22.basis_vector("e2"))),
        (so4, span(so4, so4.basis_vector("e1"))),
    ]
    for L, torus in tori:
        zc = centralizer(L, torus)
        ld = levi_decomposition(zc)
        assert ld.levi == derived_algebra(zc)
        assert ld.radical == center(zc)

    # trace replay equality for every embedding run
    E, X = wave15.basis_vector, g2.basis_vector
    runs = [
        embed_nilpotent(wave15, span(wave15, E("e8"), E("e10"), E("e11"), E("e12")))[3],
        embed_nilpotent(g2, span(g2, X("X14"), X("X13"), X("X12")))[3],
        embed_abelian_nilpotent(wave15, span(wave15, vec_add(E("e8"), E("e10"))))[1],
        embed_real_torus(so22, span(so22, so22.basis_vector("e2")))[2],
        embed_real_torus(so13, span(so13, so13.basis_vector("e1")))[2],
    ]
    for trace in runs:
        final = trace.replay()
        assert all(final.contains(v) for step in trace.steps for v in step.adjoined)
        assert len(trace.steps) <= trace.algebra.dim
    _passed(10, "property suites: Jacobi, Killing, grading, Jordan, Levi, traces")


def test_criterion_11_determinism_verify():
    cmd = [sys.executable, "-m", "lieembed", "verify"]
    first = subprocess.run(cmd, capture_output=True, text=True, check=True)
    second = subprocess.run(cmd, capture_output=True, text=True, check=True)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0
    _passed(11, "two consecutive verify runs are byte-identical")


_NO_DEPENDENCIES = """
import contextlib, importlib, io, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import lieembed
from lieembed import corpus
for info in pkgutil.iter_modules(lieembed.__path__):
    if info.name != "__main__":
        importlib.import_module("lieembed." + info.name)
results, ok = corpus.run_corpus(corpus.load_shipped_corpus())
assert ok and len(results) == 27
# lieembed.__main__ runs the CLI on import and exits
sys.argv = ["lieembed", "verify"]
try:
    with contextlib.redirect_stdout(io.StringIO()):
        importlib.import_module("lieembed.__main__")
except SystemExit as exc:
    assert exc.code == 0
print("\\n".join(sorted(sys.modules)))
"""


_COLD_START = """
import sys
sys.path.insert(0, sys.argv[1])
import lieembed.cli
print("\\n".join(sorted(sys.modules)))
"""


def test_cli_import_loads_no_introspection_modules():
    """A fresh ``import lieembed.cli`` (-S, no site-packages) loads none of
    dataclasses, inspect, ast, dis or tokenize: together about half of the
    import time of the package, paid by every CLI process."""
    import lieembed
    from pathlib import Path
    src = str(Path(lieembed.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", _COLD_START, src],
                          capture_output=True, text=True, check=True)
    loaded = set(proc.stdout.split())
    assert "lieembed.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "ast", "dis", "tokenize"} == set()


def _assert_gone(gone: set) -> None:
    """No module under lieembed defines a function or class, imports a
    name or assigns a module-level name in ``gone``, and lieembed exports
    none of them."""
    import ast
    from pathlib import Path
    import lieembed
    for path in sorted(Path(lieembed.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {part for a in node.names for part in (a.name.split(".")[-1], a.asname)}
            elif isinstance(node, ast.Assign) and node in tree.body:  # module level
                names = {t.id for t in node.targets if isinstance(t, ast.Name)}
            else:
                continue
            assert not names & gone, (path.name, node.lineno, names)
    assert not gone & (set(vars(lieembed)) | set(getattr(lieembed, "__all__", ())))


def test_one_polynomial_representation():
    """The package has one polynomial form, the primitive integer
    coefficients that min_poly returns as a tuple: no module under lieembed
    defines or imports a ``Poly`` value or a Fraction polynomial gcd, and
    lieembed exports none of them; the tests' ``QPoly`` keeps the
    arithmetic over Q for the references."""
    _assert_gone({"Poly", "poly_gcd", "poly_ext_gcd", "squarefree_decomposition"})


def test_one_matrix_form():
    """The package takes a matrix only as scaled integer rows: no module
    under lieembed defines or imports a Fraction ``Matrix`` or the entry
    points that read one (``char_poly``, ``eigenvalues``, ``kernel``,
    ``solve_linear``), and lieembed exports none of them; the tests'
    ``QMatrix`` keeps the dense form for the references."""
    _assert_gone({"Matrix", "char_poly", "eigenvalues", "kernel", "solve_linear"})


def test_one_krylov_kernel_for_both_matrix_polynomials(monkeypatch):
    """min_poly reads its polynomial from _krylov_annihilator; the Z[t]
    Bareiss char_poly is gone."""
    from lieembed import exactlin
    assert not hasattr(exactlin, "_char_poly_bareiss_int")
    calls = []
    real = exactlin._krylov_annihilator
    monkeypatch.setattr(exactlin, "_krylov_annihilator",
                        lambda *args: calls.append(args) or real(*args))
    m = QMatrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]])
    # monic over Z, so its integer form is the polynomial itself
    assert exactlin.min_poly(scaled(m)) == (10, 23, -10, 1)
    assert len(calls) == 2  # e2 lies in the Krylov space of e1


def test_one_packed_horner_pass_per_annihilator(monkeypatch, wave15):
    """min_poly evaluates r(A) on all of its later start vectors in one
    packed _int_horner pass per Krylov annihilator after the first (a last
    pass may find every slot 0), and jordan_decomposition takes all of
    q(ad x) from one pass: no per-start Horner loop is left."""
    import inspect
    from lieembed import exactlin, liecore
    assert list(inspect.signature(exactlin._int_horner).parameters) == ["rows", "f", "starts"]
    passes, calls = [], []
    horner, krylov = exactlin._int_horner, exactlin._krylov_annihilator
    monkeypatch.setattr(exactlin, "_int_horner",
                        lambda *args: passes.append(args[2]) or horner(*args))
    monkeypatch.setattr(exactlin, "_krylov_annihilator",
                        lambda *args: calls.append(args) or krylov(*args))
    rng = random.Random(26)
    cases = [QMatrix([[1, 2, 0], [3, 4, 0], [0, 0, 5]]),
             QMatrix([[F(int(i == j), 3) for j in range(8)] for i in range(8)]),
             QMatrix([[0] * 6 for _ in range(6)]),
             QMatrix([[rng.randint(-9, 9) for _ in range(7)] for _ in range(7)]),
             ad(wave15, wave15.basis_vector("e1"))]
    counts = []
    for m in cases:
        passes.clear()
        calls.clear()
        min_poly(scaled(m))
        assert len(calls) - 1 <= len(passes) <= len(calls), (m, passes, calls)
        assert all(p[-1] == m.rows - 1 for p in passes)
        counts.append((len(passes), len(calls)))
    # e3 after e1's block; a scalar or zero matrix: ann(e1), then one pass
    # over the other 7 or 5 unit vectors finds every slot 0
    assert counts[:3] == [(1, 2), (1, 1), (1, 1)]
    jordan = []
    monkeypatch.setattr(liecore, "_int_horner",
                        lambda *args: jordan.append(args[2]) or horner(*args))
    E = wave15.basis_vector
    pair = jordan_decomposition(wave15, vec_add(E("e2"), E("e11")))
    assert jordan == [range(wave15.dim)]
    assert (pair.semisimple, pair.nilpotent) == (E("e2"), E("e11"))


def test_one_spectral_path():
    """Spectrum reads every minimal polynomial's roots: factor_roots takes
    only the polynomial, rootsys and embed bind no factoring of their own
    (embed's eigenvector step is a joint_eigenspaces call), and liecore
    labels a spectrum without a second flag loop."""
    import inspect
    from lieembed import embed, exactlin, liecore, rootsys
    assert list(inspect.signature(exactlin.factor_roots).parameters) == ["coeffs"]
    for name in ("factor_roots", "min_poly", "_scaled_vector"):
        assert not hasattr(embed, name), name
    assert not hasattr(rootsys, "factor_roots")
    assert not hasattr(liecore, "_semisimple_kind")


def test_searches_depend_only_on_their_arguments():
    """No lieembed module reads the process environment, and no search or
    embedding function takes a seed: one candidate stream serves them all."""
    import inspect
    import tokenize
    from pathlib import Path
    import lieembed
    from lieembed import embed, ops
    for path in sorted(Path(lieembed.__file__).parent.glob("*.py")):
        with path.open("rb") as fh:  # names in code, not in strings or comments
            names = {t.string for t in tokenize.tokenize(fh.readline) if t.type == tokenize.NAME}
        assert not names & {"environ", "environb", "getenv", "getenvb"}, path.name
    for module in (embed, ops):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if fn.__module__ == module.__name__:
                assert "seed" not in inspect.signature(fn).parameters, name


def test_no_runtime_dependencies():
    """In a fresh interpreter without site-packages (-S), importing every
    lieembed module and replaying the shipped corpus loads only lieembed
    and the standard library."""
    import lieembed
    from pathlib import Path
    src = str(Path(lieembed.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", _NO_DEPENDENCIES, src],
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.split()
    assert "lieembed.cli" in loaded and "lieembed.ops" in loaded
    tops = {name.split(".")[0] for name in loaded} - {"__main__"}
    assert {t for t in tops if t != "lieembed" and t not in sys.stdlib_module_names} == set()
