"""Exact scalar arithmetic, matrices and polynomial factorization."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieembed import exactlin
from lieembed.errors import ExtensionDegreeTooHigh, ParseError
from lieembed.exactlin import (ExactScalar, Matrix, Poly, char_poly, conj,
                               eigenvalues, factor_roots, kernel,
                               linear_solver, make_scalar, min_poly,
                               poly_gcd, poly_lcm, rat, rational_roots,
                               row_space_basis, rref, solve_linear,
                               squarefree_split, symmetric_signature,
                               unit_vector)

rationals = st.fractions(min_value=F(-30), max_value=F(30), max_denominator=7)


# --- scalars -----------------------------------------------------------------

def test_rat_accepts_only_p_over_q():
    for text, value in (("3", F(3)), (" -3/4 ", F(-3, 4)), ("+0/5", F(0))):
        assert rat(text) == value
    for text in ("1e3000000", "1E5", "0.5", ".5", "2.", "1_000", "1/2/3",
                 "1 /2", "٣", "", "nan", "inf"):
        with pytest.raises(ParseError):
            rat(text)
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


def test_squarefree_split():
    assert squarefree_split(12) == (3, 2)
    assert squarefree_split(-8) == (-2, 2)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(49) == (1, 7)


def test_make_scalar_demotes_rationals():
    assert make_scalar(3, 0, 5) == F(3)
    assert isinstance(make_scalar(1, 2, -1), ExactScalar)
    # sqrt(12) = 2 sqrt(3)
    s = make_scalar(0, 1, 12)
    assert (s.b, s.d) == (F(2), 3)
    # sqrt(49) collapses to rational 7
    assert make_scalar(1, 1, 49) == F(8)


def test_scalar_field_operations():
    s = make_scalar(1, 2, -2)
    assert s * s.inverse() == F(1)
    assert s + (-s) == F(0)
    t = make_scalar(0, 1, -2)
    assert t * t == F(-2)
    with pytest.raises(ExtensionDegreeTooHigh):
        _ = make_scalar(0, 1, 2) + make_scalar(0, 1, 3)


@given(a1=rationals, b1=rationals, a2=rationals, b2=rationals)
@settings(max_examples=60, deadline=None)
def test_scalar_ring_axioms_and_conjugation(a1, b1, a2, b2):
    d = -1
    x = make_scalar(a1, b1, d)
    y = make_scalar(a2, b2, d)
    assert x + y == y + x
    assert x * y == y * x
    # conjugation is a ring homomorphism
    assert conj(x + y) == conj(x) + conj(y)
    assert conj(x * y) == conj(x) * conj(y)
    # distributivity
    z = make_scalar(F(1, 2), F(1, 3), d)
    assert (x + y) * z == x * z + y * z


def test_real_sign():
    assert make_scalar(-1, 1, 2).real_sign() == 1     # sqrt2 > 1
    assert make_scalar(-3, 2, 2).real_sign() == -1    # 2 sqrt2 < 3
    assert make_scalar(0, -1, 5).real_sign() == -1


# --- rref / kernel / solve -----------------------------------------------------

def test_rref_identity():
    m = Matrix.identity(3)
    red, rank, piv = rref(m)
    assert red == m and rank == 3 and piv == [0, 1, 2]


def test_rref_dependent_rows():
    red, rank, piv = rref(Matrix([[2, 4], [1, 2]]))
    assert red.entries == ((F(1), F(2)), (F(0), F(0)))
    assert rank == 1


def test_rref_translation_frame_rank():
    # coefficient matrix of <d_t, d_y, d_x> over (t, x, y, z, u)
    rows = [unit_vector(5, 0), unit_vector(5, 2), unit_vector(5, 1)]
    _, rank, _ = rref(Matrix(rows))
    assert rank == 3  # leaves 5 - 3 = 2 joint invariants


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rref_idempotent(rows):
    red, _, _ = rref(Matrix(rows))
    red2, _, _ = rref(red)
    assert red == red2


@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rank_nullity(rows):
    m = Matrix(rows)
    _, rank, _ = rref(m)
    assert rank + len(kernel(m)) == m.cols


def test_kernel_trivial_cases():
    assert kernel(Matrix.identity(3)) == []
    assert kernel(Matrix.zero(2, 2)) == [unit_vector(2, 0), unit_vector(2, 1)]


def test_kernel_so13_boost_zero_eigenspace(so13):
    # zero eigenspace of ad(e1) is two-dimensional
    assert len(kernel(so13.ad(so13.basis_vector("e1")))) == 2


def test_solve_linear():
    assert solve_linear(Matrix.identity(2), (F(3), F(5))) == (F(3), F(5))
    assert solve_linear(Matrix([[1, 2], [2, 4]]), (1, 3)) is None
    # underdetermined: canonical particular solution has free vars zero
    assert solve_linear(Matrix([[1, 1]]), (F(2),)) == (F(2), F(0))


def _ref_linear_solver(m):
    """Fraction Gauss-Jordan on ``[m | I]`` (the loop linear_solver ran
    before it read its answers off one _rref_ints), kept as the reference:
    (rank, solve) with ``solve(b)`` read off the pivot rows of ``T b``."""
    n = m.cols
    rows = [({c: x for c, x in enumerate(row) if x}, {r: F(1)})
            for r, row in enumerate(m.entries)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pivot = min((i for i in range(r, len(rows)) if c in rows[i][0]),
                    key=lambda i: len(rows[i][0]) + len(rows[i][1]), default=None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = F(1) / rows[r][0][c]
        rows[r] = tuple({k: inv * x for k, x in part.items()} for part in rows[r])
        for i, row in enumerate(rows):
            f = row[0].get(c)
            if f and i != r:
                for dst, src in zip(row, rows[r]):
                    for k, x in src.items():
                        y = dst.get(k, F(0)) - f * x
                        if y:
                            dst[k] = y
                        else:
                            del dst[k]
        pivots.append(c)
    row_of = {c: i for i, c in enumerate(pivots)}
    t_columns = [[] for _ in rows]
    for i, (_, t_row) in enumerate(rows):
        for r, x in t_row.items():
            t_columns[r].append((i, x))

    def solve(rhs):
        acc = {}
        for r, b in enumerate(rhs):
            if b:
                for i, x in t_columns[r]:
                    acc[i] = acc.get(i, F(0)) + b * x
        if any(x for i, x in acc.items() if i >= len(pivots)):
            return None
        return tuple(acc.get(row_of.get(c), F(0)) for c in range(n))

    return len(pivots), solve


def _ref_solve_linear(m, rhs):
    """The solution read off ``rref([m | rhs])`` (solve_linear before it
    became one linear_solver call), kept as the reference."""
    reduced, _, pivots = rref(Matrix([list(row) + [b] for row, b in zip(m.entries, rhs)]))
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced.entries[r][m.cols]
    return tuple(x)


def test_linear_solver_matches_solve_linear():
    """Rank, solutions (free unknowns 0, entry types) and the None of a
    right-hand side outside the column span, at full and lower rank,
    against both references and the one-shot solve_linear."""
    rng = random.Random(7)
    deficient = 0
    for trial in range(60):
        rows, cols = rng.randint(2, 9), rng.randint(1, 5)
        m = Matrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5
                     else F(0) for _ in range(cols)] for _ in range(rows)])
        if trial % 3 == 0:  # a dependent column: a combination of the others
            k = rng.randrange(cols)
            m = Matrix([[sum((F(j + 1) * row[j] for j in range(cols) if j != k), F(0))
                         if c == k else x for c, x in enumerate(row)]
                        for row in m.entries])
        rank, solve = linear_solver(m)
        ref_rank, ref_solve = _ref_linear_solver(m)
        assert rank == ref_rank == rref(m)[1]
        deficient += rank < cols
        for _ in range(4):
            if rng.random() < 0.5:  # inside the column span
                x = [F(rng.randint(-4, 4), rng.randint(1, 4)) for _ in range(cols)]
                b = m.apply(x)
            else:
                b = tuple(F(rng.randint(-2, 2)) for _ in range(rows))
            got, want = solve(b), _ref_solve_linear(m, b)
            assert got == want == ref_solve(b) == solve_linear(m, b)
            assert got is None or all(type(x) is F for x in got)
    assert deficient >= 20
    assert linear_solver(Matrix([[0, 0], [0, 0]]))[0] == 0
    assert linear_solver(Matrix([[0, 0], [0, 0]]))[1]((F(0), F(1))) is None


def _reference_rref_rows(rows):
    """Dense Gauss-Jordan over Fraction/ExactScalar entries (the loop
    _rref_rows ran before its fraction-free rewrite), kept as the
    reference."""
    if not rows:
        return rows, []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    r = 0
    for c in range(n_cols):
        pivot = next((i for i in range(r, n_rows) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        if pv != 1:
            inv = (1 / pv) if isinstance(pv, F) else pv.inverse()
            rows[r] = [inv * x for x in rows[r]]
        for i in range(n_rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return rows, pivots


def _rand_rational(rng, bits):
    return F(rng.randint(-2 ** bits, 2 ** bits),
             rng.choice((1, 1, 2, 3, 7, rng.randint(1, 2 ** bits))))


def _rref_cases(seed, count, d=0):
    """Random matrices over Q (d = 0) or Q(sqrt d): 1-40-bit numerators,
    mixed denominators, some zero entries, low-rank products, zero and
    repeated rows, and 1xn, nx1, 1x0 and empty shapes."""
    rng = random.Random(seed)

    def entry(bits):
        a = _rand_rational(rng, bits)
        if d and rng.random() < 0.5:
            return make_scalar(a, _rand_rational(rng, bits), d)
        return a

    cases = [Matrix([]), Matrix([[]]), Matrix.zero(3, 4), Matrix.zero(1, 1)]
    for _ in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        bits = rng.randint(1, 40)
        density = rng.choice((0.2, 0.6, 1.0))
        kind = rng.random()
        if kind < 0.25:  # rank at most k: a product of rows x k and k x cols
            k = rng.randint(1, min(rows, cols))
            a = Matrix([[entry(bits) for _ in range(k)] for _ in range(rows)])
            b = Matrix([[entry(bits) for _ in range(cols)] for _ in range(k)])
            cases.append(a @ b)
            continue
        m = [[entry(bits) if rng.random() < density else F(0)
              for _ in range(cols)] for _ in range(rows)]
        if kind < 0.5:  # zero, repeated and rescaled rows
            m.append([F(0)] * cols)
            m.append(list(m[0]))
            m.append([entry(3) * x for x in m[-1]])
            rng.shuffle(m)
        cases.append(Matrix(m))
    for _ in range(4):
        cases.append(Matrix([[entry(12) for _ in range(rng.randint(1, 9))]]))
        cases.append(Matrix([[entry(12)] for _ in range(rng.randint(1, 9))]))
    return cases


def _same(x, y):
    """Equal, and with the same scalar type entry for entry."""
    return x == y and [type(e) for e in _flat(x)] == [type(e) for e in _flat(y)]


def _flat(obj):
    if isinstance(obj, Matrix):
        obj = obj.entries
    if isinstance(obj, (tuple, list)):
        return [e for item in obj for e in _flat(item)]
    return [obj]


def _rref_results(m, rng, solve):
    rhs_in = m.apply([F(rng.randint(-5, 5)) for _ in range(m.cols)])
    rhs_any = tuple(F(rng.randint(-3, 3)) for _ in range(m.rows))
    return (rref(m), row_space_basis(m.entries, m.cols), kernel(m),
            solve(m, rhs_in), solve(m, rhs_any))


@pytest.mark.parametrize("d", [0, -1, 2, -3, 5])
def test_rref_kernel_solve_match_fraction_reference(d, monkeypatch):
    cases = _rref_cases(seed=40 + d, count=60, d=d)
    got = [_rref_results(m, random.Random(i), solve_linear) for i, m in enumerate(cases)]
    # solve_linear does not go through _rref_rows: the reference solve does
    monkeypatch.setattr(exactlin, "_rref_rows", _reference_rref_rows)
    want = [_rref_results(m, random.Random(i), _ref_solve_linear)
            for i, m in enumerate(cases)]
    for m, g, w in zip(cases, got, want):
        assert _same(g, w), m.entries


def test_rref_mixed_extensions_rejected():
    root2, root3 = make_scalar(0, 1, 2), make_scalar(1, 1, 3)
    m = Matrix([[root2, 0], [0, root3]])
    for call in (lambda: rref(m), lambda: kernel(m),
                 lambda: row_space_basis(m.entries, 2),
                 lambda: solve_linear(m, (F(1), F(1)))):
        with pytest.raises(ExtensionDegreeTooHigh):
            call()


_EXTENSIONS = [0, 2, 3, 5, -1, -3]


@pytest.mark.parametrize("d", _EXTENSIONS)
def test_linear_solver_matches_fraction_references(d, monkeypatch):
    """linear_solver and solve_linear against the Fraction Gauss-Jordan and
    the rref of [m | b] with the reference _rref_rows: ranks, solutions
    with free unknowns 0 and their entry types, None for right-hand sides
    outside the span, over Q(sqrt d), at lower rank and on 0x0, 1x0, 3x0
    and 5x0 shapes."""
    rng = random.Random(80 + d)

    def entry():
        a = _rand_rational(rng, rng.randint(1, 12))
        return make_scalar(a, _rand_rational(rng, 6), d) if d and rng.random() < 0.5 else a

    cases = []
    for m in _rref_cases(seed=60 + d, count=25, d=d) + [Matrix([[]] * 3), Matrix([[]] * 5)]:
        sides = [m.apply([entry() for _ in range(m.cols)]) for _ in range(2)]
        sides += [tuple(entry() for _ in range(m.rows)) for _ in range(2)]
        rank, solve = linear_solver(m)
        cases.append((m, sides, rank, [solve(b) for b in sides],
                      [solve_linear(m, b) for b in sides]))
    monkeypatch.setattr(exactlin, "_rref_rows", _reference_rref_rows)
    deficient = outside = empty = 0
    for m, sides, rank, solved, one_shot in cases:
        ref_rank, ref_solve = _ref_linear_solver(m)
        assert rank == ref_rank == rref(m)[1], m.entries
        want = [_ref_solve_linear(m, b) for b in sides]
        assert _same(solved, want) and _same(one_shot, want), m.entries
        assert _same(solved, [ref_solve(b) for b in sides]), m.entries
        deficient += rank < m.cols
        outside += want.count(None)
        empty += m.cols == 0
    assert deficient >= 10 and outside >= 20 and empty >= 4


@pytest.mark.parametrize("d", [d for d in _EXTENSIONS if d])
def test_linear_solver_mixed_extensions_rejected(d):
    """Two different d in m raise when m is factored; a right-hand side
    over another d than m raises in solve, as the rref of [m | b] does."""
    e = next(e for e in _EXTENSIONS if e not in (0, d))
    root_d, root_e = make_scalar(1, 1, d), make_scalar(0, 2, e)
    mixed = Matrix([[root_d, F(1)], [F(0), root_e], [F(1), F(1)]])
    for call in (lambda: linear_solver(mixed), lambda: solve_linear(mixed, (1, 0, 0)),
                 lambda: _ref_solve_linear(mixed, (1, 0, 0))):
        with pytest.raises(ExtensionDegreeTooHigh):
            call()
    m = Matrix([[root_d, F(1)], [F(0), F(1)]])
    _, solve = linear_solver(m)
    assert solve((root_d, F(0))) == (F(1), F(0))
    for call in (lambda: solve((root_e, F(0))), lambda: solve_linear(m, (F(0), root_e)),
                 lambda: _ref_solve_linear(m, (root_e, F(0)))):
        with pytest.raises(ExtensionDegreeTooHigh):
            call()


def _counting_rref_rows(monkeypatch):
    """Replace _rref_rows by a wrapper that records each input."""
    calls = []
    real = exactlin._rref_rows
    monkeypatch.setattr(exactlin, "_rref_rows",
                        lambda rows: calls.append(rows) or real(rows))
    return calls


def _bogus_surd(a, d):
    """An ExactScalar with b = 0, which the constructor refuses."""
    x = object.__new__(ExactScalar)
    for name, value in (("a", a), ("b", F(0)), ("d", d)):
        object.__setattr__(x, name, value)
    return x


def test_row_space_basis_of_rref_input_is_that_input():
    r2 = make_scalar(F(1, 3), F(-2), 2)
    cases = [
        [unit_vector(4, i) for i in range(4)],
        [(F(1), F(0), F(-7, 3), F(0)), (F(0), F(1), F(5), F(0))],
        [(F(0), F(1), r2, F(0), F(2)), (F(0), F(0), F(0), F(1), -r2)],
        kernel(Matrix([[F(1), F(2), F(3), F(4)], [F(2), F(-1), F(0), F(1, 5)]])),
    ]
    for rows in cases:
        assert _same(row_space_basis(rows, len(rows[0])), tuple(rows))


def _reference_kernel(m):
    """The null space as kernel built it on the Fraction RREF: e_f minus the
    pivot entries of each free column f, then row-reduced."""
    reduced, pivots = _reference_rref_rows([list(r) for r in m.entries])
    basis = []
    for f in (c for c in range(m.cols) if c not in pivots):
        v = [F(0)] * m.cols
        v[f] = F(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    if not basis:
        return []
    reduced, pivots = _reference_rref_rows(basis)
    return [tuple(r) for r in reduced[:len(pivots)]]


@pytest.mark.parametrize("d", [0, -1, 2, -3, 5])
def test_kernel_matches_fraction_reference(d):
    """kernel reduces [M^T | I] in ints; the reference takes the null space
    off the Fraction RREF of M."""
    cases = _rref_cases(seed=60 + d, count=60, d=d)
    cases += [m.scale(F(0)) for m in cases[4:10]]
    for m in cases:
        assert _same(kernel(m), _reference_kernel(m)), m.entries


def test_row_space_basis_near_misses_are_reduced(monkeypatch):
    """Rows one step off canonical RREF go through elimination, and match
    the reference on the same numbers with canonical entry types."""
    r2 = make_scalar(0, 1, 2)
    near_misses = {
        "pivot 2": [(F(2), F(0), F(1)), (F(0), F(1), F(3))],
        "nonzero above a pivot": [(F(1), F(4), F(1)), (F(0), F(1), F(3))],
        "int 1 pivot": [(1, F(0), F(1)), (F(0), F(1), F(3))],
        "int 0 entry": [(F(1), 0, F(1)), (F(0), F(1), F(3))],
        "surd with b = 0": [(F(1), F(0), _bogus_surd(F(1, 2), 2)), (F(0), F(1), r2)],
        "pivots out of order": [(F(0), F(1), F(3)), (F(1), F(0), F(1))],
        "repeated pivot": [(F(1), F(0), F(1)), (F(1), F(0), F(2))],
    }
    canonical = {int: F, ExactScalar: lambda x: make_scalar(x.a, x.b, x.d), F: F}
    calls = _counting_rref_rows(monkeypatch)
    for label, rows in near_misses.items():
        got = row_space_basis(rows, 3)
        assert len(calls) == 1, label
        calls.clear()
        fixed = [[canonical[type(x)](x) for x in r] for r in rows]
        reduced, pivots = _reference_rref_rows(fixed)
        assert _same(got, tuple(tuple(r) for r in reduced[:len(pivots)])), label
    # RREF-shaped rows in two quadratic fields are rejected as before
    with pytest.raises(ExtensionDegreeTooHigh):
        row_space_basis([(F(1), F(0), r2), (F(0), F(1), make_scalar(0, 1, 3))], 3)


def test_rref_against_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _rref_cases(seed=41, count=40):
        reduced, rank, pivots = rref(m)
        if not m.rows or not m.cols:
            continue
        want, want_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row]
             for row in m.entries]).rref()
        assert list(want_pivots) == pivots and rank == len(pivots)
        assert [[sympy.Rational(x.numerator, x.denominator) for x in row]
                for row in reduced.entries] == want.tolist()


# --- characteristic / minimal polynomials -------------------------------------

def _naive_char_poly(m: Matrix) -> Poly:
    """Independent oracle: cofactor expansion of det(tI - m) over Poly."""
    n = m.rows
    entries = [[Poly([-m.entries[i][j], 1]) if i == j else Poly([-m.entries[i][j]])
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = Poly([])
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = entries[rows[0]][c] * minor
            total = total + term if k % 2 == 0 else total - term
        return total

    return det(list(range(n)), list(range(n)))


def test_char_poly_zero_matrix():
    assert char_poly(Matrix.zero(4, 4)) == Poly([0, 0, 0, 0, 1])


def test_char_poly_vs_cofactor_oracle():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        m = Matrix([[F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)])
        assert char_poly(m) == _naive_char_poly(m)


def test_char_poly_so4_boost(so4):
    # direct expansion oracle for ad(e1): t^2 (t^2+1)^2
    m = so4.ad(so4.basis_vector("e1"))
    expected = Poly([0, 0, 1]) * Poly([1, 0, 1]) * Poly([1, 0, 1])
    assert char_poly(m) == expected
    assert char_poly(m) == _naive_char_poly(m)


def test_char_poly_wave_levi_boost(wave15):
    # any boost restricted to the Levi part of N(translations) has
    # char poly t^2 (t-1)^2 (t+1)^2
    from lieembed.liecore import Subspace
    S = Subspace(wave15, [wave15.basis_vector(n)
                          for n in ("e2", "e4", "e6", "e13", "e14", "e15")])
    expected = Poly([0, 0, 1]) * Poly([-1, 0, 1]) * Poly([-1, 0, 1])
    for boost in ("e2", "e6"):
        m = S.restrict(wave15.ad(wave15.basis_vector(boost)))
        assert char_poly(m) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6))
def test_cayley_hamilton(n, seed):
    rng = random.Random(seed)
    m = Matrix([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    p = char_poly(m)
    assert p.eval_matrix(m).is_zero()


def test_min_poly_divides_char_poly():
    rng = random.Random(3)
    for n in (3, 4, 6):
        m = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        mp, cp = min_poly(m), char_poly(m)
        assert (cp % mp).is_zero()
        assert mp.eval_matrix(m).is_zero()


def _reference_min_poly(m):
    """Krylov minimal polynomial over Fraction vectors (the algorithm
    min_poly used before its integer rewrite), kept as the reference."""
    n = m.rows
    result = Poly([1])
    for start in range(n):
        if result.degree >= 1:
            e = unit_vector(n, start)
            acc = tuple([F(0)] * n)
            for c in reversed(result.coeffs):
                acc = tuple(x + c * ei for x, ei in zip(m.apply(acc), e))
            if all(not x for x in acc):
                continue
        result = poly_lcm(result, _reference_annihilator(m, start))
        if result.degree == n:
            break
    return result


def _reference_annihilator(m, start):
    n = m.rows
    rows, combos = [], []  # echelon rows of the Krylov vectors, and their
    power = unit_vector(n, start)  # coefficients in the powers of m
    while True:
        work = list(power)
        combo = [F(0)] * len(rows) + [F(1)]
        for row, rc in zip(rows, combos):
            p = next(c for c in range(n) if row[c])
            if work[p]:
                f = work[p]
                work = [x - f * y for x, y in zip(work, row)]
                combo = [a - f * b for a, b in
                         zip(combo, rc + [F(0)] * (len(combo) - len(rc)))]
        if all(not x for x in work):
            return Poly(combo).monic()
        inv = 1 / next(x for x in work if x)
        rows.append([inv * x for x in work])
        combos.append([inv * x for x in combo])
        power = m.apply(power)


def _shear_conjugate(b, rng, shears=6):
    """P b P^-1 for a random product P of integer shears I + c E_ij."""
    n = b.rows
    for _ in range(shears if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-3, 3)
        s = [[F(int(r == k)) + (c if (r, k) == (i, j) else 0) for k in range(n)]
             for r in range(n)]
        s_inv = [[F(int(r == k)) - (c if (r, k) == (i, j) else 0) for k in range(n)]
                 for r in range(n)]
        b = Matrix(s) @ b @ Matrix(s_inv)
    return b


def _block_diag(blocks):
    n = sum(len(bl) for bl in blocks)
    out = [[F(0)] * n for _ in range(n)]
    at = 0
    for bl in blocks:
        for i, row in enumerate(bl):
            for j, x in enumerate(row):
                out[at + i][at + j] = F(x)
        at += len(bl)
    return Matrix(out)


def _jordan(lam, k):
    return [[lam if i == j else (1 if j == i + 1 else 0) for j in range(k)]
            for i in range(k)]


def _min_poly_cases(seed, count):
    """Random rational matrices (1-20 bit numerators, mixed denominators,
    some zero entries) and structured ones: zero, scalar, 1x1, nilpotent,
    derogatory (repeated Jordan blocks) and diagonalizable with repeats."""
    rng = random.Random(seed)
    cases = [Matrix([[0] * n for _ in range(n)]) for n in (1, 2, 4)]
    cases += [Matrix.identity(n).scale(F(-7, 3)) for n in (1, 3)]
    cases += [Matrix([[F(rng.randint(-99, 99), rng.randint(1, 9))]]) for _ in range(3)]
    for _ in range(count):
        n = rng.randint(1, 7)
        bits = rng.randint(1, 20)
        density = rng.choice((0.3, 0.7, 1.0))
        cases.append(Matrix([[_rand_rational(rng, bits) if rng.random() < density
                              else F(0) for _ in range(n)] for _ in range(n)]))
    structured = [
        _block_diag([_jordan(0, 3), _jordan(0, 2)]),             # nilpotent
        _block_diag([_jordan(0, 4)]),
        _block_diag([_jordan(F(2, 3), 2), _jordan(F(2, 3), 2)]),  # derogatory
        _block_diag([_jordan(1, 2), _jordan(1, 1), _jordan(-5, 1), _jordan(-5, 1)]),
        _block_diag([_jordan(3, 1)] * 3 + [_jordan(-1, 1)] * 2),  # repeated eigenvalues
        _block_diag([[[0, -1], [1, 0]], [[0, -1], [1, 0]], _jordan(0, 1)]),
    ]
    cases += structured + [_shear_conjugate(b, rng) for b in structured]
    return cases


def test_min_poly_matches_fraction_reference():
    for m in _min_poly_cases(seed=20, count=40):
        assert min_poly(m) == _reference_min_poly(m), m.entries


def test_min_poly_known_values():
    t = Poly.x()
    assert min_poly(Matrix([[0, 0], [0, 0]])) == t
    assert min_poly(Matrix.identity(3).scale(F(5, 2))) == t - Poly([F(5, 2)])
    assert min_poly(Matrix([[F(-3, 4)]])) == t + Poly([F(3, 4)])
    assert min_poly(_block_diag([_jordan(0, 3), _jordan(0, 1)])) == t * t * t
    assert min_poly(Matrix([])) == Poly([1])


def test_min_poly_rejects_extension_scalars():
    root2 = make_scalar(0, 1, 2)
    with pytest.raises(ValueError, match="rational"):
        min_poly(Matrix([[root2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="square"):
        min_poly(Matrix([[1, 2]]))


def test_char_poly_rejects_extension_scalars():
    root2 = make_scalar(0, 1, 2)
    with pytest.raises(ValueError, match="rational"):
        char_poly(Matrix([[root2, 0], [0, 1]]))
    with pytest.raises(ValueError, match="square"):
        char_poly(Matrix([[1, 2]]))
    assert char_poly(Matrix([])) == Poly([1])


def test_min_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def evaluate(coeffs, mat):
        acc = sympy.zeros(mat.rows, mat.cols)
        for c in reversed(coeffs):
            acc = acc * mat + c * sympy.eye(mat.rows)
        return acc

    for m in _min_poly_cases(seed=21, count=12):
        mp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                         for c in reversed(min_poly(m).coeffs)], t)
        mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                             for x in row] for row in m.entries])
        assert evaluate(mp.all_coeffs()[::-1], mat).is_zero_matrix
        assert sympy.rem(mat.charpoly(t).as_expr(), mp.as_expr(), t) == 0
        for f, _ in sympy.factor_list(mp.as_expr(), t)[1]:
            smaller = sympy.Poly(sympy.quo(mp.as_expr(), f, t), t)
            assert not evaluate(smaller.all_coeffs()[::-1], mat).is_zero_matrix


# --- eigenvalues ----------------------------------------------------------------

def test_eigenvalues_nilpotent():
    m = Matrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    assert eigenvalues(m) == [(F(0), 3)]


def test_eigenvalues_so13_boost(so13):
    ev = eigenvalues(so13.ad(so13.basis_vector("e1")))
    assert ev == [(F(-1), 2), (F(0), 2), (F(1), 2)]


def test_eigenvalues_reconstruct_char_poly():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.choice((2, 3, 4))
        m = Matrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        try:
            ev = eigenvalues(m)
        except ExtensionDegreeTooHigh:
            continue
        prod = Poly([1])
        for lam, mult in ev:
            for _ in range(mult):
                prod = prod * Poly([-lam, 1])
        # rational coefficients throughout: compare against char poly
        assert Poly([c for c in prod.coeffs]) == char_poly(m)
        assert sum(mult for _, mult in ev) == n


def _eigen_cases(seed, bits, count):
    """The structured min_poly cases (zero, scalar, nilpotent, derogatory,
    repeated eigenvalues) and their shear conjugates; shear conjugates of
    block matrices whose eigenvalues lie in one Q(sqrt d) (companion blocks
    of t^2 - 2, t^2 + 1 and t^2 - 2t + 4 next to rational Jordan blocks or
    repeated); and ``count`` random n x n matrices, n <= 6, with
    ``bits``-bit numerators, mixed denominators and some zero entries."""
    rng = random.Random(seed)
    cases = _min_poly_cases(seed, count=0)
    quadratic = {2: [[0, 2], [1, 0]], -1: [[0, -1], [1, 0]], -3: [[0, -4], [1, 2]]}
    for d, block in quadratic.items():
        for extra in ([_jordan(F(1, 2), 1)], [_jordan(0, 2)], [block, _jordan(-3, 1)]):
            cases.append(_shear_conjugate(_block_diag([block] + extra), rng))
    for _ in range(count):
        n = rng.randint(1, 6)
        density = rng.choice((0.3, 0.7, 1.0))
        cases.append(Matrix([[_rand_rational(rng, bits) if rng.random() < density
                              else F(0) for _ in range(n)] for _ in range(n)]))
    return cases


def _sympy_scalar(sympy, x):
    a, b, d = exactlin.scalar_parts(x)
    return sympy.expand(sympy.Rational(a.numerator, a.denominator)
                        + sympy.Rational(b.numerator, b.denominator) * sympy.sqrt(d))


def test_char_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for m in _eigen_cases(seed=31, bits=20, count=24):
        mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in m.entries])
        want = mat.charpoly(t).all_coeffs()[::-1]
        got = char_poly(m).coeffs
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == want


def test_eigenvalues_against_sympy():
    """Eigenvalue multisets equal sympy's roots of the characteristic
    polynomial when these lie in Q or one Q(sqrt d); ExtensionDegreeTooHigh
    exactly when they do not.  The random entries have 2-bit numerators:
    rational_roots trial-divides the scaled constant term, which does not
    finish within 5 s for a 3 x 3 matrix of 17-bit entries."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    in_tower = 0
    for m in _eigen_cases(seed=32, bits=2, count=40):
        mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in m.entries])
        cp = mat.charpoly(t).as_expr()
        factors = [sympy.Poly(f, t) for f, _ in sympy.factor_list(cp, t)[1]]
        discs = [sympy.Rational(f.discriminant()) for f in factors if f.degree() == 2]
        fields = {squarefree_split(r.p * r.q)[0] for r in discs}
        fits = all(f.degree() <= 2 for f in factors) and len(fields) <= 1
        if not fits:
            with pytest.raises(ExtensionDegreeTooHigh):
                eigenvalues(m)
            continue
        in_tower += 1
        want = {sympy.expand(r): k for r, k in sympy.roots(cp, t).items()}
        got = {}
        for lam, mult in eigenvalues(m):
            key = _sympy_scalar(sympy, lam)
            got[key] = got.get(key, 0) + mult
        assert got == want, m.entries
    assert in_tower >= 20


def test_eigenvalues_quartic_resolvent():
    # t^4 + 4 = (t^2+2t+2)(t^2-2t+2): roots (+-1 +- i)
    roots = factor_roots(Poly([4, 0, 0, 0, 1]))
    values = {(r.a, r.b) for r, _ in roots}
    assert values == {(F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))}


def test_eigenvalues_two_extensions_rejected():
    # (t^2+1)(t^2+2) needs both sqrt(-1) and sqrt(-2)
    with pytest.raises(ExtensionDegreeTooHigh):
        factor_roots(Poly([1, 0, 1]) * Poly([2, 0, 1]))
    # but classification mode tolerates them side by side
    roots = factor_roots(Poly([1, 0, 1]) * Poly([2, 0, 1]), single_extension=False)
    assert len(roots) == 4


def test_eigenvalues_cubic_rejected():
    with pytest.raises(ExtensionDegreeTooHigh):
        factor_roots(Poly([-2, 0, 0, 1]))  # t^3 - 2


def test_rational_roots_divisor_search():
    p = Poly([F(-1, 2), F(1, 2)]) * Poly([-2, 1]) * Poly([3, 1])
    assert sorted(rational_roots(p)) == [F(-3), F(1), F(2)]


# --- signature / determinant ----------------------------------------------------

def _ref_symmetric_signature(m):
    """The dense Fraction congruence diagonalization symmetric_signature
    replaced: (n_pos, n_neg, n_zero) of a symmetric rational matrix."""
    n = m.rows
    a = [list(r) for r in m.entries]
    pos = neg = zero = 0
    for i in range(n):
        if not a[i][i]:
            j = next((j for j in range(i + 1, n) if a[j][j]), None)
            if j is not None:
                a[i], a[j] = a[j], a[i]
                for row in a:
                    row[i], row[j] = row[j], row[i]
            else:
                j = next((j for j in range(i + 1, n) if a[i][j]), None)
                if j is None:
                    zero += 1
                    continue
                a[i] = [x + y for x, y in zip(a[i], a[j])]
                for row in a:
                    row[i] = row[i] + row[j]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[i][j]:
                f = a[i][j] / p
                a[j] = [x - f * y for x, y in zip(a[j], a[i])]
        for j in range(i + 1, n):
            a[j][i] = F(0)
            a[i][j] = F(0)
    return pos, neg, zero


def _ref_determinant(m):
    """The dense Fraction Gaussian elimination the determinant came from."""
    if m.rows != m.cols:
        raise ValueError("square matrix required")
    a = [list(r) for r in m.entries]
    n = m.rows
    det = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if a[i][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        pv = a[c][c]
        det = det * pv
        inv = (F(1) / pv) if isinstance(pv, F) else pv.inverse()
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_symmetric_signature():
    assert symmetric_signature(Matrix([[0, 1], [1, 0]])) == (1, 1, 0, F(-1))
    assert symmetric_signature(Matrix.zero(3, 3)) == (0, 0, 3, F(0))
    assert symmetric_signature(Matrix([[2, 0], [0, -3]])) == (1, 1, 0, F(-6))
    assert symmetric_signature(Matrix([])) == (0, 0, 0, F(1))
    with pytest.raises(ValueError, match="symmetric matrix required"):
        symmetric_signature(Matrix([[1, 2], [3, 4]]))


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_signature_counts_sum(rows):
    sym = [[F(rows[i][j] + rows[j][i]) for j in range(3)] for i in range(3)]
    pos, neg, zero, _ = symmetric_signature(Matrix(sym))
    assert pos + neg + zero == 3
    _, rank, _ = rref(Matrix(sym))
    assert pos + neg == rank


def test_determinant():
    assert _ref_determinant(Matrix([[1, 2], [3, 4]])) == F(-2)
    for m, det in ((Matrix([[1, 2], [2, 1]]), F(-3)), (Matrix.identity(5), F(1)),
                   (Matrix.zero(2, 2), F(0))):
        assert symmetric_signature(m)[3] == det == _ref_determinant(m)


@st.composite
def _symmetric_matrices(draw):
    """Symmetric rational matrices up to 16x16, numerators and denominators
    up to 20 bits: dense, zero diagonal, all-zero trailing block, sparse,
    or a sum of at most three signed rank-1 terms (singular for n > 3)."""
    n = draw(st.integers(0, 16))
    entry = st.builds(F, st.integers(-2 ** 20, 2 ** 20),
                      st.sampled_from((1, 1, 1, 2, 3, 7, 2 ** 20 - 3)))
    kind = draw(st.sampled_from(("dense", "zero diagonal", "zero trailing block",
                                 "sparse", "low rank")))
    if kind == "low rank":
        a = [[F(0)] * n for _ in range(n)]
        for _ in range(draw(st.integers(1, 3))):
            v = draw(st.lists(entry, min_size=n, max_size=n))
            sign = draw(st.sampled_from((1, -1)))
            a = [[x + sign * v[i] * v[j] for j, x in enumerate(row)]
                 for i, row in enumerate(a)]
        return Matrix(a)
    size = n * (n + 1) // 2
    upper = draw(st.lists(entry, min_size=size, max_size=size))
    if kind == "sparse":
        keep = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        upper = [x if k else F(0) for x, k in zip(upper, keep)]
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = upper.pop()
    if kind == "zero diagonal":
        for i in range(n):
            a[i][i] = F(0)
    elif kind == "zero trailing block":
        t = draw(st.integers(0, n))
        for i in range(t, n):
            for j in range(n):
                a[i][j] = a[j][i] = F(0)
    return Matrix(a)


@given(_symmetric_matrices())
@settings(deadline=None)
def test_symmetric_signature_against_the_fraction_loops(m):
    sympy = pytest.importorskip("sympy")
    pos, neg, zero, det = symmetric_signature(m)
    assert (pos, neg, zero) == _ref_symmetric_signature(m)
    assert det == _ref_determinant(m) and type(det) is F
    if m.rows:
        want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                             for row in m.entries]).det()
        assert det == F(int(want.p), int(want.q))


def test_symmetric_signature_over_a_real_quadratic_field():
    """Over Q(sqrt d), d > 0: pos and neg against the eigenvalue signs at 60
    digits, zero against the rank, det against the Fraction elimination."""
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(11)

    def real(x):
        a, b, d = exactlin.scalar_parts(x)
        return (mpmath.mpf(a.numerator) / a.denominator
                + mpmath.mpf(b.numerator) / b.denominator * mpmath.sqrt(d))

    for d in (2, 3, 5, 7):
        for _ in range(15):
            n = rng.randint(1, 6)
            a = [[F(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    if rng.random() < 0.8:
                        a[i][j] = a[j][i] = make_scalar(_rand_rational(rng, 8),
                                                        _rand_rational(rng, 8), d)
            if rng.random() < 0.3:  # singular: the last index repeats the first
                a[-1] = list(a[0])
                for row in a:
                    row[-1] = row[0]
            m = Matrix(a)
            pos, neg, zero, det = symmetric_signature(m)
            with mpmath.workdps(60):
                values = mpmath.eigsy(mpmath.matrix(
                    [[real(x) for x in row] for row in a]), eigvals_only=True)
                big = [v for v in values if abs(v) > mpmath.mpf(10) ** -40]
            _, rank, _ = rref(m)
            assert zero == n - rank == n - len(big)
            assert (pos, neg) == (sum(v > 0 for v in big), sum(v < 0 for v in big))
            assert det == _ref_determinant(m)


def test_symmetric_signature_over_an_imaginary_field_raises():
    i = make_scalar(0, 1, -1)
    with pytest.raises(ValueError, match="imaginary field Q\\(sqrt\\(-1\\)\\) "
                       "has no signature"):
        symmetric_signature(Matrix([[i, 1], [1, 0]]))
