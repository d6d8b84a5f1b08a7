"""Exact scalar arithmetic, matrices and polynomial factorization."""

import functools
import importlib
import random
import sys
import time
from fractions import Fraction as F
from math import gcd, isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieembed import exactlin
from lieembed.errors import ExtensionDegreeTooHigh, ParseError
from lieembed.exactlin import (ExactScalar, conj, factor_roots,
                               make_scalar, min_poly, rat, rref,
                               squarefree_split, symmetric_signature,
                               unit_vector)
from matrixops import ad, kernel, linear_solver, scaled, solve_linear
from polyref import (QMatrix, QPoly, horner_per_start, poly_gcd,
                     reference_char_poly, squarefree_decomposition)

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


@pytest.mark.parametrize("value", [True, False, 1.0, None])
def test_rat_rejects_bool_float_none(value):
    """A JSON true is not the coefficient 1 (bool is a subclass of int)."""
    with pytest.raises(TypeError, match=f"^not a rational: {value!r}$"):
        rat(value)


@given(st.sampled_from(("", "+", "-")), st.integers(0, 10 ** 40),
       st.one_of(st.none(), st.integers(0, 10 ** 40)), st.sampled_from(("", " ", "\n")))
def test_rat_matches_fraction_on_short_strings(sign, num, den, pad):
    """rat builds the Fraction from its own match: the value Fraction(text)
    gives, and for a zero denominator the same ZeroDivisionError text."""
    text = f"{pad}{sign}{num}{'' if den is None else f'/{den}'}{pad}"
    try:
        want = F(text)
    except ZeroDivisionError as exc:
        with pytest.raises(ZeroDivisionError) as got:
            rat(text)
        assert str(got.value) == str(exc)
        return
    assert rat(text) == want


def test_rat_long_digit_strings():
    """Numerators and denominators of up to 4300 digits convert in chunks
    of 640, with the value int() gives; longer ones raise ParseError."""
    for num, den in (("9" * 641, "1"), ("12" * 1000, "7" * 650), ("1" * 4300, "3" * 4300),
                     ("0" * 4300, "5"), ("5", "0" * 4299 + "2")):
        for sign in ("", "-", "+"):
            assert rat(f" {sign}{num}/{den}\n") == F(int(sign + num), int(den))
        assert rat(sign + num) == int(sign + num)
    for text in ("1" * 4301, "1/" + "1" * 4301, "-" + "1" * 4301 + "/2"):
        with pytest.raises(ParseError, match="more than 4300 digits"):
            rat(text)
    with pytest.raises(ZeroDivisionError, match="zero denominator"):
        rat("1" * 700 + "/" + "0" * 4300)


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


# --- matrices ------------------------------------------------------------------

def test_matrix_from_columns():
    """Columns become rows transposed; no columns give the 0x0 matrix, and
    ragged columns raise what ragged rows raise, whichever column is the
    shortest."""
    m = QMatrix.from_columns([(1, 2, 3), (4, 5, 6)])
    assert m == QMatrix([[1, 4], [2, 5], [3, 6]]) and (m.rows, m.cols) == (3, 2)
    empty = QMatrix.from_columns([])
    assert empty == QMatrix([]) and (empty.rows, empty.cols) == (0, 0)
    for cols in ([(1,), (2, 3)], [(1, 2), (3,)], [(1, 2), (), (3, 4)]):
        with pytest.raises(ValueError, match="ragged matrix"):
            QMatrix.from_columns(cols)
    with pytest.raises(ValueError, match="ragged matrix"):
        QMatrix([[1], [2, 3]])


# --- rref / kernel / solve -----------------------------------------------------

def test_rref_identity():
    m = QMatrix.identity(3)
    red, piv = rref(m.entries)
    assert red == list(m.entries) and len(piv) == 3 and piv == [0, 1, 2]


def test_rref_dependent_rows():
    red, piv = rref(QMatrix([[2, 4], [1, 2]]).entries)
    assert red == [(F(1), F(2))]  # the nonzero rows only
    assert len(piv) == 1


def test_rref_translation_frame_rank():
    # coefficient matrix of <d_t, d_y, d_x> over (t, x, y, z, u)
    rows = [unit_vector(5, 0), unit_vector(5, 2), unit_vector(5, 1)]
    assert len(rref(rows)[1]) == 3  # leaves 5 - 3 = 2 joint invariants


@given(st.lists(st.lists(rationals, min_size=3, max_size=3),
                min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_rref_idempotent(rows):
    red, _ = rref(rows)
    red2, _ = rref(red)
    assert red == red2


@given(st.lists(st.lists(rationals, min_size=4, max_size=4),
                min_size=2, max_size=5))
@settings(max_examples=40, deadline=None)
def test_rank_nullity(rows):
    m = QMatrix(rows)
    assert len(rref(m.entries)[1]) + len(kernel(m)) == m.cols


def test_kernel_trivial_cases():
    assert kernel(QMatrix.identity(3)) == []
    assert kernel(QMatrix.zero(2, 2)) == [unit_vector(2, 0), unit_vector(2, 1)]


def test_kernel_so13_boost_zero_eigenspace(so13):
    # zero eigenspace of ad(e1) is two-dimensional
    assert len(kernel(ad(so13, so13.basis_vector("e1")))) == 2


def test_solve_linear():
    assert solve_linear(QMatrix.identity(2), (F(3), F(5))) == (F(3), F(5))
    assert solve_linear(QMatrix([[1, 2], [2, 4]]), (1, 3)) is None
    # underdetermined: canonical particular solution has free vars zero
    assert solve_linear(QMatrix([[1, 1]]), (F(2),)) == (F(2), F(0))


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


def _ref_solve_linear(m, rhs, reduce=None):
    """The solution read off the RREF of ``[m | rhs]`` (the solve before it
    became one linear_solver call), kept as the reference: ``reduce`` takes
    rows to (the nonzero reduced rows, pivots), by default the Fraction
    Gauss-Jordan :func:`_ref_rref`."""
    reduced, pivots = (reduce or _ref_rref)([list(row) + [rat(b) if isinstance(b, int) else b]
                                              for row, b in zip(m.entries, rhs)])
    if m.cols in pivots:
        return None
    x = [F(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][m.cols]
    return tuple(x)


def test_linear_solver_matches_solve_linear():
    """Rank, solutions (free unknowns 0, entry types) and the None of a
    right-hand side outside the column span, at full and lower rank,
    against both references and the one-shot solve_linear."""
    rng = random.Random(7)
    deficient = 0
    for trial in range(60):
        rows, cols = rng.randint(2, 9), rng.randint(1, 5)
        m = QMatrix([[F(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5
                     else F(0) for _ in range(cols)] for _ in range(rows)])
        if trial % 3 == 0:  # a dependent column: a combination of the others
            k = rng.randrange(cols)
            m = QMatrix([[sum((F(j + 1) * row[j] for j in range(cols) if j != k), F(0))
                         if c == k else x for c, x in enumerate(row)]
                        for row in m.entries])
        rank, solve = linear_solver(m)
        ref_rank, ref_solve = _ref_linear_solver(m)
        assert rank == ref_rank == len(rref(m.entries)[1])
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
    assert linear_solver(QMatrix([[0, 0], [0, 0]]))[0] == 0
    assert linear_solver(QMatrix([[0, 0], [0, 0]]))[1]((F(0), F(1))) is None


def _reference_rref_rows(rows):
    """Dense Gauss-Jordan over Fraction/ExactScalar entries (the loop
    rref ran before its fraction-free rewrite), kept as the
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


def _ref_rref(rows):
    """(the nonzero rows, pivots) of the reference RREF of the rows, in the
    form rref returns."""
    reduced, pivots = _reference_rref_rows([list(r) for r in rows])
    return [tuple(r) for r in reduced[:len(pivots)]], pivots


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

    cases = [QMatrix([]), QMatrix([[]]), QMatrix.zero(3, 4), QMatrix.zero(1, 1)]
    for _ in range(count):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        bits = rng.randint(1, 40)
        density = rng.choice((0.2, 0.6, 1.0))
        kind = rng.random()
        if kind < 0.25:  # rank at most k: a product of rows x k and k x cols
            k = rng.randint(1, min(rows, cols))
            a = QMatrix([[entry(bits) for _ in range(k)] for _ in range(rows)])
            b = QMatrix([[entry(bits) for _ in range(cols)] for _ in range(k)])
            cases.append(a @ b)
            continue
        m = [[entry(bits) if rng.random() < density else F(0)
              for _ in range(cols)] for _ in range(rows)]
        if kind < 0.5:  # zero, repeated and rescaled rows
            m.append([F(0)] * cols)
            m.append(list(m[0]))
            m.append([entry(3) * x for x in m[-1]])
            rng.shuffle(m)
        cases.append(QMatrix(m))
    for _ in range(4):
        cases.append(QMatrix([[entry(12) for _ in range(rng.randint(1, 9))]]))
        cases.append(QMatrix([[entry(12)] for _ in range(rng.randint(1, 9))]))
    return cases


def _same(x, y):
    """Equal, and with the same scalar type entry for entry."""
    return x == y and [type(e) for e in _flat(x)] == [type(e) for e in _flat(y)]


def _flat(obj):
    if isinstance(obj, QMatrix):
        obj = obj.entries
    if isinstance(obj, (tuple, list)):
        return [e for item in obj for e in _flat(item)]
    return [obj]


def _rref_results(m, rng, reduce, solve):
    rhs_in = m.apply([F(rng.randint(-5, 5)) for _ in range(m.cols)])
    rhs_any = tuple(F(rng.randint(-3, 3)) for _ in range(m.rows))
    return reduce(m.entries), kernel(m), solve(m, rhs_in), solve(m, rhs_any)


@pytest.mark.parametrize("d", [0, -1, 2, -3, 5])
def test_rref_kernel_solve_match_fraction_reference(d):
    cases = _rref_cases(seed=40 + d, count=60, d=d)
    got = [_rref_results(m, random.Random(i), rref, solve_linear)
           for i, m in enumerate(cases)]
    # the kernel has its own reference (test_kernel_matches_fraction_reference)
    want = [_rref_results(m, random.Random(i), _ref_rref, _ref_solve_linear)
            for i, m in enumerate(cases)]
    for m, g, w in zip(cases, got, want):
        assert _same(g, w), m.entries


def test_rref_mixed_extensions_rejected():
    root2, root3 = make_scalar(0, 1, 2), make_scalar(1, 1, 3)
    m = QMatrix([[root2, 0], [0, root3]])
    for call in (lambda: rref(m.entries), lambda: kernel(m),
                 lambda: solve_linear(m, (F(1), F(1)))):
        with pytest.raises(ExtensionDegreeTooHigh):
            call()


_EXTENSIONS = [0, 2, 3, 5, -1, -3]


@pytest.mark.parametrize("d", _EXTENSIONS)
def test_linear_solver_matches_fraction_references(d):
    """linear_solver and solve_linear against the Fraction Gauss-Jordan and
    the reference RREF of [m | b]: ranks, solutions
    with free unknowns 0 and their entry types, None for right-hand sides
    outside the span, over Q(sqrt d), at lower rank and on 0x0, 1x0, 3x0
    and 5x0 shapes."""
    rng = random.Random(80 + d)

    def entry():
        a = _rand_rational(rng, rng.randint(1, 12))
        return make_scalar(a, _rand_rational(rng, 6), d) if d and rng.random() < 0.5 else a

    cases = []
    for m in _rref_cases(seed=60 + d, count=25, d=d) + [QMatrix([[]] * 3), QMatrix([[]] * 5)]:
        sides = [m.apply([entry() for _ in range(m.cols)]) for _ in range(2)]
        sides += [tuple(entry() for _ in range(m.rows)) for _ in range(2)]
        rank, solve = linear_solver(m)
        cases.append((m, sides, rank, [solve(b) for b in sides],
                      [solve_linear(m, b) for b in sides]))
    deficient = outside = empty = 0
    for m, sides, rank, solved, one_shot in cases:
        ref_rank, ref_solve = _ref_linear_solver(m)
        assert rank == ref_rank == len(_ref_rref(m.entries)[1]), m.entries
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
    over another d than m raises in solve, as rref of [m | b] does."""
    e = next(e for e in _EXTENSIONS if e not in (0, d))
    root_d, root_e = make_scalar(1, 1, d), make_scalar(0, 2, e)
    mixed = QMatrix([[root_d, F(1)], [F(0), root_e], [F(1), F(1)]])
    for call in (lambda: linear_solver(mixed), lambda: solve_linear(mixed, (1, 0, 0)),
                 lambda: _ref_solve_linear(mixed, (1, 0, 0), rref)):
        with pytest.raises(ExtensionDegreeTooHigh):
            call()
    m = QMatrix([[root_d, F(1)], [F(0), F(1)]])
    _, solve = linear_solver(m)
    assert solve((root_d, F(0))) == (F(1), F(0))
    for call in (lambda: solve((root_e, F(0))), lambda: solve_linear(m, (F(0), root_e)),
                 lambda: _ref_solve_linear(m, (root_e, F(0)), rref)):
        with pytest.raises(ExtensionDegreeTooHigh):
            call()


def _int_columns(cols, extra):
    """(D, d, cols): the vectors as integer rows over Z[sqrt d], scaled by
    D = extra * the lcm of the denominators."""
    from lieembed.exactlin import scalar_parts
    parts = [[scalar_parts(x) for x in col] for col in cols]
    D = extra * lcm(1, *(x.denominator for col in parts for a, b, _ in col for x in (a, b)))
    d = next((e for col in parts for _, _, e in col if e), 0)
    return D, d, [({i: a.numerator * (D // a.denominator) for i, (a, _, _) in enumerate(col) if a},
                   {i: b.numerator * (D // b.denominator) for i, (_, b, _) in enumerate(col) if b})
                  for col in parts]


@pytest.mark.parametrize("d", _EXTENSIONS)
def test_linear_solver_on_scaled_columns_matches_the_reference(d):
    """linear_solver given a matrix's scaled integer columns (D, d, cols),
    D not the least scale, and its height, its solve given scaled
    right-hand sides (scale, d, a, b), against the Fraction Gauss-Jordan
    reference: rank, solutions with free unknowns 0 and their entry types,
    None outside the span; the given dicts are left as they were."""
    import copy
    rng = random.Random(90 + d)

    def entry():
        a = _rand_rational(rng, rng.randint(1, 12))
        return make_scalar(a, _rand_rational(rng, 6), d) if d and rng.random() < 0.5 else a

    deficient = outside = 0
    for m in _rref_cases(seed=70 + d, count=25, d=d) + [QMatrix([[]] * 3)]:
        scaled = _int_columns(list(zip(*m.entries)), rng.choice((1, 2, 6)))
        kept = copy.deepcopy(scaled)
        rank, solve = exactlin.linear_solver(scaled, m.rows)
        ref_rank, ref_solve = _ref_linear_solver(m)
        assert rank == ref_rank, m.entries
        sides = [m.apply([entry() for _ in range(m.cols)]) for _ in range(2)]
        sides += [tuple(entry() for _ in range(m.rows)) for _ in range(2)]
        for b in sides:
            D, e, (col,) = _int_columns([b], rng.choice((1, 3)))
            rhs = (D, e, *col)
            got = solve(rhs)
            assert _same(got, ref_solve(b)), (m.entries, b)
            outside += got is None
        assert scaled == kept
        deficient += rank < m.cols
    assert deficient >= 5 and outside >= 10


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


def test_rref_against_sympy():
    sympy = pytest.importorskip("sympy")
    for m in _rref_cases(seed=41, count=40):
        reduced, pivots = rref(m.entries)
        if not m.rows or not m.cols:
            continue
        want, want_pivots = sympy.Matrix(
            [[sympy.Rational(x.numerator, x.denominator) for x in row]
             for row in m.entries]).rref()
        assert list(want_pivots) == pivots and len(reduced) == len(pivots)
        zero_rows = [[0] * m.cols] * (m.rows - len(pivots))
        assert [[sympy.Rational(x.numerator, x.denominator) for x in row]
                for row in reduced] + zero_rows == want.tolist()


# --- characteristic / minimal polynomials -------------------------------------

def _naive_char_poly(m: QMatrix) -> QPoly:
    """Independent oracle: cofactor expansion of det(tI - m) over QPoly."""
    n = m.rows
    entries = [[QPoly([-m.entries[i][j], 1]) if i == j else QPoly([-m.entries[i][j]])
                for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if len(cols) == 1:
            return entries[rows[0]][cols[0]]
        total = QPoly([])
        for k, c in enumerate(cols):
            minor = det(rows[1:], cols[:k] + cols[k + 1:])
            term = entries[rows[0]][c] * minor
            total = total + term if k % 2 == 0 else total - term
        return total

    return det(list(range(n)), list(range(n)))


# The package has no characteristic polynomial; these check the
# Faddeev-LeVerrier reference that the eigenvalue tests read, on the
# package's ad matrices too.

def test_char_poly_zero_matrix():
    assert reference_char_poly(QMatrix.zero(4, 4)) == QPoly([0, 0, 0, 0, 1])


def test_char_poly_vs_cofactor_oracle():
    rng = random.Random(7)
    for n in (2, 3, 4, 5):
        m = QMatrix([[F(rng.randint(-4, 4), rng.randint(1, 3))
                     for _ in range(n)] for _ in range(n)])
        assert reference_char_poly(m) == _naive_char_poly(m)


def test_char_poly_so4_boost(so4):
    # direct expansion oracle for ad(e1): t^2 (t^2+1)^2
    m = ad(so4, so4.basis_vector("e1"))
    expected = QPoly([0, 0, 1]) * QPoly([1, 0, 1]) * QPoly([1, 0, 1])
    assert reference_char_poly(m) == expected
    assert reference_char_poly(m) == _naive_char_poly(m)


def test_char_poly_wave_levi_boost(wave15):
    # any boost restricted to the Levi part of N(translations) has
    # char poly t^2 (t-1)^2 (t+1)^2
    from lieembed.liecore import Subspace
    S = Subspace(wave15, [wave15.basis_vector(n)
                          for n in ("e2", "e4", "e6", "e13", "e14", "e15")])
    expected = QPoly([0, 0, 1]) * QPoly([-1, 0, 1]) * QPoly([-1, 0, 1])
    for boost in ("e2", "e6"):
        ad_boost = ad(wave15, wave15.basis_vector(boost))
        m = QMatrix.from_columns([S.coords_of(ad_boost.apply(r)) for r in S.rows])
        assert reference_char_poly(m) == expected


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 8), st.integers(0, 10 ** 6))
def test_cayley_hamilton(n, seed):
    rng = random.Random(seed)
    m = QMatrix([[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)])
    assert reference_char_poly(m).eval_matrix(m).is_zero()


def test_min_poly_divides_char_poly():
    rng = random.Random(3)
    for n in (3, 4, 6):
        m = QMatrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        mp, cp = min_poly(scaled(m)), reference_char_poly(m)
        assert (cp % QPoly(mp)).is_zero()
        assert QPoly(mp).eval_matrix(m).is_zero()


def _reference_min_poly(m):
    """Krylov minimal polynomial over Fraction vectors, the lcm of the
    annihilators of the unit vectors (the algorithm min_poly used before
    its integer rewrite), kept as the reference."""
    n = m.rows
    result = QPoly([1])
    for start in range(n):
        if result.degree >= 1:
            e = unit_vector(n, start)
            acc = tuple([F(0)] * n)
            for c in reversed(result.coeffs):
                acc = tuple(x + c * ei for x, ei in zip(m.apply(acc), e))
            if all(not x for x in acc):
                continue
        a, b = result, _reference_annihilator(m, start)
        result = (a * b).exact_div(poly_gcd(a, b)).monic()
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
            return QPoly(combo).monic()
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
        b = QMatrix(s) @ b @ QMatrix(s_inv)
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
    return QMatrix(out)


def _jordan(lam, k):
    return [[lam if i == j else (1 if j == i + 1 else 0) for j in range(k)]
            for i in range(k)]


def _min_poly_cases(seed, count):
    """Random rational matrices (1-20 bit numerators, mixed denominators,
    some zero entries) and structured ones: zero, scalar, 1x1, nilpotent,
    derogatory (repeated Jordan blocks) and diagonalizable with repeats."""
    rng = random.Random(seed)
    cases = [QMatrix([[0] * n for _ in range(n)]) for n in (1, 2, 4)]
    cases += [QMatrix.identity(n).scale(F(-7, 3)) for n in (1, 3)]
    cases += [QMatrix([[F(rng.randint(-99, 99), rng.randint(1, 9))]]) for _ in range(3)]
    for _ in range(count):
        n = rng.randint(1, 7)
        bits = rng.randint(1, 20)
        density = rng.choice((0.3, 0.7, 1.0))
        cases.append(QMatrix([[_rand_rational(rng, bits) if rng.random() < density
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
        assert QPoly(min_poly(scaled(m))).monic() == _reference_min_poly(m), m.entries


def _check_integer_form(mp, monic):
    """mp is a tuple of ints with content 1 and a positive lead, and it is
    the monic polynomial ``monic`` times that lead."""
    assert type(mp) is tuple and all(type(c) is int for c in mp), mp
    assert gcd(*mp) == 1 and mp[-1] > 0, mp
    assert QPoly(mp) == monic * mp[-1], (mp, monic)


def test_min_poly_is_the_primitive_integer_polynomial():
    """On the drawn min_poly cases (zero, scalar, nilpotent, derogatory,
    random with 1-20 bit numerators and mixed denominators) and dense
    20-bit ones: min_poly returns the Fraction reference's primitive
    integer multiple with a positive lead, the one form Gauss's lemma
    allows."""
    rng = random.Random(33)
    dense = [QMatrix([[_rand_rational(rng, 20) for _ in range(n)] for _ in range(n)])
             for n in (2, 5, 8)]
    for m in _min_poly_cases(seed=20, count=40) + dense:
        _check_integer_form(min_poly(scaled(m)), _reference_min_poly(m))


def _ref_krylov_annihilator(rows, v):
    """Dense fraction-free elimination of the Krylov vectors of the integer
    vector v with a separate list of combination coefficients (the loop
    _krylov_annihilator ran before it went through _combine), kept as the
    reference."""
    echelon = []  # (pivot, row, combo)
    power = v
    while True:
        work, combo = power, [0] * len(echelon) + [1]
        for p, row, row_combo in echelon:
            f = work[p]
            if f:
                g = row[p]
                work = [g * x - f * y for x, y in zip(work, row)]
                combo = [g * x - f * y for x, y in
                         zip(combo, row_combo + [0] * (len(combo) - len(row_combo)))]
                content = gcd(*work, *combo)
                if content > 1:
                    work = [x // content for x in work]
                    combo = [x // content for x in combo]
        pivot = next((j for j, x in enumerate(work) if x), None)
        if pivot is None:
            return combo
        echelon.append((pivot, work, combo))
        power = exactlin._int_apply(rows, power)


def _int_rows(m):
    """The sparse integer rows of D*m that min_poly hands the annihilator."""
    scale = lcm(*(x.denominator for row in m.entries for x in row))
    return [[(j, x.numerator * (scale // x.denominator)) for j, x in enumerate(row) if x]
            for row in m.entries]


def test_krylov_annihilator_matches_dense_reference(monkeypatch):
    """The tagged _combine elimination gives the dense one's integer
    coefficients, sign and content included, from every unit vector of the
    min_poly cases (zero, scalar, nilpotent, derogatory, random up to 20
    bits) and of dense 20-bit matrices, and from every Horner vector that
    min_poly hands it; min_poly is unchanged when it runs on the
    reference."""
    rng = random.Random(22)
    dense = [QMatrix([[_rand_rational(rng, 20) for _ in range(n)] for _ in range(n)])
             for n in (2, 5, 8, 8)]
    cases = _min_poly_cases(seed=22, count=40) + dense
    for m in cases:
        rows = _int_rows(m)
        for start in range(m.rows):
            e = [int(i == start) for i in range(m.rows)]
            assert exactlin._krylov_annihilator(rows, e) == _ref_krylov_annihilator(rows, e)
    calls = []
    real = exactlin._krylov_annihilator
    monkeypatch.setattr(exactlin, "_krylov_annihilator",
                        lambda rows, v: calls.append((rows, v)) or real(rows, v))
    got = [min_poly(scaled(m)) for m in cases]
    assert len([v for _, v in calls if sum(map(abs, v)) != 1]) >= 20
    for rows, v in calls:
        assert real(rows, v) == _ref_krylov_annihilator(rows, v), (rows, v)
    monkeypatch.setattr(exactlin, "_krylov_annihilator", _ref_krylov_annihilator)
    assert got == [min_poly(scaled(m)) for m in cases]


def _dense_rebased_algebras():
    """wave15 and so(3,3) under seeded unimodular changes of basis, built
    as the benchmark's rebased workload builds its tables."""
    from lieembed import corpus
    from lieembed.liecore import LieAlgebra
    rebase = _perfbench_module("rebase")
    cases = {c["name"]: c for c in corpus.load_shipped_corpus()["cases"]}
    wave16 = rebase.table_from_json(cases["wave16-commutator-table"]["expect"])
    out = []
    for label, (names, table) in (("wave15", rebase.wave15_from_wave16(*wave16)),
                                  ("so33", rebase.so_pq(3, 3))):
        P = rebase.unimodular(len(names), random.Random(f"min-poly:{label}"))
        out.append(LieAlgebra.from_json(rebase.table_to_json(
            names, rebase.rebase(table, P, rebase.inverse(P)))))
    return out


def test_min_poly_matches_fraction_reference_on_dense_ad_blocks():
    """min_poly of integer ad blocks equals the Fraction Krylov lcm, on
    dense rebased wave15 and so(3,3): ad(x) on all of L (derogatory, as
    the kernel has dimension at least the rank) and on the Krylov space of
    ad(x) through a basis element (cyclic), for x a basis element or a
    combination with coefficients +-1, +-2."""
    from lieembed.liecore import Subspace
    rng = random.Random(17)
    cyclic = derogatory = 0
    for L in _dense_rebased_algebras():
        n = L.dim
        xs = [unit_vector(n, i) for i in range(0, n, 6)]
        xs += [tuple(F(rng.choice((-2, -1, 0, 0, 1, 2))) for _ in range(n))
               for _ in range(2)]
        for x in xs:
            y, krylov = unit_vector(n, rng.randrange(n)), []
            while Subspace(L, krylov + [y]).dim > len(krylov):
                krylov.append(y)
                y = L.bracket(x, y)
            for S in (Subspace.full(L), Subspace(L, krylov)):
                den, _, rows = block = S.ad_block(L._ad_ints(exactlin._scaled_vector(x)))
                m = QMatrix([[F(a.get(j, 0), den) for j in range(S.dim)] for a, _ in rows])
                mp = min_poly(block)
                _check_integer_form(mp, _reference_min_poly(m))
                cyclic += len(mp) - 1 == S.dim
                derogatory += len(mp) - 1 < S.dim
    assert cyclic >= 4 and derogatory >= 4


def _check_packed_horner(rows, f, starts):
    """Every slot of one packed Horner pass equals the per-start Horner of
    its start vector; a packed row is 0 exactly when its slots are."""
    packed, w = exactlin._int_horner(rows, f, starts)
    assert len(packed) == len(rows)
    columns = [horner_per_start(rows, f, s) for s in starts]
    for i, p in enumerate(packed):
        slots = exactlin._int_slots(p, w, len(starts))
        assert slots == [col[i] for col in columns], (rows, f, starts, i)
        assert (p == 0) == (not any(slots))
    return packed, w


def _poly_cases(rng, degree):
    """Integer polynomials up to ``degree`` with zero and negative
    coefficients, and the monomial t^degree."""
    out = [[0] * degree + [1], [rng.choice((-1, 1)) * rng.randint(1, 9)]]
    for _ in range(2):
        f = [rng.choice((0, 0, 1, -1, rng.randint(-2 ** 20, 2 ** 20)))
             for _ in range(rng.randint(1, degree + 1))]
        out.append(f[:-1] + [f[-1] or -3])
    return out


def test_packed_horner_matches_per_start_horner():
    """One packed pass gives, slot by slot, the per-start Horner of
    tests/polyref.py on the min_poly cases, dense 20-bit matrices and the
    ad blocks of dense rebased wave15 and so(3,3), for start ranges that
    begin at 0, 1, halfway and at the last index, a shuffled subset, and f
    with zero and negative coefficients."""
    from lieembed.liecore import Subspace
    rng = random.Random(26)
    dense = [QMatrix([[_rand_rational(rng, 20) for _ in range(n)] for _ in range(n)])
             for n in (3, 6, 9)]
    blocks = [_int_rows(m) for m in _min_poly_cases(seed=26, count=30) + dense]
    for L in _dense_rebased_algebras():
        for x in (unit_vector(L.dim, 0), unit_vector(L.dim, 7),
                  tuple(F(rng.choice((-2, -1, 0, 1, 2))) for _ in range(L.dim))):
            _, _, rows = Subspace.full(L).ad_block(L._ad_ints(exactlin._scaled_vector(x)))
            blocks.append([list(a.items()) for a, _ in rows])
    for rows in blocks:
        n = len(rows)
        for f in _poly_cases(rng, n + 1):
            for lo in sorted({0, 1, n // 2, n - 1} & set(range(n))):
                _check_packed_horner(rows, f, range(lo, n))
            _check_packed_horner(rows, f, rng.sample(range(n), n // 2))


@settings(deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2 ** 40, 2 ** 40) | st.just(0), min_size=n, max_size=n)
             | st.just([0] * n), min_size=n, max_size=n),
    st.lists(st.integers(-2 ** 40, 2 ** 40), min_size=1, max_size=n + 2),
    st.integers(0, max(n - 1, 0)))))
def test_packed_horner_property(case):
    """Sizes 0-12, entries up to +-2^40, zero rows, any integer f: every
    slot equals the per-start Horner."""
    dense, f, lo = case
    rows = [[(j, a) for j, a in enumerate(row) if a] for row in dense]
    _check_packed_horner(rows, f, range(lo, len(rows)))


def test_packed_horner_slot_width_is_tight():
    """Near the bound: f(A) e_s reaches sum |f_k| N^k, so its slot needs
    every one of the w bits; the same values packed and decoded in w - 1
    bits come out wrong."""
    big = [[(0, -2 ** 64)]]                          # (-2^64)^8 = 2^512
    swap = [[(1, 2 ** 63)], [(0, 2 ** 63)]]           # the swap, times 2^63
    cases = [(big, [0] * 8 + [1]), (big, [0] * 9 + [-1]),
             (swap, [0] * 8 + [1]), (swap, [0] * 10 + [1]), (swap, [0] * 9 + [1])]
    for rows, f in cases:
        packed, w = _check_packed_horner(rows, f, range(len(rows)))
        values = [horner_per_start(rows, f, s) for s in range(len(rows))]
        top = max(abs(v) for col in values for v in col)
        assert top == sum(abs(c) * (2 ** 64 if rows is big else 2 ** 63) ** k
                          for k, c in enumerate(f))
        assert w == top.bit_length() + 1
        tight = [[col[i] for col in values] for i in range(len(rows))]
        tight = [row for row in tight if max(row) == top]
        assert tight
        for row in tight:
            narrow = sum(v << (w - 1) * t for t, v in enumerate(row))
            assert exactlin._int_slots(narrow, w - 1, len(row)) != row


def _monic_min_poly(m: QMatrix) -> QPoly:
    """min_poly of m up to its lead: the monic polynomial."""
    return QPoly(min_poly(scaled(m))).monic()


def test_min_poly_known_values():
    t = QPoly([0, 1])
    assert _monic_min_poly(QMatrix([[0, 0], [0, 0]])) == t
    assert _monic_min_poly(QMatrix.identity(3).scale(F(5, 2))) == t - QPoly([F(5, 2)])
    assert _monic_min_poly(QMatrix([[F(-3, 4)]])) == t + QPoly([F(3, 4)])
    assert _monic_min_poly(_block_diag([_jordan(0, 3), _jordan(0, 1)])) == t * t * t
    assert _monic_min_poly(QMatrix([])) == QPoly([1])
    # the integer form itself: t - 5/2 and t + 3/4 cleared, lead positive
    assert min_poly(scaled(QMatrix.identity(3).scale(F(5, 2)))) == (-5, 2)
    assert min_poly(scaled(QMatrix([[F(-3, 4)]]))) == (3, 4)
    assert min_poly(scaled(QMatrix([[-1, 0], [0, 1]]))) == (-1, 0, 1)
    assert min_poly(scaled(QMatrix([]))) == (1,)


def test_min_poly_rejects_extension_scalars():
    root2 = make_scalar(0, 1, 2)
    with pytest.raises(ValueError, match="rational"):
        min_poly(scaled(QMatrix([[root2, 0], [0, 1]])))
    with pytest.raises(ValueError, match="square"):
        min_poly(scaled(QMatrix([[1, 2]])))


def test_min_poly_rejects_out_of_range_columns():
    """n rows may name only columns 0..n-1: a column past the last row or
    a negative one is refused, not read as another column or left to an
    IndexError; the given rows are left as they were."""
    for rows in ([({1: 2}, {})], [({-1: 1}, {}), ({0: 1}, {})],
                 [({0: 1}, {}), ({2: 1}, {})], [({0: 1}, {-1: 1})]):
        kept = [(dict(a), dict(b)) for a, b in rows]
        with pytest.raises(ValueError, match="square matrix required"):
            min_poly((1, 0, rows))
        assert rows == kept
    assert min_poly((2, 0, [({1: 1}, {}), ({0: 1}, {})])) == (-1, 0, 4)
    assert QPoly(min_poly((2, 0, [({1: 1}, {}), ({0: 1}, {})]))).monic() == QPoly(
        [F(-1, 4), 0, 1])


def test_min_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def evaluate(coeffs, mat):
        acc = sympy.zeros(mat.rows, mat.cols)
        for c in reversed(coeffs):
            acc = acc * mat + c * sympy.eye(mat.rows)
        return acc

    for m in _min_poly_cases(seed=21, count=12):
        mp = sympy.Poly([sympy.Integer(c) for c in reversed(min_poly(scaled(m)))], t)
        mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                             for x in row] for row in m.entries])
        assert evaluate(mp.all_coeffs()[::-1], mat).is_zero_matrix
        assert sympy.rem(mat.charpoly(t).as_expr(), mp.as_expr(), t) == 0
        for f, _ in sympy.factor_list(mp.as_expr(), t)[1]:
            smaller = sympy.Poly(sympy.quo(mp.as_expr(), f, t), t)
            assert not evaluate(smaller.all_coeffs()[::-1], mat).is_zero_matrix


# --- eigenvalues ----------------------------------------------------------------

def test_eigenvalues_nilpotent():
    m = QMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    assert factor_roots(reference_char_poly(m).coeffs) == [(F(0), 3)]


def test_eigenvalues_so13_boost(so13):
    ev = factor_roots(reference_char_poly(ad(so13, so13.basis_vector("e1"))).coeffs)
    assert ev == [(F(-1), 2), (F(0), 2), (F(1), 2)]


def test_eigenvalues_reconstruct_char_poly():
    rng = random.Random(11)
    for _ in range(6):
        n = rng.choice((2, 3, 4))
        m = QMatrix([[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)])
        try:
            ev = factor_roots(reference_char_poly(m).coeffs)
        except ExtensionDegreeTooHigh:
            continue
        prod = QPoly([1])
        for lam, mult in ev:
            for _ in range(mult):
                prod = prod * QPoly([-lam, 1])
        # rational coefficients throughout: compare against char poly
        assert prod == _naive_char_poly(m)
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
        cases.append(QMatrix([[_rand_rational(rng, bits) if rng.random() < density
                              else F(0) for _ in range(n)] for _ in range(n)]))
    return cases


def _squarefree_key(sympy, m: int) -> tuple[int, int]:
    """(s, k) with m = s * k^2, s squarefree, from sympy's factorint."""
    s, k = -1 if m < 0 else 1, 1
    for prime, e in sympy.factorint(abs(m)).items():
        s *= prime ** (e % 2)
        k *= prime ** (e // 2)
    return s, k


def _root_key(sympy, a, b, m: int) -> tuple[F, F, int]:
    """The number a + b*sqrt(m) as (a, b', s) with s squarefree and
    b' = b*k for m = s*k^2, and (a, 0, 0) when it is rational: one key per
    number, whatever form its radical was written in."""
    if not b:
        return F(a), F(0), 0
    s, k = _squarefree_key(sympy, m)
    return F(a), F(b) * k, s


def _sympy_root_key(sympy, r):
    """The key of a sympy number rational + rational * (principal square
    root of an integer)."""
    a, b, m = F(0), F(0), 0
    for term in sympy.Add.make_args(sympy.expand(r)):
        c, rest = term.as_coeff_Mul()
        c = F(int(c.p), int(c.q))
        if rest == 1:
            a += c
            continue
        square = rest ** 2
        assert square.is_Integer and (rest.is_positive or (rest / sympy.I).is_positive), r
        assert b == 0, r
        b, m = c, int(square)
    return _root_key(sympy, a, b, m)


def test_char_poly_against_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for m in _eigen_cases(seed=31, bits=20, count=24):
        mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in m.entries])
        want = mat.charpoly(t).all_coeffs()[::-1]
        got = reference_char_poly(m).coeffs
        assert [sympy.Rational(c.numerator, c.denominator) for c in got] == want


def _sympy_fits(sympy, t, expr, single_extension=True):
    """sympy's verdict: every irreducible factor of expr has degree <= 2
    (and, with ``single_extension``, the quadratic ones share one field)."""
    factors = [sympy.Poly(f, t) for f, _ in sympy.factor_list(expr, t)[1]]
    discs = [sympy.Rational(f.discriminant()) for f in factors if f.degree() == 2]
    fields = {squarefree_split(r.p * r.q)[0] for r in discs}
    return (all(f.degree() <= 2 for f in factors)
            and (len(fields) <= 1 or not single_extension))


def _sympy_roots(sympy, t, expr):
    """sympy's roots of expr as {key: multiplicity}, compared as numbers."""
    got = {}
    for r, mult in sympy.roots(expr, t).items():
        key = _sympy_root_key(sympy, r)
        got[key] = got.get(key, 0) + mult
    return got


def _roots_as_sympy(sympy, roots):
    """Our (root, multiplicity) list in the keys of :func:`_sympy_roots`."""
    got = {}
    for lam, mult in roots:
        key = _root_key(sympy, *exactlin.scalar_parts(lam))
        got[key] = got.get(key, 0) + mult
    return got


def _sympy_expr(sympy, t, p):
    return sum(sympy.Rational(c.numerator, c.denominator) * t ** i
               for i, c in enumerate(p.coeffs))


def test_eigenvalues_against_sympy():
    """Eigenvalue multisets equal sympy's roots of the characteristic
    polynomial when these lie in Q or one Q(sqrt d); ExtensionDegreeTooHigh
    exactly when they do not.  The random entries have 20-bit numerators."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    in_tower = 0
    for m in _eigen_cases(seed=32, bits=20, count=40):
        mat = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row]
                            for row in m.entries])
        cp = mat.charpoly(t).as_expr()
        if not _sympy_fits(sympy, t, cp):
            with pytest.raises(ExtensionDegreeTooHigh):
                factor_roots(reference_char_poly(m).coeffs)
            continue
        in_tower += 1
        roots = factor_roots(reference_char_poly(m).coeffs)
        assert _roots_as_sympy(sympy, roots) == _sympy_roots(sympy, t, cp), m.entries
    assert in_tower >= 20


def _squarefree_number(rng, bits):
    while True:
        d, _ = squarefree_split(rng.choice((-1, 1)) * rng.randint(2, 2 ** bits))
        if d != 1:
            return d


def _field_product(rng, bits, cubic):
    """A seeded product of rational linear factors and quadratic ones
    whose roots lie in one Q(sqrt d), all with ``bits``-bit coefficients,
    some of them repeated; times the irreducible cubic (w*t - s)^3 - c
    (c not a cube) when ``cubic``."""
    d = _squarefree_number(rng, rng.choice((2, 8, bits)))
    num = lambda: rng.randint(-2 ** bits, 2 ** bits)  # noqa: E731
    pos = lambda: rng.randint(1, 2 ** bits)  # noqa: E731
    p = QPoly([1])
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.5:
            f = QPoly([num(), pos()])
        else:
            # (w*t - u)^2 - d*v^2: roots (u +- v*sqrt(d)) / w
            u, v, w = num(), pos(), pos()
            f = QPoly([u * u - d * v * v, -2 * u * w, w * w])
        for _ in range(rng.choice((1, 1, 1, 2))):
            p = p * f
    if rng.random() < 0.2:
        p = p * QPoly([0, 1])
    if cubic:
        s, w = num(), pos()
        c = next(c for c in iter(lambda: rng.randint(2, 2 ** bits), None)
                 if round(c ** (1 / 3)) ** 3 != c)
        p = p * QPoly([-s ** 3 - c, 3 * s * s * w, -3 * s * w * w, w ** 3])
    return p


@given(st.randoms(use_true_random=False), st.booleans())
@settings(deadline=None)
def test_factor_roots_against_sympy_factor_list(rng, cubic):
    """Products of linear and quadratic factors over one field with 20-bit
    coefficients give sympy's roots; an irreducible cubic factor raises."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    p = _field_product(rng, 20, cubic)
    expr = _sympy_expr(sympy, t, p)
    assert _sympy_fits(sympy, t, expr) != cubic
    if cubic:
        with pytest.raises(ExtensionDegreeTooHigh):
            factor_roots(p.coeffs)
        return
    assert _roots_as_sympy(sympy, factor_roots(p.coeffs)) == _sympy_roots(sympy, t, expr)


def test_factor_roots_against_sympy_with_a_radicand_sympy_leaves_unsplit():
    """t^3 + 7867838603152383 t, 7867838603152383 = 3 * 122887^2 * 173669:
    sympy writes the roots +-sqrt(7867838603152383)*I and factor_roots
    +-122887*sqrt(521007)*I, the same numbers."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    n = 7867838603152383
    assert n == 3 * 122887 ** 2 * 173669
    p = QPoly([0, n, 0, 1])
    want = _sympy_roots(sympy, t, _sympy_expr(sympy, t, p))
    assert _roots_as_sympy(sympy, factor_roots(p.coeffs)) == want
    assert _roots_as_sympy(sympy, factor_roots([0, n, 0, 1])) == {
        (F(0), F(0), 0): 1, (F(0), F(122887), -521007): 1, (F(0), F(-122887), -521007): 1}


def test_eigenvalues_quartic_resolvent():
    # t^4 + 4 = (t^2+2t+2)(t^2-2t+2): roots (+-1 +- i)
    roots = factor_roots([4, 0, 0, 0, 1])
    values = {(r.a, r.b) for r, _ in roots}
    assert values == {(F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))}


def test_eigenvalues_two_extensions_rejected():
    # (t^2+1)(t^2+2) needs both sqrt(-1) and sqrt(-2)
    p = QPoly([1, 0, 1]) * QPoly([2, 0, 1])
    with pytest.raises(ExtensionDegreeTooHigh, match="two distinct quadratic"):
        factor_roots(p.coeffs)
    # but the roots every spectrum reads hold them side by side
    roots = exactlin._part_roots(*exactlin._squarefree_parts(p.primitive()))
    assert roots == _ref_factor_roots(p, single_extension=False)
    assert {exactlin.scalar_d(r) for r, _ in roots} == {-1, -2}


def test_eigenvalues_cubic_rejected():
    with pytest.raises(ExtensionDegreeTooHigh,
                       match="a factor of degree 3 with no factor of degree <= 2"):
        factor_roots([-2, 0, 0, 1])  # t^3 - 2


def test_factor_roots_rational_roots():
    """Rational roots with a non-monic integer form, including roots whose
    numerator and denominator have 60 bits, which a search over divisors
    of the constant term could not reach."""
    p = QPoly([F(-1, 2), F(1, 2)]) * QPoly([-2, 1]) * QPoly([3, 1])
    assert factor_roots(p.coeffs) == [(F(-3), 1), (F(1), 1), (F(2), 1)]
    big = [F(2 ** 61 - 1, 2 ** 59 + 5), F(-(2 ** 60 + 33), 3 ** 37), F(7, 9)]
    p = QPoly([1])
    for r, k in zip(big, (1, 2, 1)):
        for _ in range(k):
            p = p * QPoly([-r, 1])
    p = p * QPoly([0, 0, 1]) * QPoly([F(-1, 3), 1])
    assert factor_roots(p.coeffs) == sorted([(big[0], 1), (big[1], 2), (big[2], 1),
                                      (F(0), 2), (F(1, 3), 1)])


def test_factor_roots_reads_ints_fractions_and_strings():
    """Coefficients may be ints, Fractions or p/q strings, lowest degree
    first; trailing zeros are dropped, so t^2 - 1/4 reads the same with
    them."""
    want = [(F(-1, 2), 1), (F(1, 2), 1)]
    assert factor_roots(["-1/4", "0", "1"]) == want
    assert factor_roots([F(-1, 4), 0, 1, 0, F(0)]) == want
    assert factor_roots((-1, 0, 4, 0)) == want
    assert factor_roots([7]) == []


@pytest.mark.parametrize("coeffs", [[1.5, 1], [make_scalar(0, 1, 2), 1], [1, True],
                                    [1, None]])
def test_factor_roots_rejects_a_non_rational_coefficient(coeffs):
    """A float, a surd, a bool or None is no rational coefficient: rat's
    TypeError, not an AttributeError from the integer clearing."""
    with pytest.raises(TypeError, match="not a rational"):
        factor_roots(coeffs)


@pytest.mark.parametrize("coeffs", [[], [0], [0, F(0), "0"]])
def test_factor_roots_rejects_the_zero_polynomial(coeffs):
    with pytest.raises(ValueError, match="zero polynomial"):
        factor_roots(coeffs)


def test_factor_roots_splits_every_degree_two_product():
    """Every polynomial whose irreducible factors have degree <= 2 splits,
    whatever its degree: (t^2-2)(t^2-2t-1)(t^2-4t+2) has six roots in
    Q(sqrt 2), and the messages for what does not split state true facts."""
    p = QPoly([-2, 0, 1]) * QPoly([-1, -2, 1]) * QPoly([2, -4, 1])
    roots = factor_roots(p.coeffs)
    assert [(r.a, r.b, r.d, k) for r, k in roots] == [
        (F(a), F(b), 2, 1) for a in (0, 1, 2) for b in (-1, 1)]
    # a degree-6 cofactor: (t^3 - 2)(t^3 - 3) has no factor of degree <= 2
    with pytest.raises(ExtensionDegreeTooHigh, match="degree 6 with no factor"):
        factor_roots((QPoly([-2, 0, 0, 1]) * QPoly([-3, 0, 0, 1]) * QPoly([-5, 1])).coeffs)


def test_squarefree_split_large():
    """Trial division stops at the cube root of what is left, at
    _TRIAL_BOUND, or once what is left is a square; at the cube root the
    leftover is a prime or a product of two primes."""
    big, other, mersenne = 10 ** 16 + 61, 1_000_000_007, 2 ** 61 - 1
    start = time.perf_counter()
    assert squarefree_split(-4 * big) == (-big, 2)
    assert squarefree_split(12 * other * other) == (3, 2 * other)
    assert squarefree_split(5 * 7 ** 3 * other * 998244353) == (35 * other * 998244353, 7)
    assert squarefree_split(-3 * (2 * mersenne * other) ** 2) == (-3, 2 * mersenne * other)
    assert time.perf_counter() - start < 1
    for n in range(-300, 301):
        d, k = squarefree_split(n)
        assert d * k * k == n
        assert n == 0 or all(d % (q * q) for q in range(2, 18))


def test_squarefree_split_stops_at_the_trial_bound():
    """A product of two 100-bit primes is kept whole, within 0.1 s, where
    trial division to its cube root would take about 2^66 steps.  Past the
    bound d can keep the square of a large prime: Q(sqrt d) is right, d
    is not its canonical name."""
    p, q = 633825300114115826648258445337, 1267650600227076479992096358423
    start = time.perf_counter()
    assert squarefree_split(p * q) == (p * q, 1)
    assert time.perf_counter() - start < 0.1
    assert squarefree_split(-12 * p * q) == (-3 * p * q, 2)
    big = 100003  # the first prime past the bound
    assert exactlin._TRIAL_BOUND < big
    assert squarefree_split(7 * (big * p) ** 2) == (7, big * p)
    assert squarefree_split(big * big * 200003) == (big * big * 200003, 1)
    assert squarefree_split(99991 * 99991 * 200003) == (200003, 99991)  # a prime below it


# --- the divisor-search root finder, kept as a reference --------------------------

def _ref_rational_roots(p):
    """Rational roots of p by trial over the divisors of the scaled constant
    and leading terms (cost grows with their square roots)."""
    coeffs = p.primitive()
    roots = [F(0)] if not coeffs[0] else []
    coeffs = coeffs[next(i for i, c in enumerate(coeffs) if c):]

    def divisors(n):
        small = [i for i in range(1, isqrt(abs(n)) + 1) if n % i == 0]
        return sorted({*small, *(abs(n) // i for i in small)})

    def value(x):
        acc = F(0)
        for c in reversed(p.coeffs):
            acc = acc * x + c
        return acc

    if len(coeffs) > 1:
        for num in divisors(coeffs[0]):
            for den in divisors(coeffs[-1]):
                for cand in (F(num, den), F(-num, den)):
                    if cand not in roots and value(cand) == 0:
                        roots.append(cand)
    return roots


def _ref_sqrt(x):
    if x >= 0 and isqrt(x.numerator) ** 2 == x.numerator \
            and isqrt(x.denominator) ** 2 == x.denominator:
        return F(isqrt(x.numerator), isqrt(x.denominator))
    return None


def _ref_quadratic_roots(p_coef, q_coef):
    disc = p_coef * p_coef - 4 * q_coef
    r = _ref_sqrt(disc)
    if r is not None:
        return (-p_coef + r) / 2, (-p_coef - r) / 2
    d, k = squarefree_split(disc.numerator * disc.denominator)
    half = F(k, 2 * disc.denominator)
    return make_scalar(-p_coef / 2, half, d), make_scalar(-p_coef / 2, -half, d)


def _ref_split_quartic(p):
    """(t^2 + p1 t + q1)(t^2 + p2 t + q2) from a rational root of the
    resolvent cubic, or None."""
    e, c, b, a, _ = (list(p.coeffs) + [F(0)] * 5)[:5]
    resolvent = QPoly([-(a * a * e - 4 * b * e + c * c), a * c - 4 * e, -b, 1])
    for y0 in _ref_rational_roots(resolvent):
        r = _ref_sqrt(a * a - 4 * b + 4 * y0)
        if r is None:
            continue
        p1, p2 = (a + r) / 2, (a - r) / 2
        if p1 != p2:
            q2 = (c - p2 * y0) / (p1 - p2)
            q1 = y0 - q2
        else:
            dq = _ref_sqrt(y0 * y0 - 4 * e)
            if dq is None:
                continue
            q1, q2 = (y0 + dq) / 2, (y0 - dq) / 2
        if QPoly([q1, p1, 1]) * QPoly([q2, p2, 1]) == p:
            return (p1, q1), (p2, q2)
    return None


def _ref_factor_squarefree(p):
    roots = []
    p = p.monic()
    for r in _ref_rational_roots(p):
        roots.append(r)
        p = p.exact_div(QPoly([-r, 1]))
    while p.degree > 0:
        if p.degree == 2:
            return roots + list(_ref_quadratic_roots(p.coeffs[1], p.coeffs[0]))
        if p.degree == 4:
            split = _ref_split_quartic(p)
            if split is None:
                raise ExtensionDegreeTooHigh("quartic does not split")
            return roots + [r for pq in split for r in _ref_quadratic_roots(*pq)]
        if p.degree % 2 or any(p.coeffs[1::2]):
            raise ExtensionDegreeTooHigh(f"factor of degree {p.degree}")
        # even polynomial h(t^2): peel the rational roots of h
        h = QPoly(p.coeffs[0::2])
        hr = _ref_rational_roots(h)
        if not hr:
            raise ExtensionDegreeTooHigh(f"factor of degree {p.degree}")
        for s in hr:
            h = h.exact_div(QPoly([-s, 1]))
            roots.extend(_ref_quadratic_roots(F(0), -s))
        if h.degree <= 0:
            return roots
        p = QPoly([c for cc in h.coeffs for c in (cc, F(0))][:-1])
        if p.degree not in (2, 4):
            raise ExtensionDegreeTooHigh(f"factor of degree {p.degree}")
    return roots


def _ref_factor_roots(p, single_extension=True):
    """factor_roots before modular factorization: rational roots by divisor
    search, then quadratics, quartics by their resolvent cubic and even
    polynomials h(t^2) by the rational roots of h; anything else raises."""
    out = [(root, mult) for f, mult in squarefree_decomposition(p)
           for root in _ref_factor_squarefree(f)]
    ds = {exactlin.scalar_d(r) for r, _ in out} - {0}
    if single_extension and len(ds) > 1:
        raise ExtensionDegreeTooHigh(f"two quadratic extensions: {sorted(ds)}")
    return sorted(out, key=lambda rm: (*exactlin.scalar_sort_key(rm[0]),
                                       exactlin.scalar_d(rm[0])))


def _perfbench_module(name):
    """A module of the benchmark harness in perfbench/, for its inputs."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.pop(0)


@functools.cache
def _workload_calls():
    """Every polynomial whose roots were factored (rebuilt from the
    squarefree parts that :func:`exactlin._part_roots` factors, for
    factor_roots and every Spectrum alike), and the result of every
    min_poly call, of one verify pass and of rebased passes with seeds
    101-103 (the benchmark's requests, run in this process on fresh
    algebras)."""
    import lieembed
    from lieembed import corpus, liecore, rootsys, vecfield
    child, workloads = _perfbench_module("child"), _perfbench_module("workloads")
    polys, min_polys = [], []
    real_min_poly, real_parts = exactlin.min_poly, exactlin._part_roots

    def record_parts(zeros, prime, parts):
        p = QPoly([0] * zeros + [1])
        for g, mult in parts:
            for _ in range(mult):
                p = p * QPoly(g)
        polys.append(p)
        return real_parts(zeros, prime, parts)

    def record_min_poly(m):
        min_polys.append(real_min_poly(m))
        return min_polys[-1]

    golden = corpus.load_shipped_corpus()
    with pytest.MonkeyPatch.context() as mp:
        for module in (exactlin, liecore):
            mp.setattr(module, "_part_roots", record_parts)
        for module in (liecore, rootsys):
            mp.setattr(module, "min_poly", record_min_poly)
        vecfield.algebra_by_name.cache_clear()
        for case in golden["cases"]:
            corpus.run_case(case)
        vecfield.algebra_by_name.cache_clear()
        for seed in (101, 102, 103):
            for alg in workloads.rebased_plan(golden, seed)["algebras"]:
                L = lieembed.LieAlgebra.from_json(alg["table"], name=alg["name"])
                for req in alg["requests"]:
                    child._request(lieembed, L, req)
    return polys, min_polys


def _assert_roots_match_oracles(p, roots):
    """``roots()``, the roots of p in as many quadratic fields as they
    need, are the divisor search's; where that gives up, sympy's
    factor_list decides between its roots and ExtensionDegreeTooHigh.
    Returns the divisor search's roots, or None."""
    try:
        want = _ref_factor_roots(p, single_extension=False)
    except ExtensionDegreeTooHigh:
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")
        expr = _sympy_expr(sympy, t, p)
        if _sympy_fits(sympy, t, expr, single_extension=False):
            assert _roots_as_sympy(sympy, roots()) == _sympy_roots(sympy, t, expr), p
        else:
            with pytest.raises(ExtensionDegreeTooHigh):
                roots()
        return None
    assert roots() == want, p
    return want


def test_factor_roots_matches_divisor_search_on_the_workloads():
    """On every polynomial of the benchmark's verify pass and rebased
    seeds 101-103: _part_roots gives the divisor search's roots (or
    sympy's verdict where that raises), and factor_roots gives the same
    roots when they lie in one field and raises when they span two."""
    polys = _workload_calls()[0]
    assert len(polys) >= 100
    for p in polys:
        _assert_roots_match_oracles(
            p, lambda: exactlin._part_roots(*exactlin._squarefree_parts(p.primitive())))
        try:
            roots = exactlin._part_roots(*exactlin._squarefree_parts(p.primitive()))
        except ExtensionDegreeTooHigh:
            roots = None
        if roots is None or len({exactlin.scalar_d(r) for r, _ in roots} - {0}) > 1:
            with pytest.raises(ExtensionDegreeTooHigh):
                factor_roots(p.coeffs)
        else:
            assert factor_roots(p.coeffs) == roots, p


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
    assert symmetric_signature(scaled(QMatrix([[0, 1], [1, 0]]))) == (1, 1, 0, F(-1))
    assert symmetric_signature(scaled(QMatrix.zero(3, 3))) == (0, 0, 3, F(0))
    assert symmetric_signature(scaled(QMatrix([[2, 0], [0, -3]]))) == (1, 1, 0, F(-6))
    assert symmetric_signature(scaled(QMatrix([]))) == (0, 0, 0, F(1))
    with pytest.raises(ValueError, match="symmetric matrix required"):
        symmetric_signature(scaled(QMatrix([[1, 2], [3, 4]])))
    # scaled rows (D, d, rows): the zero diagonal takes the congruence step
    # first, and the given rows are left as they were
    rows = [({1: 3}, {}), ({0: 3, 2: 1}, {}), ({1: 1}, {})]
    assert symmetric_signature((2, 0, rows)) == symmetric_signature(scaled(
        QMatrix([[0, F(3, 2), 0], [F(3, 2), 0, F(1, 2)], [0, F(1, 2), 0]])))
    assert rows == [({1: 3}, {}), ({0: 3, 2: 1}, {}), ({1: 1}, {})]
    for bad in ([({1: 1}, {}), ({}, {})], [({0: 1, 1: 1}, {})]):
        with pytest.raises(ValueError, match="symmetric matrix required"):
            symmetric_signature((1, 0, bad))


@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=40, deadline=None)
def test_signature_counts_sum(rows):
    sym = [[F(rows[i][j] + rows[j][i]) for j in range(3)] for i in range(3)]
    pos, neg, zero, _ = symmetric_signature(scaled(QMatrix(sym)))
    assert pos + neg + zero == 3
    assert pos + neg == len(rref(sym)[1])


def test_determinant():
    assert _ref_determinant(QMatrix([[1, 2], [3, 4]])) == F(-2)
    for m, det in ((QMatrix([[1, 2], [2, 1]]), F(-3)), (QMatrix.identity(5), F(1)),
                   (QMatrix.zero(2, 2), F(0))):
        assert symmetric_signature(scaled(m))[3] == det == _ref_determinant(m)


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
        return QMatrix(a)
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
    return QMatrix(a)


@given(_symmetric_matrices())
@settings(deadline=None)
def test_symmetric_signature_against_the_fraction_loops(m):
    sympy = pytest.importorskip("sympy")
    pos, neg, zero, det = symmetric_signature(scaled(m))
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
            m = QMatrix(a)
            pos, neg, zero, det = symmetric_signature(scaled(m))
            with mpmath.workdps(60):
                values = mpmath.eigsy(mpmath.matrix(
                    [[real(x) for x in row] for row in a]), eigvals_only=True)
                big = [v for v in values if abs(v) > mpmath.mpf(10) ** -40]
            rank = len(rref(m.entries)[1])
            assert zero == n - rank == n - len(big)
            assert (pos, neg) == (sum(v > 0 for v in big), sum(v < 0 for v in big))
            assert det == _ref_determinant(m)


def test_symmetric_signature_over_an_imaginary_field_raises():
    i = make_scalar(0, 1, -1)
    with pytest.raises(ValueError, match="imaginary field Q\\(sqrt\\(-1\\)\\) "
                       "has no signature"):
        symmetric_signature(scaled(QMatrix([[i, 1], [1, 0]])))
