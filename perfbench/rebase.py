"""Inputs of the ``rebased`` workload: shipped algebras under a seeded
unimodular change of basis, with basis-invariant expected answers.

Everything here is plain ``fractions`` arithmetic on tables read from the
golden corpus or built from the so(p,q) definition.  Nothing is computed by
lieembed, so the expected answers stay a reference independent of the
program under test.

A table maps ``(i, j)`` with ``i < j`` to ``{k: Fraction}`` for
``[b_i, b_j] = sum_k c_k b_k``, as in lieembed's JSON table format.
"""

from __future__ import annotations

import random
from fractions import Fraction

ZERO = Fraction(0)


def fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def table_from_json(obj) -> tuple[list[str], dict]:
    table = {}
    for entry in obj["brackets"]:
        comp = {int(k): Fraction(c) for k, c in entry["c"].items()}
        table[(entry["i"], entry["j"])] = {k: c for k, c in comp.items() if c}
    return list(obj["basis"]), table


def table_to_json(names: list[str], table: dict) -> dict:
    out = []
    for (i, j), comp in sorted(table.items()):
        if comp:
            out.append({"i": i, "j": j,
                        "c": {str(k): fmt(c) for k, c in sorted(comp.items())}})
    return {"dim": len(names), "basis": list(names), "brackets": out}


def bracket(table: dict, n: int, x, y) -> list:
    out = [ZERO] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj or i == j:
                continue
            sign, key = (1, (i, j)) if i < j else (-1, (j, i))
            for k, c in table.get(key, {}).items():
                out[k] += sign * xi * yj * c
    return out


def unit(n: int, i: int) -> list:
    return [Fraction(int(k == i)) for k in range(n)]


def table_of(table: dict, n: int, vectors, coords) -> dict:
    """Structure constants of the span of ``vectors``; ``coords`` maps an
    old-basis vector to its coordinates in ``vectors``."""
    out = {}
    m = len(vectors)
    for a in range(m):
        for b in range(a + 1, m):
            comp = {k: c for k, c in enumerate(coords(bracket(table, n, vectors[a], vectors[b])))
                    if c}
            if comp:
                out[(a, b)] = comp
    return out


# ----------------------------------------------------------------------------
# base algebras


def wave15_from_wave16(names16: list[str], t16: dict) -> tuple[list[str], dict]:
    """Span of e1..e6, e7 - e16, e8..e15 inside the wave16 table."""
    n = len(names16)
    idx = {name: i for i, name in enumerate(names16)}
    e7, e16 = idx["e7"], idx["e16"]
    vectors = [unit(n, idx[f"e{k}"]) for k in range(1, 7)]
    vectors.append([a - b for a, b in zip(unit(n, e7), unit(n, e16))])
    vectors += [unit(n, idx[f"e{k}"]) for k in range(8, 16)]

    def coords(x):
        if x[e16] != -x[e7]:
            raise ValueError("bracket leaves the wave15 span")
        return ([x[idx[f"e{k}"]] for k in range(1, 7)] + [x[e7]]
                + [x[idx[f"e{k}"]] for k in range(8, 16)])

    names = [f"e{k}" for k in range(1, 7)] + ["e7m16"] + [f"e{k}" for k in range(8, 16)]
    return names, table_of(t16, n, vectors, coords)


def so_pq(p: int, q: int) -> tuple[list[str], dict]:
    """so(p, q) in the basis E_ij - E_ji (metric signs equal) and
    E_ij + E_ji (signs opposite), pairs i < j in lexicographic order,
    from the matrix commutator."""
    n = p + q
    metric = [1] * p + [-1] * q
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def gen(i, j):
        m = [[0] * n for _ in range(n)]
        m[i][j] = 1
        m[j][i] = -1 if metric[i] * metric[j] == 1 else 1
        return m

    def mul(a, b):
        return [[sum(a[r][t] * b[t][c] for t in range(n)) for c in range(n)]
                for r in range(n)]

    gens = [gen(i, j) for i, j in pairs]
    table = {}
    for a in range(len(gens)):
        for b in range(a + 1, len(gens)):
            ab, ba = mul(gens[a], gens[b]), mul(gens[b], gens[a])
            comp = {k: Fraction(ab[i][j] - ba[i][j]) for k, (i, j) in enumerate(pairs)
                    if ab[i][j] != ba[i][j]}
            if comp:
                table[(a, b)] = comp
    return [f"e{k + 1}" for k in range(len(pairs))], table


# ----------------------------------------------------------------------------
# change of basis


def unimodular(n: int, rng: random.Random) -> list[list[int]]:
    """Unit-lower times unit-upper triangular, off-diagonal entries in
    {-1, 0, 1}; determinant 1, so the inverse is integral too."""
    lo = [[1 if i == j else (rng.choice((-1, 0, 1)) if i > j else 0)
           for j in range(n)] for i in range(n)]
    up = [[1 if i == j else (rng.choice((-1, 0, 1)) if i < j else 0)
           for j in range(n)] for i in range(n)]
    return [[sum(lo[i][t] * up[t][j] for t in range(n)) for j in range(n)]
            for i in range(n)]


def inverse(m: list[list[int]]) -> list[list[Fraction]]:
    n = len(m)
    work = [[Fraction(x) for x in row] + unit(n, i) for i, row in enumerate(m)]
    for col in range(n):
        piv = next(r for r in range(col, n) if work[r][col])
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def row_times(v, m) -> list:
    """Row vector v times matrix m."""
    return [sum((v[k] * m[k][c] for k in range(len(v)) if v[k]), ZERO)
            for c in range(len(m[0]))]


def rebase(table: dict, P: list[list[int]], Pinv: list[list[Fraction]]) -> dict:
    """Table in the basis f_a = sum_k P[a][k] e_k."""
    n = len(P)
    rows = [[Fraction(x) for x in row] for row in P]
    return table_of(table, n, rows, lambda w: row_times(w, Pinv))

