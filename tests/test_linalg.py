"""The integer column echelon form and the transform it carries.

`integer_column_basis(M)` returns (C, R) with M == C * R.  The reference
below is the earlier two-pass route: the same elimination without a
transform, then forward substitution against C for R.
"""

import random
from fractions import Fraction
from math import lcm

from motivec.linalg import integer_column_basis


def mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def ref_column_basis(matrix):
    """The echelon basis C alone, as the elimination gave it before it
    carried its transform."""
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    cols = []
    for j in range(ncols):
        col = [int(matrix[i][j]) for i in range(nrows)]
        if any(col):
            cols.append(col)
    basis = []
    for r in range(nrows):
        live = [c for c in cols if c[r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            head = live[0]
            for c in live[1:]:
                q = c[r] // head[r]
                if q:
                    for i in range(nrows):
                        c[i] -= q * head[i]
            live = [c for c in live if c[r] != 0]
        head = live[0]
        if head[r] < 0:
            for i in range(nrows):
                head[i] = -head[i]
        basis.append(head)
        cols = [c for c in cols if c is not head and any(c)]
    return [[basis[t][i] for t in range(len(basis))] for i in range(nrows)]


def ref_solve_columns(c, s):
    """Solve C * X = S exactly for C in column echelon form, reading row t of
    X from the leading row of column t.  ValueError when C * X != S."""
    nrows, k = len(c), len(s[0]) if s else 0
    x = []
    for t in range(len(c[0]) if nrows else 0):
        lead = next((i for i in range(nrows) if c[i][t]), None)
        if lead is None:
            raise ValueError(f"column {t} of the matrix is zero")
        row, pivot = c[lead], c[lead][t]
        x.append([_divide(s[lead][j] - sum(row[u] * x[u][j] for u in range(t)), pivot)
                  for j in range(k)])
    columns = list(zip(*x)) if x else [()] * k
    for crow, srow in zip(c, s):
        if any(sum(a * b for a, b in zip(crow, col)) != v for col, v in zip(columns, srow)):
            raise ValueError("no solution: C * X differs from S")
    return x


def _divide(value, pivot):
    """value / pivot, an int when the division is exact."""
    q, rem = divmod(value, pivot)
    return Fraction(value) / pivot if rem else q


def assert_factors(matrix):
    """C is an echelon basis, R is integral, and C * R == matrix."""
    c, r = integer_column_basis(matrix)
    rank, ncols = len(r), len(matrix[0]) if matrix else 0
    assert len(c) == len(matrix) and all(len(row) == rank for row in c)
    assert all(type(x) is int for row in c + r for x in row)
    leads = [next(i for i in range(len(c)) if c[i][t]) for t in range(rank)]
    assert leads == sorted(set(leads))  # distinct and descending the rows
    for t, lead in enumerate(leads):
        assert c[lead][t] > 0 and all(c[lead][u] == 0 for u in range(t + 1, rank))
    if rank:
        assert all(len(row) == ncols for row in r)
        assert mul(c, r) == matrix
    else:
        assert all(x == 0 for row in matrix for x in row)
    return c, r


def random_matrix(rng, most=5):
    rows, cols = rng.randint(1, most), rng.randint(1, most)
    return [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]


def test_integer_basis_spans_column_lattice():
    rng = random.Random(2)
    for _ in range(200):
        assert_factors(random_matrix(rng))


def test_zero_empty_and_one_by_one_matrices_factor():
    assert integer_column_basis([]) == ([], [])
    assert integer_column_basis([[0, 0], [0, 0]]) == ([[], []], [])
    assert integer_column_basis([[-3]]) == ([[3]], [[-1]])
    assert integer_column_basis([[0]]) == ([[]], [])
    assert assert_factors([[4, 6]]) == ([[2]], [[2, 3]])
    assert assert_factors([[2], [-4]]) == ([[2], [-4]], [[1]])


def test_basis_and_transform_match_the_two_pass_reference():
    rng = random.Random(3)
    for _ in range(300):
        m = random_matrix(rng, most=7)
        c, r = integer_column_basis(m)
        assert c == ref_column_basis(m)
        assert r == ref_solve_columns(c, m)


def test_a_rational_matrix_scaled_to_integers_splits_over_the_scale():
    # the splitting route: M = scale * S, and S = C * (R / scale) exactly
    rng = random.Random(4)
    for _ in range(100):
        s = [[Fraction(x, rng.randint(1, 4)) for x in row] for row in random_matrix(rng)]
        scale = lcm(*(x.denominator for row in s for x in row))
        c, r = integer_column_basis([[x * scale for x in row] for row in s])
        retraction = [[Fraction(x, scale) for x in row] for row in r]
        assert retraction == (ref_solve_columns(c, s) if r else [])
