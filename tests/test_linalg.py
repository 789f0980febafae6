import random
from fractions import Fraction

import pytest

from motivec.linalg import integer_column_basis, solve_columns


def mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def test_integer_basis_spans_column_lattice():
    rng = random.Random(2)
    for _ in range(30):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        s = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        basis = integer_column_basis(s)
        if not basis or not basis[0]:
            assert all(all(x == 0 for x in row) for row in s)
            continue
        # every original column is an integral combination of the basis
        coeff = solve_columns(basis, s)
        assert all(x.denominator == 1 for row in coeff for x in row)
        assert mul(basis, coeff) == [[Fraction(x) for x in row] for row in s]


def test_solve_columns_detects_inconsistency():
    with pytest.raises(ValueError):
        solve_columns([[1], [0]], [[0], [1]])


def random_basis(rng):
    rows, cols = rng.randint(1, 5), rng.randint(1, 5)
    s = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
    return integer_column_basis(s)


def test_solve_columns_recovers_integer_and_rational_coefficients():
    rng = random.Random(3)
    for _ in range(60):
        basis = random_basis(rng)
        rank, k = len(basis[0]), rng.randint(1, 3)
        for draw in (lambda: rng.randint(-4, 4), lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 5))):
            y = [[draw() for _ in range(k)] for _ in range(rank)]
            x = solve_columns(basis, mul(basis, y) if rank else [[0] * k for _ in basis])
            assert x == y
            # exact divisions stay ints; a Fraction appears only where one is inexact
            assert all(type(v) is int or v.denominator != 1 for row in x for v in row)


def test_solve_columns_refuses_a_right_side_outside_the_column_space():
    rng = random.Random(4)
    refused = 0
    for _ in range(60):
        basis = random_basis(rng)
        rank = len(basis[0])
        leading = {next(i for i, row in enumerate(basis) if row[t]) for t in range(rank)}
        free = [i for i in range(len(basis)) if i not in leading]
        if not free:
            continue
        y = [[rng.randint(-4, 4)] for _ in range(rank)]
        s = mul(basis, y) if rank else [[0] for _ in basis]
        s[rng.choice(free)][0] += Fraction(1, rng.randint(1, 3))
        with pytest.raises(ValueError):
            solve_columns(basis, s)
        refused += 1
    assert refused > 10
