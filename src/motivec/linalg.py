"""The one exact elimination, an integer column echelon form, and forward
substitution against it: ints stay ints, and :mod:`fractions` is imported
only for the first division that is not exact."""

from __future__ import annotations

from operator import mul


def integer_column_basis(matrix):
    """A Z-basis (n x r) of the lattice generated by the integer columns, in
    column echelon form: the first nonzero (leading) row of each column holds
    a positive entry, lies below the one before, and is zero in later columns."""
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


def solve_columns(c, s):
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
        if any(sum(map(mul, crow, col)) != v for col, v in zip(columns, srow)):
            raise ValueError("no solution: C * X differs from S")
    return x


def _divide(value, pivot):
    """value / pivot, an int when the division is exact."""
    q, rem = divmod(value, pivot)
    if rem:
        from fractions import Fraction

        q = Fraction(value) / pivot
    return q
