"""Small exact matrix helpers over Q and Z (lists of lists)."""

from __future__ import annotations

from fractions import Fraction


def rref(matrix):
    """Reduced row echelon form over Q; returns (rref, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in matrix]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def column_space_factorization(matrix):
    """Factor S = C * R with C the pivot columns and R the nonzero rref rows.

    For an idempotent S this gives R * C = identity.
    """
    reduced, pivots = rref(matrix)
    nrows = len(matrix)
    c = [[Fraction(matrix[i][j]) for j in pivots] for i in range(nrows)]
    r = [reduced[t] for t in range(len(pivots))]
    return c, r


def integer_column_basis(matrix):
    """A Z-basis (n x r) of the lattice generated by the integer columns."""
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
    """Solve C * X = S for a matrix C with full column rank, exactly."""
    nrows = len(c)
    r = len(c[0]) if nrows else 0
    k = len(s[0]) if s else 0
    augmented = [[Fraction(c[i][j]) for j in range(r)] + [Fraction(s[i][j]) for j in range(k)] for i in range(nrows)]
    reduced, pivots = rref(augmented)
    if pivots[:r] != list(range(r)) or len(pivots) != r:
        raise ValueError("matrix does not have full column rank or no solution")
    return [[reduced[t][r + j] for j in range(k)] for t in range(r)]
