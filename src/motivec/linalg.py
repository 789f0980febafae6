"""The one exact elimination: an integer column echelon form that carries its
transform, so that one pass factors a matrix as M = C * R (Cohen, *A Course
in Computational Algebraic Number Theory*, 1993, section 2.4)."""

from __future__ import annotations


def integer_column_basis(matrix):
    """(C, R), both integral, with matrix == C * R.  C (n x r) is a Z-basis
    of the lattice generated by the columns, in column echelon form: the
    first nonzero (leading) row of each column holds a positive entry, lies
    below the one before, and is zero in later columns.

    Each live column carries its row of R, starting as a row of the
    identity: when a column loses q * head, head's row gains q * (its row);
    negating head negates its row; a column that becomes zero drops out
    together with its row.
    """
    nrows = len(matrix)
    ncols = len(matrix[0]) if nrows else 0
    cols = [(list(map(int, col)), [0] * j + [1] + [0] * (ncols - j - 1))
            for j, col in enumerate(zip(*matrix)) if any(col)]
    basis = []
    for r in range(nrows):
        live = [c for c in cols if c[0][r] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[0][r]))
            head, head_row = live[0]
            for col, row in live[1:]:
                q = col[r] // head[r]
                if q:
                    col[r:] = [x - q * h for x, h in zip(col[r:], head[r:])]  # rows above r are 0
                    head_row[:] = [x + q * y for x, y in zip(head_row, row)]
            live = [c for c in live if c[0][r] != 0]
        head, head_row = live[0]
        if head[r] < 0:
            head[:] = [-x for x in head]
            head_row[:] = [-x for x in head_row]
        basis.append(live[0])
        cols = [c for c in cols if c is not live[0] and any(c[0])]
    return [[col[i] for col, _ in basis] for i in range(nrows)], [row for _, row in basis]
