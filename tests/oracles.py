"""Brute-force oracles used by the test suite.

Everything in here is deliberately independent of the package under test:
plain dicts, Fractions and recursion only.  The polynomial arithmetic below
is bivariate in (x, y) with coefficients that are themselves dicts mapping
an integer "unit power" (e.g. a power of the degree -1 unit of K-theory)
to a Fraction.
"""

from fractions import Fraction


def distinct_cells(space):
    """Cells over the distinct nodes of a space, each node counted once;
    a stack of its own finds the nodes, told apart by identity."""
    seen, todo, cells = set(), [space], 0
    while todo:
        node = todo.pop()
        if id(node) not in seen:
            seen.add(id(node))
            cells += len(getattr(node, "cells", ()))
            todo.extend(node.parts())
    return cells


def box_partitions(k, parts, largest):
    """Number of partitions of k into at most `parts` parts, each <= `largest`."""
    if k == 0:
        return 1
    if k < 0 or parts == 0 or largest == 0:
        return 0
    total = 0
    for first in range(min(k, largest), 0, -1):
        total += box_partitions(k - first, parts - 1, first)
    return total


def gaussian_coefficients(parts, largest):
    """Coefficient list of the generating polynomial of box partitions."""
    return [box_partitions(k, parts, largest) for k in range(parts * largest + 1)]


# -- tiny exact polynomial layer: {(i, j): {unit_power: Fraction}} --

def _cadd(a, b):
    out = dict(a)
    for u, c in b.items():
        c2 = out.get(u, Fraction(0)) + c
        if c2:
            out[u] = c2
        else:
            out.pop(u, None)
    return out


def _cmul(a, b):
    out = {}
    for u1, c1 in a.items():
        for u2, c2 in b.items():
            u = u1 + u2
            c = out.get(u, Fraction(0)) + c1 * c2
            if c:
                out[u] = c
            else:
                out.pop(u, None)
    return out


def pmul(p, q, order):
    out = {}
    for (i1, j1), c1 in p.items():
        for (i2, j2), c2 in q.items():
            i, j = i1 + i2, j1 + j2
            if i + j > order:
                continue
            c = _cadd(out.get((i, j), {}), _cmul(c1, c2))
            if c:
                out[(i, j)] = c
            else:
                out.pop((i, j), None)
    return out


def solve_log(f, order):
    """Solve l(f(x,y)) = l(x) + l(y) for l = x + higher, order by order.

    `f` is a bivariate polynomial as above; returns {k: coeffdict} for the
    coefficient of x^k in l.  Verifies the full identity before returning.
    """
    lcoeffs = {1: {0: Fraction(1)}}
    for d in range(2, order + 1):
        lhs = apply_series(lcoeffs, f, order)
        defect = lhs.get((d - 1, 1), {})
        # the unknown x^d coefficient enters through (x + y)^d with weight d
        l_d = {u: -c / d for u, c in defect.items()}
        if l_d:
            lcoeffs[d] = l_d
    lhs = apply_series(lcoeffs, f, order)
    for (i, j), c in lhs.items():
        if j == 0 or i == 0:
            expect = lcoeffs.get(i + j, {})
        else:
            expect = {}
        diff = _cadd(c, {u: -v for u, v in expect.items()})
        assert not diff, f"log oracle: identity fails at x^{i} y^{j}: {diff}"
    return lcoeffs


def apply_series(lcoeffs, f, order):
    out = {}
    power = {(0, 0): {0: Fraction(1)}}
    for k in range(1, max(lcoeffs) + 1):
        power = pmul(power, f, order)
        if k in lcoeffs:
            lk = lcoeffs[k]
            for e, c in power.items():
                scaled = _cmul(c, lk)
                if scaled:
                    merged = _cadd(out.get(e, {}), scaled)
                    if merged:
                        out[e] = merged
                    else:
                        out.pop(e, None)
    return out


def multiplicative_fgl_poly():
    """x + y - u*x*y with u the degree -1 unit, as an oracle polynomial."""
    one = Fraction(1)
    return {(1, 0): {0: one}, (0, 1): {0: one}, (1, 1): {1: -one}}


def multiplicative_pn_classes(max_n, order):
    """[P^n] values for the multiplicative law, from the functional equation."""
    lcoeffs = solve_log(multiplicative_fgl_poly(), order)
    out = {}
    for n in range(0, max_n + 1):
        if n == 0:
            out[0] = {0: Fraction(1)}
        else:
            out[n] = {u: (n + 1) * c for u, c in lcoeffs.get(n + 1, {}).items()}
    return out
