"""Projector splitting against the supports-and-sort algorithm it replaced.

The reference below reads the scalar matrix off the dense entries, takes
an integer column basis and solves against it by forward substitution
(the two-pass linear algebra of `test_linalg`), gives each column the lowest
twist among its nonzero rows, refuses a column that mixes twists over a
ring without Laurent units, sorts the columns by that twist, and builds
the section and retraction entry by entry from unit monomials.  The
package reads each image twist off the column's leading row instead, and
must give an equal image, section and retraction on random projectors
over chow, k0, universal(3) and a ring with one Laurent generator of
degree -2, whose projectors mix twists of one parity.  One more k0 input
links only the even twists, so each odd twist is a class of its own,
between the twists of the even class.
"""

import random

import pytest

from motivec.gring import Generator, GradedRingElement, RingDescriptor
from motivec.motives import (
    Correspondence,
    NonSplittableError,
    TateMotive,
    identity_correspondence,
    is_idempotent,
    split_idempotent,
)
from motivec.theory import OrientedTheory, chow, k0, universal

from test_linalg import ref_column_basis, ref_solve_columns
from test_motives import rational_inverse

LAURENT2 = OrientedTheory(
    "laurent2", RingDescriptor("laurent2", (Generator("u", -2, invertible=True),), "Z"), 4, None
)


def unit(ring, degree):
    """The unit monomial of a degree, or None when the ring has none."""
    if degree == 0:
        return GradedRingElement.one(ring)
    units = [g for g in ring.generators if g.invertible]
    if len(units) != 1 or degree % units[0].degree:
        return None
    return GradedRingElement.generator(ring, units[0].symbol, degree // units[0].degree)


def units_morphism(theory, source, target, matrix):
    """Entry (j, i) is matrix[j][i] times the unit monomial of degree s - t."""
    ring = theory.ring
    rows = []
    for j, t in enumerate(target.twists):
        row = []
        for i, s in enumerate(source.twists):
            c = matrix[j][i]
            row.append(GradedRingElement.zero(ring) if c == 0
                       else GradedRingElement.scalar(ring, c) * unit(ring, s - t))
        rows.append(row)
    return Correspondence(theory, source, target, 0, rows)


def ref_split(p):
    """(image, section, retraction, integral) by supports and a sort."""
    from math import lcm

    ring, twists = p.theory.ring, p.source.twists
    scalar = [[next(iter(e.terms.values()), 0) for e in row] for row in p.entries]
    scale = lcm(*(c.denominator for row in scalar for c in row))
    c_mat = ref_column_basis([[c.numerator * (scale // c.denominator) for c in row]
                              for row in scalar])
    r_mat = ref_solve_columns(c_mat, scalar)
    integral = all(x.denominator == 1 for row in r_mat for x in row)
    rank = len(r_mat)
    supports = [{twists[j] for j in range(len(twists)) if c_mat[j][t]} for t in range(rank)]
    laurent = any(g.invertible for g in ring.generators)
    if not laurent and any(len(twist) > 1 for twist in supports):
        raise NonSplittableError("image column mixes twists over a ring without Laurent units")
    order = sorted(range(rank), key=lambda t: (min(supports[t]), t))
    image = TateMotive(min(supports[t]) for t in order)
    section = units_morphism(p.theory, image, p.source, [[row[t] for t in order] for row in c_mat])
    retraction = units_morphism(p.theory, p.source, image, [r_mat[t] for t in order])
    return image, section, retraction, integral


def unimodular(rng, size):
    """A random integer matrix of determinant 1 and its integer inverse."""
    a = [[int(i == j) for j in range(size)] for i in range(size)]
    inverse = [row[:] for row in a]
    for _ in range(2 * size):
        i, j = rng.randrange(size), rng.randrange(size)
        if i != j:  # add k * row j to row i, and undo it on the inverse's columns
            k = rng.choice((-2, -1, 1, 2))
            for c in range(size):
                a[i][c] += k * a[j][c]
                inverse[c][j] -= k * inverse[c][i]
    return a, inverse


def random_projector(rng, theory, motive, link=None):
    """A D A^-1 on each class of twists that unit monomials link: one twist
    without a Laurent unit, one residue class mod its degree with one, or
    the classes of `link(twist)` when given."""
    ring, twists = theory.ring, motive.twists
    laurent = [g.degree for g in ring.generators if g.invertible]
    classes = {}
    for j, t in enumerate(twists):
        key = link(t) if link else (t % laurent[0] if laurent else t)
        classes.setdefault(key, []).append(j)
    matrix = [[0] * len(twists) for _ in twists]
    for places in classes.values():
        size = len(places)
        if ring.field == "Z":
            a, inverse = unimodular(rng, size)
        else:
            inverse = None
            while inverse is None:
                a = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
                inverse = rational_inverse(a)
        d = [rng.random() < 0.5 for _ in range(size)]
        for r, j in enumerate(places):
            for c, i in enumerate(places):
                matrix[j][i] = sum(a[r][k] * inverse[k][c] for k in range(size) if d[k])
    return units_morphism(theory, motive, motive, matrix)


def even_twists_linked(t):
    """One class of the even twists, and one of each odd twist."""
    return t % 2 and t


@pytest.mark.parametrize("theory, link", [
    (chow(), None), (k0(), None), (universal(3), None), (LAURENT2, None),
    (k0(), even_twists_linked),
], ids=["chow", "k0", "universal3", "laurent2", "k0-even-linked"])
def test_split_matches_the_supports_and_sort_reference(theory, link):
    rng = random.Random(15)
    mixed = 0
    for _ in range(40):
        motive = TateMotive(rng.randint(0, 4) for _ in range(rng.randint(0, 6)))
        p = random_projector(rng, theory, motive, link)
        if link:  # blocks link no odd twist to another twist
            assert all(t == s or not t % 2 and not s % 2 for t, s in p.blocks)
        assert is_idempotent(p)
        for q in (p, identity_correspondence(theory, motive) - p):
            image, section, retraction, integral = ref_split(q)
            cert = split_idempotent(q)
            assert cert.motive == image
            assert cert.section == section
            assert cert.retraction == retraction
            assert cert.integral == integral
            mixed += any(t != s for t, s in q.blocks)
    # the Laurent rings' projectors do link distinct twists
    assert (mixed > 0) == (theory in (k0(), LAURENT2))
