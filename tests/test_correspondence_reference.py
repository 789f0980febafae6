"""Twist-blocked correspondences against the dense matrix algorithms.

The references below are the dense versions the block form replaced: a
morphism is its `entries` matrix over the expanded twist tuples, `compose`
adds ring products over the middle index, `transpose` reverses and
transposes the matrix, `tensor_product` is the Kronecker product re-sorted
by twist sum, the identity is a diagonal of ones and the bundle projectors
come from sorting the shifted copies by twist.  They are kept here,
independent of the block algorithms, so that the package must agree with
them entry by entry on random correspondences over chow, k0 and
universal(6), with repeated twists and empty motives.
"""

import random

import pytest

from motivec.gring import GradedRingElement, _key_degrees
from motivec.motives import (
    Correspondence,
    TateMotive,
    compose,
    identity_correspondence,
    projective_bundle_projectors,
    tensor_product,
    transpose,
)
from motivec.selfcheck import random_correspondence, random_motive
from motivec.theory import chow, k0, universal


def dense(theory, source, target, degree, rows):
    """The morphism built from rows, whose entries, read back from its
    blocks, must be those rows again (element by element and entry by entry)."""
    corr = Correspondence(theory, source, target, degree, rows)
    rows = tuple(map(tuple, rows))
    assert corr.entries == rows
    assert all(corr.entry(j, i) == e for j, row in enumerate(rows) for i, e in enumerate(row))
    return corr


def ref_compose(alpha, beta):
    """Each entry a sum of ring products over the middle index."""
    rows = []
    for arow in alpha.entries:
        row = []
        for i in range(beta.source.size):
            acc = GradedRingElement.zero(alpha.theory.ring)
            for a, brow in zip(arow, beta.entries):
                acc = acc + a * brow[i]
            row.append(acc)
        rows.append(row)
    return dense(alpha.theory, beta.source, alpha.target, alpha.degree + beta.degree, rows)


def ref_transpose(alpha, dim_source, dim_target):
    p, q = alpha.source.size, alpha.target.size
    rows = [[alpha.entries[q - 1 - jj][p - 1 - ii] for jj in range(q)] for ii in range(p)]
    return dense(alpha.theory, alpha.target.dual(dim_target), alpha.source.dual(dim_source),
                 dim_source + alpha.degree - dim_target, rows)


def sorted_pairs(m1, m2):
    sums = [a + b for a in m1.twists for b in m2.twists]
    order = sorted(range(len(sums)), key=lambda t: (sums[t], t))
    return TateMotive(sums[t] for t in order), order


def ref_tensor(alpha, beta):
    source, source_order = sorted_pairs(alpha.source, beta.source)
    target, target_order = sorted_pairs(alpha.target, beta.target)
    columns = [divmod(i, beta.source.size) for i in source_order]
    rows = []
    for jj in target_order:
        j1, j2 = divmod(jj, beta.target.size)
        rows.append([alpha.entries[j1][i1] * beta.entries[j2][i2] for i1, i2 in columns])
    return dense(alpha.theory, source, target, alpha.degree + beta.degree, rows)


def ref_identity(theory, motive):
    one, zero = GradedRingElement.one(theory.ring), GradedRingElement.zero(theory.ring)
    n = motive.size
    return dense(theory, motive, motive, 0, [[one if i == j else zero for i in range(n)]
                                             for j in range(n)])


def ref_projectors(theory, base, rank):
    tagged = sorted((t + copy, copy, i) for copy in range(rank) for i, t in enumerate(base.twists))
    total = TateMotive(t for t, _, _ in tagged)
    one, zero = GradedRingElement.one(theory.ring), GradedRingElement.zero(theory.ring)
    n = total.size
    return [dense(theory, total, total, 0,
                  [[one if r == c and tagged[r][1] == copy else zero for c in range(n)]
                   for r in range(n)])
            for copy in range(rank)]


def assert_same(got, want):
    """Equal blocks, equal hashes, and the same entries read back from them."""
    assert got == want and hash(got) == hash(want)
    assert got.entries == want.entries
    degrees = [[e.degrees() for e in row] for row in got.entries]
    assert degrees == [[GradedRingElement(e.ring, dict(e.terms)).degrees() for e in row]
                       for row in got.entries]


THEORIES = [chow(), k0(), universal(6)]


@pytest.mark.parametrize("theory", THEORIES, ids=lambda t: t.name)
def test_compose_transpose_and_tensor_match_the_dense_algorithms(theory):
    rng = random.Random(31)
    for _ in range(60):
        a, b, c = (random_motive(rng, max_size=5, max_twist=3) for _ in range(3))
        # degrees down to -3 give universal(6) products past its truncation
        f = random_correspondence(rng, theory, a, b, rng.randint(-3, 2))
        g = random_correspondence(rng, theory, b, c, rng.randint(-3, 2))
        assert_same(compose(g, f), ref_compose(g, f))
        dim_a = max(a.twists, default=0) + rng.randint(0, 2)
        dim_b = max(b.twists, default=0) + rng.randint(0, 2)
        assert_same(transpose(f, dim_a, dim_b), ref_transpose(f, dim_a, dim_b))
        assert_same(tensor_product(f, g), ref_tensor(f, g))
        assert_same(identity_correspondence(theory, a), ref_identity(theory, a))
        h = random_correspondence(rng, theory, a, b, f.degree)
        plus = [[x + y for x, y in zip(r, s)] for r, s in zip(f.entries, h.entries)]
        minus = [[x - y for x, y in zip(r, s)] for r, s in zip(f.entries, h.entries)]
        assert_same(f + h, dense(theory, a, b, f.degree, plus))
        assert_same(f - h, dense(theory, a, b, f.degree, minus))
        assert (f - f).is_zero() and (f - f).blocks == {}


@pytest.mark.parametrize("theory", THEORIES, ids=lambda t: t.name)
def test_bundle_projectors_match_the_sorted_copies(theory):
    rng = random.Random(32)
    for _ in range(15):
        base = random_motive(rng, max_size=4, max_twist=2)
        rank = rng.randint(1, 4)
        for got, want in zip(projective_bundle_projectors(theory, base, rank),
                             ref_projectors(theory, base, rank)):
            assert_same(got, want)


def test_blocks_hold_one_component_each():
    """Each block holds nonzero matrices for monomials of its one degree,
    none past the truncation; Chow and K0 blocks hold exactly one."""
    rng = random.Random(33)
    for theory in THEORIES:
        ring = theory.ring
        for _ in range(30):
            a, b = (random_motive(rng, max_size=5, max_twist=3) for _ in range(2))
            f = random_correspondence(rng, theory, a, b, rng.randint(-1, 2))
            for (t, s), block in f.blocks.items():
                degree = f.degree + s - t
                assert block and all(any(map(any, m)) for m in block.values())
                assert _key_degrees(ring, block) == [degree] * len(block)
                if ring.truncation is None:
                    assert len(block) == 1
                else:
                    assert abs(degree) <= ring.truncation


ONE, ZERO = GradedRingElement.one(chow().ring), GradedRingElement.zero(chow().ring)
B = GradedRingElement.generator(k0().ring, "b")
M = TateMotive((0, 1, 1))


@pytest.mark.parametrize("theory, rows, error", [
    (chow(), [[ONE, ZERO, ZERO], [ZERO, ONE, ONE], [ZERO, ONE]],
     "ValueError: row 2 has 2 columns, expected 3"),
    (chow(), [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO]], "ValueError: expected 3 rows, got 2"),
    (chow(), [[ONE, ZERO, ONE], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]],
     "ValueError: entry (0,2) must be homogeneous of degree 1, got degrees [0]"),
    (chow(), [[ONE, ZERO, ZERO], [ZERO, 1, ZERO], [ZERO, ZERO, ONE]],
     "TypeError: entries must be graded ring elements"),
    (chow(), [[ONE, ZERO, ZERO], [ZERO, GradedRingElement.one(k0().ring), ZERO],
              [ZERO, ZERO, ONE]],
     "RingMismatchError: entry over the wrong coefficient ring"),
    (k0(), [[B ** 0, B, B], [B, B, B], [B, B, B]],
     "ValueError: entry (0,1) must be homogeneous of degree 1, got degrees [-1]"),
], ids=["short row", "missing row", "entry degree", "not an element", "wrong ring",
        "cross-twist degree"])
def test_dense_input_keeps_its_errors(theory, rows, error):
    """The messages the dense constructor gave before twist blocks."""
    with pytest.raises((TypeError, ValueError)) as info:
        Correspondence(theory, M, M, 0, rows)
    assert f"{type(info.value).__name__}: {info.value}" == error
