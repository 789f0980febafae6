"""Graded-group ranks counted from the Hilbert series against the enumeration.

`group_ranks` counts each degree's rank from the twist histogram and the
coefficient ring's generator degrees; `realize_table` lists every monomial
of every component and is kept as the reference.  The two must agree on
the ranks, the periodic flag and the total rank, and refuse the same rings.
"""

import os
import random
import subprocess
import sys
import time

import pytest

import motivec
from motivec.gring import Generator, RingDescriptor, component_rank
from motivec.motives import (
    TateMotive,
    decompose_by_codim,
    decompose_by_rank,
    group_ranks,
    realize,
    realize_table,
)
from motivec.selfcheck import random_motive
from motivec.spaces import POINT, DisjointUnion, grassmannian, projective_space, quadric
from motivec.theory import OrientedTheory, chow, k0, universal
from test_fold import THEORIES, _random_space, ref_collect

CORPUS_THEORIES = (chow(), k0(), universal(1), universal(4), universal(8), universal(12))

CORPUS_SPACES = [
    POINT, projective_space(0), projective_space(1), projective_space(3), projective_space(6),
    quadric(0), quadric(1), quadric(3), quadric(5), grassmannian(1, 3), grassmannian(2, 4),
    grassmannian(2, 5), grassmannian(3, 6), grassmannian(3, 7), grassmannian(4, 8),
]


def assert_counted_like_enumerated(motive, theory):
    ranks, periodic = group_ranks(motive, theory)
    table = realize_table(motive, theory)
    assert (ranks, periodic) == (table.ranks(), table.periodic)
    assert list(ranks) == sorted(ranks)
    total = ranks[0] if periodic else sum(ranks.values())
    assert total == table.total_rank()


def _theory(name, generators, truncation=None):
    ring = RingDescriptor(name, tuple(generators), "Z", truncation)
    return OrientedTheory(name, ring, 4, None)


@pytest.mark.parametrize("theory", CORPUS_THEORIES, ids=lambda t: t.name)
@pytest.mark.parametrize("route", [decompose_by_rank, decompose_by_codim])
def test_corpus_ranks_equal_the_enumeration(route, theory):
    for space in CORPUS_SPACES:
        assert_counted_like_enumerated(route(space), theory)


def test_random_spaces_and_motives_count_like_the_enumeration():
    rng = random.Random(4077)
    pool = [POINT, projective_space(2), quadric(1), grassmannian(2, 4)]
    for _ in range(200):
        space = _random_space(rng, pool)
        for theory in THEORIES:
            assert_counted_like_enumerated(decompose_by_rank(space), theory)
            assert_counted_like_enumerated(decompose_by_codim(space), theory)
        if len(ref_collect(space, "rank")) <= 40:
            pool.append(space)
    rng = random.Random(11)
    for _ in range(200):
        motive = random_motive(rng, max_size=6, max_twist=5)
        for theory in THEORIES:
            assert_counted_like_enumerated(motive, theory)


def test_empty_motive_and_union_tower():
    for theory in CORPUS_THEORIES:
        assert_counted_like_enumerated(TateMotive(()), theory)
    space = projective_space(1)
    for _ in range(12):
        space = DisjointUnion(space, space)
    for theory in CORPUS_THEORIES:
        assert_counted_like_enumerated(decompose_by_rank(space), theory)


def test_other_gradings_count_like_the_enumeration():
    theories = [
        _theory("laurent+1", [Generator("v", 1, invertible=True)]),
        _theory("free-1-3", [Generator("a", -1), Generator("c", -3)]),
        _theory("free-2-2", [Generator("a", -2), Generator("c", -2)], truncation=5),
        _theory("none@0", [], truncation=0),
    ]
    rng = random.Random(5)
    for _ in range(50):
        motive = random_motive(rng, max_size=6, max_twist=7)
        for theory in theories:
            assert_counted_like_enumerated(motive, theory)


@pytest.mark.parametrize(
    "generators",
    [
        [Generator("u", -1, invertible=True), Generator("a", -1)],
        [Generator("a", -1), Generator("b", 0)],
    ],
)
def test_unsupported_rings_are_refused_alike(generators):
    theory = _theory("odd", generators)
    motive = TateMotive((0, 1))
    with pytest.raises(NotImplementedError) as enumerated:
        realize_table(motive, theory)
    with pytest.raises(NotImplementedError) as counted:
        group_ranks(motive, theory)
    assert str(counted.value) == str(enumerated.value)
    assert_counted_like_enumerated(TateMotive(()), theory)


def test_a_laurent_unit_of_another_degree_than_one_is_refused():
    """Its table would not be one description valid in every degree: over
    a unit of degree -2, the motive (0, 1, 1) has rank 1 in degree 0 and
    rank 2 in degree 1."""
    motive = TateMotive([0, 1, 1])
    k2 = _theory("k2", [Generator("b", -2, invertible=True)])
    assert (realize(motive, k2, 0).rank, realize(motive, k2, 1).rank) == (1, 2)
    for degree in (-2, 3, 0):
        theory = _theory("odd", [Generator("b", degree, invertible=True)])
        for table in (realize_table, group_ranks):
            for m in (motive, TateMotive(())):
                with pytest.raises(NotImplementedError, match=f"degree 1 or -1, not {degree}$"):
                    table(m, theory)
    # a unit of degree 0 has infinitely many monomials b^e in degree 0
    zero = _theory("z", [Generator("b", 0, invertible=True)])
    with pytest.raises(NotImplementedError, match="degree 0 has infinitely many monomials$"):
        component_rank(zero.ring, 0)
    with pytest.raises(NotImplementedError, match="degree 0 has infinitely many monomials$"):
        realize(motive, zero, 0)


def test_hundred_level_tower_ranks_are_counted():
    space = projective_space(2)
    for _ in range(100):
        space = DisjointUnion(space, space)
    motive = decompose_by_rank(space)
    assert group_ranks(motive, chow()) == ({0: 2**100, 1: 2**100, 2: 2**100}, False)
    assert group_ranks(motive, k0()) == ({0: 3 * 2**100}, True)
    # universal(1) keeps degrees 1 and 2: m_1 carries twist 2 down to degree 1
    assert group_ranks(motive, universal(1)) == ({1: 2 * 2**100, 2: 2**100}, False)


def test_realize_refuses_a_basis_past_the_budget(monkeypatch):
    motive = TateMotive.from_histogram([(0, 3), (1, 2)])
    assert realize(motive, chow(), 0).rank == 3
    monkeypatch.setattr(motivec.motives, "MAX_TWISTS", 2)
    with pytest.raises(ValueError) as refused:
        realize(motive, chow(), 0)
    assert str(refused.value) == "degree 0 module has 3 basis elements, more than the 2 it may list"
    assert realize(motive, chow(), 1).rank == 2
    with pytest.raises(ValueError, match="^degree -1 module has 7 basis elements"):
        realize(motive, universal(2), -1)
    with pytest.raises(ValueError, match="^degree 0 module has 5 basis elements"):
        realize_table(motive, k0())
    assert group_ranks(motive, k0()) == ({0: 5}, True)


def partition_counts(limit):
    """p(0), ..., p(limit) by Euler's pentagonal number recurrence."""
    p = [1]
    for n in range(1, limit + 1):
        total, k = 0, 1
        while k * (3 * k - 1) // 2 <= n:
            sign = 1 if k % 2 else -1
            for pent in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
                if pent <= n:
                    total += sign * p[n - pent]
            k += 1
        p.append(total)
    return p


def test_large_universal_bound_groups_answer_quickly():
    """Gr(2,4) under universal:40: rank_k = sum_t m_t p(t - k), p(d) the
    partitions of d (all parts are <= 40 in the window)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(motivec.__file__)))
    argv = ["--space", "Gr:2,4", "--theory", "universal:40", "--mode", "groups"]
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "motivec.cli", *argv],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0 and proc.stderr == ""
    assert elapsed < 0.5
    twists = {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    p = partition_counts(40)
    assert p[:8] == [1, 1, 2, 3, 5, 7, 11, 15] and p[40] == 37338
    want = {k: sum(m * p[t - k] for t, m in twists.items() if t >= k) for k in range(4 - 40, 5)}
    assert proc.stdout == "".join(f"{k}: {r}\n" for k, r in want.items())
