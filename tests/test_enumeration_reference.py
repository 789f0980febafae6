"""Degree enumeration against the recursive algorithm it replaced.

`recursive_monomials` is `gring._degree_monomials` as it was: one nested
call per generator, so a ring of more than about 990 generators exceeded
Python's recursion limit.  The package lists the partitions of the degree
without recursion and skips generators whose degree cannot fit; its bases
must equal the reference's, sorted, on the chow, k0 and universal(1..6)
rings, and it must answer at 2 000 generators.
"""

import pytest

from motivec.gring import (
    CHOW_RING,
    K0_RING,
    TruncationError,
    check_enumerable,
    component_rank,
    universal_ring,
)
from motivec.motives import decompose_by_rank, group_ranks, realize
from motivec.spaces import projective_space
from motivec.theory import universal


def recursive_monomials(ring, k):
    gens = ring.generators
    if not gens:
        return [()] if k == 0 else []
    check_enumerable(ring)
    if gens[0].invertible:
        g = gens[0]
        if k % g.degree == 0:
            return [(k // g.degree,)]
        return []
    if ring.truncation is not None and k < -ring.truncation:
        raise TruncationError(
            f"degree {k} lies beyond the truncation bound of {ring.name!r}"
        )
    if k > 0:
        return []
    out = []

    def extend(prefix, idx, remaining):
        if idx == len(gens):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        step = -gens[idx].degree
        for e in range(0, remaining // step + 1):
            extend(prefix + [e], idx + 1, remaining - e * step)

    extend([], 0, -k)
    return out


@pytest.mark.parametrize(
    "ring", [CHOW_RING, K0_RING] + [universal_ring(n) for n in range(1, 7)], ids=lambda r: r.name
)
def test_bases_match_the_recursive_enumeration(ring):
    for k in range(-8, 4):
        if ring.truncation is not None and k < -ring.truncation:
            with pytest.raises(TruncationError):
                component_rank(ring, k)
            continue
        assert component_rank(ring, k).monomials == tuple(sorted(recursive_monomials(ring, k)))


def test_component_rank_at_two_thousand_generators():
    assert component_rank(universal_ring(2000), -5).rank == 7  # the partitions of 5


def test_realize_at_two_thousand_generators_matches_the_counted_rank():
    theory = universal(2000)
    motive = decompose_by_rank(projective_space(2))
    module = realize(motive, theory, -3)
    assert module.rank == 15  # p(3) + p(4) + p(5) = 3 + 5 + 7
    assert group_ranks(motive, theory)[0][-3] == module.rank
