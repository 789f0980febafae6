"""Each value is built whole by one builder: a `Frozen` class checks its
arguments in `__new__` and returns `cls._new(...)`, and a ring is built
with its hash and its monomial packing."""

import copy
import pickle
import random

import pytest

from motivec import gring
from motivec.gring import Frozen, Generator, GradedRingElement, RingDescriptor, random_homogeneous

from test_package import package_classes


def test_no_frozen_class_defines_init():
    frozen = [cls for cls in package_classes() if issubclass(cls, Frozen)]
    assert {cls.__name__ for cls in frozen} >= {
        "GradedRingElement", "RingDescriptor", "TruncatedSeries", "FormalGroupLaw",
        "OrientedTheory", "ProjectiveSpaceElement", "Correspondence", "Cellular", "DisjointUnion",
    }
    assert [cls.__name__ for cls in frozen if "__init__" in vars(cls)] == []
    assert not hasattr(Frozen, "_fill")


def test_equal_rings_built_apart_share_a_hash():
    generators = gring.universal_ring(4).generators
    first, second = (RingDescriptor("u", generators, "Q", 4) for _ in range(2))
    assert first is not second and first == second
    assert hash(first) == hash(second) == hash(("u", generators, "Q", 4))
    assert first != RingDescriptor("u", generators, "Q", 3)
    assert first != ("u", generators, "Q", 4)  # a ring is not a tuple
    rng = random.Random(3)
    a, b = (sum(random_homogeneous(rng, first, -d) for d in range(4)) for _ in range(2))
    assert (a * b).degrees()


@pytest.mark.parametrize("rebuild", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
def test_a_copied_ring_is_equal_and_built_whole(rebuild):
    ring = gring.universal_ring(3)
    GradedRingElement.generator(ring, "m_1").degrees()
    again = rebuild(ring)
    assert again == ring and hash(again) == hash(ring) and repr(again) == repr(ring)
    assert (again._unit, again._guard, again._offsets) == (ring._unit, ring._guard, ring._offsets)


def test_a_ring_is_packed_when_built():
    ring = RingDescriptor("mixed", (Generator("u", -1, True), Generator("v", -2)), "Z")
    assert ring._offsets == (1 << 30, 0)
    assert ring._unit == 1 << 30  # the empty monomial's key
    assert ring._guard == (1 << 31) | (1 << 63)
    u = GradedRingElement.generator(ring, "u")
    assert (u * u ** -1)._mono == {ring._unit: 1}


def test_a_list_of_generators_is_refused_when_the_ring_is_built():
    with pytest.raises(TypeError, match="unhashable type: 'list'"):
        RingDescriptor("r", [Generator("x", -1)], "Z")
