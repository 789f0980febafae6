"""Each value is built whole by one builder: a `Frozen` class checks its
arguments in `__new__` and returns `cls._new(...)`, and a ring is built
with its hash and its monomial packing.  A value is never copied: `copy`
and `deepcopy` return the value itself."""

import copy
import operator
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


def value_samples(seed):
    """Seeded values of every concrete `Frozen` class of the package."""
    from motivec.fgl import additive_law, multiplicative_law, universal_law
    from motivec.selfcheck import random_correspondence, random_motive
    from motivec.series import TruncatedSeries
    from motivec.spaces import POINT, DisjointUnion, grassmannian, projective_space
    from motivec.theory import ProjectiveSpaceElement, chow, k0, universal

    rng = random.Random(seed)
    theories = (chow(), k0(), universal(4))
    samples = [POINT, projective_space(rng.randint(0, 4)), grassmannian(2, rng.randint(2, 5)),
               DisjointUnion(projective_space(1), POINT), additive_law(4), multiplicative_law(4),
               universal_law(rng.randint(1, 4))]
    for theory in theories:
        ring = theory.ring
        a, b = random_motive(rng), random_motive(rng)
        coords = [random_homogeneous(rng, ring, -i) for i in range(3)]
        samples += [theory, ring, coords[1], a, random_correspondence(rng, theory, a, b, 0),
                    ProjectiveSpaceElement(theory, 2, coords),
                    TruncatedSeries(ring, ("x",), 3, {(i,): c for i, c in enumerate(coords)})]
    return samples


@pytest.mark.parametrize("seed", range(3))
def test_copies_of_a_value_are_the_value(seed):
    samples = value_samples(seed)
    concrete = {cls for cls in package_classes()
                if issubclass(cls, Frozen) and cls is not Frozen and not cls.__subclasses__()}
    assert {type(value) for value in samples} == concrete
    for value in samples:
        assert copy.copy(value) is value and copy.deepcopy(value) is value
    again = copy.deepcopy(samples)
    assert again is not samples and all(map(operator.is_, again, samples))
