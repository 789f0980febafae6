"""A ring holds no state that changes after it is built, and a conversion
reads a term's degree only where no carried degree settles it."""

import copy
import random

import pytest

from motivec import gring
from motivec.gring import GradedRingElement, RingDescriptor, convert_element, random_homogeneous

from test_carried_degree import recomputed


def slot_values(ring):
    return [copy.copy(getattr(ring, slot)) for slot in RingDescriptor.__slots__]


def mixed(ring, seed, degrees):
    """A sum of random homogeneous parts, one per degree; it carries no degree."""
    rng = random.Random(seed)
    return sum((random_homogeneous(rng, ring, d) for d in degrees), GradedRingElement.zero(ring))


def count_degree_reads(monkeypatch):
    calls = []
    original = RingDescriptor.monomial_degree

    def counted(self, exponents):
        calls.append(exponents)
        return original(self, exponents)

    monkeypatch.setattr(RingDescriptor, "monomial_degree", counted)
    return calls


def test_a_ring_is_unchanged_by_its_use():
    generators = gring.universal_ring(5).generators
    ring = RingDescriptor("u", generators, "Q", 5)
    before = slot_values(ring)
    a, b = mixed(ring, 1, range(0, -4, -1)), mixed(ring, 2, range(0, -4, -1))
    assert (a * b).degrees() and a.degrees() == [-3, -2, -1, 0]
    wider = RingDescriptor("w", generators, "Q", None)
    assert convert_element(convert_element(a * b, wider), ring) == a * b
    assert slot_values(ring) == before == slot_values(RingDescriptor("u", generators, "Q", 5))
    assert len(RingDescriptor.__slots__) == 10


def test_a_conversion_into_an_unbounded_ring_reads_no_degree(monkeypatch):
    source = gring.universal_ring(6)
    elem = mixed(source, 3, range(0, -6, -1))
    target = RingDescriptor("free", source.generators, "Q", None)
    calls = count_degree_reads(monkeypatch)
    moved = convert_element(elem, target)
    assert calls == []
    assert moved._mono == elem._mono and moved.ring is target


def test_carried_degrees_within_the_bound_settle_a_conversion(monkeypatch):
    source = gring.universal_ring(6)
    elem = mixed(source, 4, range(-1, -4, -1))
    assert elem.degrees() == [-3, -2, -1]  # now carried
    target = RingDescriptor("narrow", source.generators, "Q", 4)
    calls = count_degree_reads(monkeypatch)
    moved = convert_element(elem, target)
    assert calls == []
    assert moved._mono == elem._mono and moved.degrees() == [-3, -2, -1]


@pytest.mark.parametrize("carried", [False, True])
def test_a_narrower_bound_drops_the_terms_past_it(carried):
    source = gring.universal_ring(6)
    elem = mixed(source, 5, range(0, -7, -1))
    if carried:
        elem.degrees()
    assert (elem._degs is not None) == carried
    target = RingDescriptor("narrow", source.generators, "Q", 3)
    moved = convert_element(elem, target)
    assert moved.terms == {m: c for m, c in elem.terms.items() if source.monomial_degree(m) >= -3}
    assert moved.degrees() == recomputed(moved) == [-3, -2, -1, 0]
