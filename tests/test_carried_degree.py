"""The degree an element carries must be the degree of its terms.

Products of homogeneous factors, negation and sums of one degree hand their
degree to the result instead of recomputing it.  Here every result's
``degrees()`` is compared with the degrees recomputed from its terms with
``monomial_degree``, on random elements of every coefficient ring, zero,
scalars and mixed-degree sums included, and no term may lie past the bound.
"""

import random
from fractions import Fraction

import pytest

from motivec.gring import (
    GradedRingElement,
    RingDescriptor,
    convert_element,
    random_homogeneous,
    substitute_generators,
)
from motivec.theory import chow, k0, universal

THEORIES = [chow(), k0(), universal(3), universal(6), universal(9)]


def recomputed(elem):
    return sorted({elem.ring.monomial_degree(m) for m in elem.terms})


def check(elem):
    assert elem.degrees() == recomputed(elem), elem
    assert elem.is_homogeneous() == (len(recomputed(elem)) <= 1)
    bound = elem.ring.truncation
    assert bound is None or all(abs(d) <= bound for d in recomputed(elem)), elem
    return elem


def _samples(rng, ring):
    """Zero, scalars, homogeneous elements and sums over several degrees."""
    out = [GradedRingElement.zero(ring), GradedRingElement.one(ring),
           GradedRingElement.scalar(ring, -3)]
    for _ in range(12):
        out.append(random_homogeneous(rng, ring, rng.randint(-6, 2)))
        mixed = GradedRingElement.zero(ring)
        for _ in range(rng.randint(2, 4)):
            mixed = mixed + random_homogeneous(rng, ring, rng.randint(-6, 2))
        out.append(mixed)
    return out


@pytest.mark.parametrize("theory", THEORIES, ids=repr)
def test_arithmetic_keeps_the_degree(theory):
    rng = random.Random(4)
    ring = theory.ring
    elems = [check(e) for e in _samples(rng, ring)]
    for _ in range(150):
        a, b = rng.choice(elems), rng.choice(elems)
        check(a + b)
        check(a - b)
        check(a - a)
        check(-a)
        check(a * b)
        check(a * 2)
        check(3 + a)
        check(a ** rng.randint(0, 3))
    b = GradedRingElement.generator(k0().ring, "b")
    check(b ** -2)
    check((b ** -2 + b) * b ** 3)


@pytest.mark.parametrize("theory", THEORIES, ids=repr)
def test_constructors_and_conversions_keep_the_degree(theory):
    rng = random.Random(8)
    ring = theory.ring
    wider = RingDescriptor(ring.name + "-wide", ring.generators, "Q", None)
    for e in _samples(rng, ring):
        check(GradedRingElement(ring, e.terms))
        check(convert_element(e, ring.rationalized()))
        check(convert_element(e, wider))
        doubled = {g.symbol: GradedRingElement.generator(wider, g.symbol) * 2
                   for g in ring.generators}
        check(substitute_generators(e, wider, doubled))


def test_substitution_into_another_ring_keeps_the_degree():
    rng = random.Random(6)
    k0_q = k0().ring.rationalized()
    b = GradedRingElement.generator(k0_q, "b")
    ring = universal(6).ring
    assignment = {f"m_{i}": b ** i * Fraction(1, i + 1) for i in range(1, 7)}
    for e in _samples(rng, ring):
        check(substitute_generators(e, k0_q, assignment))


@pytest.mark.parametrize("n", [3, 6, 9])
def test_homogeneous_product_past_the_bound_is_zero(n):
    ring = universal(n).ring
    m = GradedRingElement.generator(ring, f"m_{n}")
    m1 = GradedRingElement.generator(ring, "m_1")
    for a, b in ((m, m1), (m + m1 ** n, m1), (m, m)):
        prod = a * b
        assert prod.is_zero()
        assert prod.degrees() == []
        assert prod.is_homogeneous(0) and prod.is_homogeneous(-n - 1)


def test_sums_and_negation_compute_no_degree(monkeypatch):
    """`+` and `-` hand on a degree only when their operands already know it."""
    ring = universal(6).ring
    rng = random.Random(5)
    parts = [random_homogeneous(rng, ring, -d) for d in range(4)]
    calls = []
    original = RingDescriptor.monomial_degree

    def counted(self, exponents):
        calls.append(exponents)
        return original(self, exponents)

    monkeypatch.setattr(RingDescriptor, "monomial_degree", counted)
    total = GradedRingElement.zero(ring)
    for p in parts:
        total = total + p - (-p)
    assert calls == []
    check(total)
    assert calls
