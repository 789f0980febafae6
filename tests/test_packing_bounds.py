"""The bounds of the packed-monomial kernel: truncated products are the
same in rings built apart, and a morphism product or tensor product whose
exponent leaves its packed field is refused."""

import random

import pytest

from motivec import gring
from motivec.gring import K0_RING, Generator, GradedRingElement, RingDescriptor, random_homogeneous
from motivec.motives import Correspondence, TateMotive, compose, tensor_product
from motivec.theory import OrientedTheory, k0


def test_products_over_many_rings_keep_their_terms():
    rings = [RingDescriptor(f"r{i}", (Generator("x", -1),), "Z") for i in range(266)]
    for i, ring in enumerate(rings):  # kept alive, so no two share an id
        x = GradedRingElement.generator(ring, "x")
        product = (x + 1) * (x + i)
        want = {(2,): 1, (1,): i + 1, (0,): i}
        assert product.terms == {m: c for m, c in want.items() if c}


def _truncated_products(ring):
    """Products of mixed-degree elements in a truncated ring, with their degrees."""
    rng = random.Random(7)
    out = []
    for _ in range(20):
        a, b = (sum(random_homogeneous(rng, ring, -d) for d in range(5)) for _ in range(2))
        product = a * b
        out.append((product, product.degrees()))
    return out


def test_truncated_products_in_rings_built_apart_keep_degrees():
    generators = gring.universal_ring(5).generators
    expected = _truncated_products(RingDescriptor("u", generators, "Q", 5))
    assert _truncated_products(RingDescriptor("u", generators, "Q", 5)) == expected


def test_compose_refuses_a_product_exponent_out_of_its_field():
    m = TateMotive((0,))
    b = GradedRingElement.generator(K0_RING, "b", 2**30 - 1)
    f = Correspondence(k0(), m, m, -(2**30 - 1), [[b]])
    with pytest.raises(ValueError) as err:
        compose(f, f)
    assert str(err.value) == (
        "a product exponent of b leaves the packed range [-1073741824, 1073741824)"
    )


def test_tensor_product_refuses_a_product_exponent_out_of_its_field():
    """With one monomial per block, where the tensor product skips the zero
    scan, and with two, the Kronecker products' keys are checked alike."""
    m = TateMotive((0,))
    b = GradedRingElement.generator(K0_RING, "b", 2**30 - 1)
    f = Correspondence(k0(), m, m, -(2**30 - 1), [[b]])
    with pytest.raises(ValueError) as err:
        tensor_product(f, f)
    assert str(err.value) == (
        "a product exponent of b leaves the packed range [-1073741824, 1073741824)"
    )
    free = RingDescriptor("free", (Generator("x", -1), Generator("y", -2)), "Z")
    theory = OrientedTheory("free", free, 1, None)
    x, y = (GradedRingElement.generator(free, s, p) for s, p in (("x", 2**30), ("y", 2**29)))
    g = Correspondence(theory, m, m, -(2**30), [[x + y]])
    assert len(g.blocks[0, 0]) == 2
    with pytest.raises(ValueError) as err:
        tensor_product(g, g)
    assert str(err.value) == "a product exponent of x leaves the packed range [0, 2147483648)"
