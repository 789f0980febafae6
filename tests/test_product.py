"""The degree-pruned ring product against the per-term truncating product.

The reference below is the straightforward product: build every product
monomial, compute its degree, and drop it past the truncation bound.  It is
kept here, independent of the package's product, so that the pruned product
must agree with it exactly: same terms in the same order, and the same
universal group law term by term.
"""

import random
from fractions import Fraction

import pytest

from motivec.fgl import universal_law
from motivec.gring import GradedRingElement, random_homogeneous
from motivec.theory import chow, k0, universal


def ref_mul(a, b):
    """Every pair of terms, truncated by the degree of the product monomial."""
    b = a._coerce(b)
    if b is NotImplemented:
        return NotImplemented
    a._check_ring(b)
    ring = a.ring
    bound = ring.truncation
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono = tuple(x + y for x, y in zip(m1, m2))
            if bound is not None and abs(ring.monomial_degree(mono)) > bound:
                continue
            s = out.get(mono, 0) + c1 * c2
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return GradedRingElement(ring, out)


def _random_element(rng, ring, homogeneous):
    degrees = [rng.randint(-6, 2)]
    if not homogeneous:
        degrees += [rng.randint(-6, 2) for _ in range(rng.randint(1, 3))]
    total = GradedRingElement.zero(ring)
    for d in degrees:
        total = total + random_homogeneous(rng, ring, d)
    return total


@pytest.mark.parametrize("theory", [chow(), k0(), universal(3), universal(6), universal(9)],
                         ids=repr)
@pytest.mark.parametrize("homogeneous", [True, False])
def test_pruned_product_equals_reference(theory, homogeneous):
    rng = random.Random(11)
    for _ in range(60):
        a = _random_element(rng, theory.ring, homogeneous)
        b = _random_element(rng, theory.ring, homogeneous)
        for got, want in ((a * b, ref_mul(a, b)), (a * a, ref_mul(a, a))):
            assert list(got.terms.items()) == list(want.terms.items())


def test_pruned_product_with_scalars():
    rng = random.Random(2)
    for theory in (chow(), k0(), universal(4)):
        a = _random_element(rng, theory.ring, False)
        for c in (0, 3, Fraction(3, 2) if theory.ring.rational else -2):
            assert list((a * c).terms.items()) == list(ref_mul(a, c).terms.items())


def test_universal_law_matches_reference_product(monkeypatch):
    pruned = {n: universal_law(n).series.terms for n in range(1, 11)}
    monkeypatch.setattr(GradedRingElement, "__mul__", ref_mul)
    monkeypatch.setattr(GradedRingElement, "__rmul__", ref_mul)
    for n, terms in pruned.items():
        want = universal_law(n).series.terms
        assert list(terms) == list(want)
        for key, coeff in terms.items():
            assert list(coeff.terms.items()) == list(want[key].terms.items())
