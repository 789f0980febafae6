"""The packed-monomial product against the tuple reference, on every kind of ring.

``ref_mul`` from ``tests/test_product.py`` builds every product monomial as
an exponent tuple.  The packed product must give the same terms in the same
order on Laurent rings with negative exponents, the Chow ring, an
untruncated two-generator ring and non-homogeneous operands of truncated
universal rings whose pairs cross the bound.  An exponent that leaves its
packed field raises one ValueError line, whichever operation makes it.
"""

import random
from fractions import Fraction

import pytest

from motivec.gring import (
    CHOW_RING,
    K0_RING,
    GradedRingElement,
    Generator,
    RingDescriptor,
    universal_ring,
)
from test_product import ref_mul

LAURENT_3 = RingDescriptor("laurent3", (Generator("t", 3, invertible=True),), "Q")
FREE_2 = RingDescriptor("free2", (Generator("x", -1), Generator("y", -2)), "Z")
FREE_MIXED = RingDescriptor("mixed", (Generator("u", 2), Generator("v", -1)), "Q", 4)


def random_element(rng, ring, low, high, terms=6):
    """A sum of random monomials with exponents in [low, high], any degrees."""
    width = len(ring.generators)
    mapping = {}
    for _ in range(rng.randint(0, terms)):
        mono = tuple(
            rng.randint(low if g.invertible else max(low, 0), high) for g in ring.generators
        )
        c = rng.randint(-4, 4)
        mapping[mono] = c if ring.field == "Z" else Fraction(c, rng.randint(1, 3))
    if width == 0:
        mapping = {(): rng.randint(-4, 4)}
    return GradedRingElement.from_terms(ring, mapping)


def assert_same(got, want):
    assert list(got.terms.items()) == list(want.terms.items())
    assert got.degrees() == want.degrees()


@pytest.mark.parametrize("ring, low, high", [
    (K0_RING, -5, 5),
    (LAURENT_3, -4, 4),
    (CHOW_RING, 0, 0),
    (FREE_2, 0, 4),
    (FREE_MIXED, 0, 3),
    (universal_ring(3), 0, 3),
    (universal_ring(6), 0, 4),
    (universal_ring(9), 0, 5),
], ids=lambda v: v.name if isinstance(v, RingDescriptor) else str(v))
def test_product_equals_reference(ring, low, high):
    rng = random.Random(21)
    elems = [random_element(rng, ring, low, high) for _ in range(40)]
    for _ in range(200):
        a, b = rng.choice(elems), rng.choice(elems)
        assert_same(a * b, ref_mul(a, b))
        assert_same(b * a, ref_mul(b, a))
    for a in elems:
        assert_same(a * a, ref_mul(a, a))


def test_non_homogeneous_universal_operands_cross_the_bound():
    for n in (3, 6, 9):
        ring = universal_ring(n)
        m1 = GradedRingElement.generator(ring, "m_1")
        deep = GradedRingElement.generator(ring, f"m_{n}") + m1 ** (n - 1) + 1
        shallow = m1 + GradedRingElement.generator(ring, "m_2") * 3 - 2
        got = deep * shallow
        assert_same(got, ref_mul(deep, shallow))
        assert not got.is_homogeneous() and min(got.degrees()) == -n


def test_unit_factor_returns_the_same_terms():
    rng = random.Random(3)
    for ring in (K0_RING, universal_ring(6), FREE_2):
        one = GradedRingElement.one(ring)
        a = random_element(rng, ring, -2, 3)
        for unit in (one, 1, -1, Fraction(1)):
            assert_same(a * unit, ref_mul(a, unit))
            assert_same(unit * a, ref_mul(a, unit))


LIMIT = 2 ** 31  # exponents of a non-invertible generator lie in [0, LIMIT)
HALF = 2 ** 30  # those of an invertible one in [-HALF, HALF)


def one_line_error(call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert "\n" not in message and "packed range" in message
    return message


def test_generator_power_at_the_field_boundary():
    x = GradedRingElement.generator(FREE_2, "x", LIMIT - 1)
    assert x.terms == {(LIMIT - 1, 0): 1}
    assert one_line_error(lambda: GradedRingElement.generator(FREE_2, "y", LIMIT)) == (
        f"exponent {LIMIT} of y leaves the packed range [0, {LIMIT})")
    assert GradedRingElement.generator(K0_RING, "b", HALF - 1).degree() == 1 - HALF
    assert GradedRingElement.generator(K0_RING, "b", -HALF).degree() == HALF
    for power in (HALF, -HALF - 1):
        assert one_line_error(lambda: GradedRingElement.generator(K0_RING, "b", power)) == (
            f"exponent {power} of b leaves the packed range [{-HALF}, {HALF})")


def test_power_at_the_field_boundary():
    x = GradedRingElement.generator(FREE_2, "x")
    b = GradedRingElement.generator(K0_RING, "b")
    assert (x ** (LIMIT - 1)).terms == {(LIMIT - 1, 0): 1}
    assert (b ** (HALF - 1)).terms == {(HALF - 1,): 1}
    assert (b ** -HALF).terms == {(-HALF,): 1}
    for call in (lambda: x ** LIMIT, lambda: b ** HALF, lambda: b ** (-HALF - 1)):
        assert one_line_error(call).startswith("a product exponent of ")


def test_product_at_the_field_boundary():
    gen = GradedRingElement.generator
    x, y = gen(FREE_2, "x", HALF), gen(FREE_2, "y", HALF)
    assert (x * gen(FREE_2, "x", HALF - 1)).terms == {(LIMIT - 1, 0): 1}
    assert one_line_error(lambda: x * x) == (
        f"a product exponent of x leaves the packed range [0, {LIMIT})")
    assert one_line_error(lambda: (y + x) * y) == (
        f"a product exponent of y leaves the packed range [0, {LIMIT})")
    low, high = gen(K0_RING, "b", -HALF // 2), gen(K0_RING, "b", HALF // 2)
    assert (low * low).terms == {(-HALF,): 1}
    assert (high * gen(K0_RING, "b", HALF // 2 - 1)).terms == {(HALF - 1,): 1}
    for a, c in ((high, high), (low, low * gen(K0_RING, "b", -1))):
        assert one_line_error(lambda: a * c) == (
            f"a product exponent of b leaves the packed range [{-HALF}, {HALF})")
    # a truncated ring with generators of both degree signs bounds no exponent
    level = GradedRingElement.from_terms(FREE_MIXED, {(HALF // 2, HALF): 1})
    assert level.degree() == 0
    assert one_line_error(lambda: level * level) == (
        f"a product exponent of v leaves the packed range [0, {LIMIT})")


def test_kernel_objects_stay_immutable(monkeypatch):
    from motivec import fgl
    from motivec.fgl import additive_law
    from motivec.motives import TateMotive, identity_correspondence
    from motivec.series import TruncatedSeries
    from motivec.spaces import POINT, grassmannian, quadric
    from motivec.theory import OrientedTheory, ProjectiveSpaceElement, chow, k0

    b = GradedRingElement.generator(K0_RING, "b", -2) * 3
    series = TruncatedSeries.variable(K0_RING, ("x",), "x", 3) * 2
    motive = TateMotive([0, 1, 1])
    corr = identity_correspondence(k0(), motive)
    gr, pair = grassmannian(2, 4), quadric(0)
    builds, logs = [], []

    def build(order):
        builds.append(order)
        return additive_law(order)

    theory = OrientedTheory("counted", CHOW_RING, 4, build)
    element = ProjectiveSpaceElement.unit(theory, 2)
    for obj, names in ((b, ("ring", "terms", "_mono", "_degs", "extra")),
                       (series, ("ring", "variables", "order", "terms", "extra")),
                       (motive, ("histogram", "size", "twists", "extra")),
                       (corr, ("theory", "source", "target", "degree", "entries", "extra")),
                       (gr, ("cells", "name", "expr_form", "_dim", "_hash", "extra")),
                       (pair, ("left", "right", "_dim", "_hash", "extra")),
                       (POINT, ("_dim", "_hash", "extra")),
                       (theory, ("name", "ring", "order", "build", "law", "extra")),
                       (element, ("theory", "m", "coords", "extra"))):
        for name in names:
            with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
                setattr(obj, name, None)
            with pytest.raises(AttributeError, match=f"^{type(obj).__name__} is immutable$"):
                delattr(obj, name)
    assert builds == []  # neither setting nor deleting `law`, nor the element, built the law
    # a refused deletion leaves the process-wide cached theory whole
    ring = chow().ring
    with pytest.raises(AttributeError, match="^OrientedTheory is immutable$"):
        del chow().ring
    assert chow().ring is ring
    for node in (gr, pair, POINT):  # a space node has no instance dict to take a new name
        with pytest.raises(AttributeError):
            object.__setattr__(node, "extra", 1)
        with pytest.raises(AttributeError):
            node.extra
    # a lazy slot is built once, on its first read, and then kept
    logarithm = fgl.logarithm
    monkeypatch.setattr(fgl, "logarithm", lambda law: logs.append(law) or logarithm(law))
    law = theory.law
    assert law is theory.law and builds == [4]
    with pytest.raises(AttributeError, match="^FormalGroupLaw is immutable$"):
        law.log = None
    assert law.log is law.log and logs == [law]
    with pytest.raises(AttributeError, match="^extra$"):
        law.extra
    with pytest.raises(AttributeError, match="^extra$"):
        theory.extra
    assert b.terms == {(-2,): 3}  # built on first read, then kept
    assert b.terms is b.terms
    with pytest.raises(TypeError):
        b.terms[(1,)] = 1
    with pytest.raises(AttributeError):
        b.terms = {}


def test_correspondence_with_an_empty_side_lists_no_twists(monkeypatch):
    from motivec import motives
    from motivec.motives import Correspondence, TateMotive, zero_correspondence
    from motivec.theory import chow

    monkeypatch.setattr(motives, "MAX_TWISTS", 3)
    big = TateMotive.from_histogram([(0, 2), (1, 2)])
    empty = TateMotive()
    assert zero_correspondence(chow(), big, empty).entries == ()
    assert zero_correspondence(chow(), empty, big).entries == ((),) * 4
    with pytest.raises(ValueError, match="^row 1 has 1 columns, expected 0$"):
        Correspondence(chow(), empty, big, 0, [[], [GradedRingElement.zero(CHOW_RING)], [], []])
    with pytest.raises(ValueError, match="^motive has 4 twists, more than the 3 it may list$"):
        zero_correspondence(chow(), big, TateMotive([0]))


def ref_random_homogeneous(rng, ring, degree, span=3):
    """Draw a coefficient per basis monomial and build through `from_terms`."""
    from motivec.gring import TruncationError, component_rank

    try:
        basis = component_rank(ring, degree).monomials
    except TruncationError:
        return GradedRingElement.zero(ring)
    terms = {}
    for mono in basis:
        c = rng.randint(-span, span)
        if c:
            terms[mono] = c if ring.field == "Z" else Fraction(c, rng.randint(1, 3))
    return GradedRingElement.from_terms(ring, terms)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("ring", [CHOW_RING, K0_RING, universal_ring(6)], ids=lambda r: r.name)
def test_random_homogeneous_builds_the_from_terms_element(ring, seed):
    from motivec.gring import random_homogeneous

    got_rng, want_rng = random.Random(seed), random.Random(seed)
    for _ in range(200):
        degree = got_rng.randint(-8, 3)
        assert want_rng.randint(-8, 3) == degree
        got = random_homogeneous(got_rng, ring, degree)
        want = ref_random_homogeneous(want_rng, ring, degree)
        assert list(got._mono.items()) == list(want._mono.items())
        assert [type(c) for c in got._mono.values()] == [type(c) for c in want._mono.values()]
        assert got.degrees() == want.degrees() == sorted(set(want.degrees()))
    assert got_rng.getstate() == want_rng.getstate()
