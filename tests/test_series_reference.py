"""Horner substitution and the order-by-order solver against the plain algorithms.

The references below are the straightforward versions: substitution builds
every term as a constant series times the powers of the images, reversion
composes at the full order at every step, the formal inverse applies the
whole law at every step, and the logarithm inverts the invariant differential
by its geometric series and integrates term by term.  They are kept here,
independent of the package's algorithms, so that the package must agree with
them coefficient by coefficient: on the built-in laws, on universal laws built
entirely from the references, on dense specializations of a universal law, on
random univariate reversions and on random substitutions.
"""

import random
from fractions import Fraction

import pytest

from motivec.fgl import (
    FormalGroupLaw,
    additive_law,
    formal_inverse,
    logarithm,
    multiplicative_law,
    universal_law,
    universal_log,
)
from motivec.gring import (
    K0_RING,
    GradedRingElement,
    convert_element,
    random_homogeneous,
    substitute_generators,
    universal_ring,
)
from motivec.series import SubstitutionError, TruncatedSeries
from motivec.theory import chow, k0, universal
from test_kernel_reference import random_element

XY = ("x", "y")


def ref_substitute_many(series, images):
    """Every term as a constant series times the powers of the images."""
    picked = [images[v] for v in series.variables]
    target = picked[0]
    for t in picked:
        if not t.constant_term().is_zero():
            raise SubstitutionError("substitution target has a nonzero constant term")
    one = GradedRingElement.one(series.ring)
    powers = [[TruncatedSeries.constant(one, target.variables, target.order)] for _ in picked]
    out = TruncatedSeries.zero(series.ring, target.variables, target.order)
    for expo, coeff in series.terms.items():
        piece = TruncatedSeries.constant(coeff, target.variables, target.order)
        for i, e in enumerate(expo):
            while len(powers[i]) <= e:
                powers[i].append(powers[i][-1] * picked[i])
            if e:
                piece = piece * powers[i][e]
        out = out + piece
    return out


def ref_reversion(series):
    """Compose at the full order at every step."""
    (var,) = series.variables
    x = TruncatedSeries.variable(series.ring, (var,), var, series.order)
    g = x
    for k in range(2, series.order + 1):
        c = ref_substitute_many(series, {var: g}).coefficient((k,))
        if not c.is_zero():
            g = g - TruncatedSeries(series.ring, (var,), series.order, {(k,): c})
    return g


def ref_formal_inverse(law):
    """Apply the whole law at the full order at every step."""
    x = TruncatedSeries.variable(law.ring, ("x",), "x", law.order)
    inv = -x
    for k in range(2, law.order + 1):
        defect = ref_substitute_many(law.series, {"x": x, "y": inv}).coefficient((k,))
        if not defect.is_zero():
            inv = inv - TruncatedSeries(law.ring, ("x",), law.order, {(k,): defect})
    return inv


def ref_logarithm(law):
    """The geometric inverse of omega = dF/dy at y = 0, integrated term by term."""
    ring, order = law.ring.rationalized(), law.order
    omega = {(i,): convert_element(c, ring) for (i, j), c in law.series.terms.items() if j == 1}
    one = TruncatedSeries.constant(GradedRingElement.one(ring), ("x",), order)
    tail = one - TruncatedSeries(ring, ("x",), order, omega)  # no constant term once order >= 1
    inverse = power = one
    for _ in range(order):
        power = power * tail
        inverse = inverse + power
    integral = {(e + 1,): c * Fraction(1, e + 1) for (e,), c in inverse.terms.items()}
    return TruncatedSeries(ring, ("x",), order, integral)


def ref_universal_series(order):
    """exp(log(x) + log(y)), built with the reference algorithms only."""
    ring = universal_ring(order)
    log = universal_log(order)
    exp = ref_reversion(log)
    y = TruncatedSeries.variable(ring, XY, "y", order)
    x = TruncatedSeries.variable(ring, XY, "x", order)
    log_y = ref_substitute_many(log.lift(XY), {"x": y, "y": x})
    return ref_substitute_many(exp, {"x": log.lift(XY) + log_y})


def assert_same(got, want):
    assert (got.ring, got.variables, got.order) == (want.ring, want.variables, want.order)
    assert set(got.terms) == set(want.terms)
    for expo, coeff in want.terms.items():
        assert got.terms[expo] == coeff, expo


@pytest.mark.parametrize("law", [additive_law(10), multiplicative_law(10)], ids=repr)
def test_builtin_law_reversion_and_inverse(law):
    assert_same(law.log.reversion(), ref_reversion(law.log))
    assert_same(formal_inverse(law), ref_formal_inverse(law))
    xyz = ("x", "y", "z")
    x, y, z = (TruncatedSeries.variable(law.ring, xyz, v, law.order) for v in xyz)
    images = {"x": law.apply(x, y), "y": z}
    assert_same(law.series.substitute_many(images), ref_substitute_many(law.series, images))


@pytest.mark.parametrize("n", range(1, 11))
def test_universal_law_log_reversion_and_inverse(n):
    law = universal_law(n)
    assert_same(law.series, ref_universal_series(n))
    assert_same(law.log, logarithm(law))
    assert_same(law.log, universal_log(n))
    assert_same(law.log.reversion(), ref_reversion(law.log))
    assert_same(formal_inverse(law), ref_formal_inverse(law))


@pytest.mark.parametrize("n", range(11))
@pytest.mark.parametrize("build", [additive_law, multiplicative_law, universal_law],
                         ids=lambda build: build.__name__)
def test_logarithm_equals_the_integrated_geometric_inverse(build, n):
    law = build(n)
    assert_same(logarithm(law), ref_logarithm(law))


def _specialized(law, ring, assignment, name):
    """The law with each coefficient sent through `substitute_generators`."""
    terms = {e: substitute_generators(c, ring, assignment) for e, c in law.series.terms.items()}
    return FormalGroupLaw(name, TruncatedSeries(ring, XY, law.order, terms))


@pytest.mark.parametrize("seed", range(3))
def test_logarithm_of_dense_specializations(seed):
    """m_i sent to random rational multiples of b^i, or to random elements of
    degree -i: the image laws have dense omega, unlike the built-in laws."""
    rng, law = random.Random(seed), universal_law(8)
    k0_q = K0_RING.rationalized()
    b = GradedRingElement.generator(k0_q, "b")
    scalars = {f"m_{i}": b ** i * Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for i in range(1, 8)}
    mixed = {f"m_{i}": random_homogeneous(rng, law.ring, -i) for i in range(1, 8)}
    for target in (_specialized(law, k0_q, scalars, "k0"),
                   _specialized(law, law.ring, mixed, "mixed")):
        assert_same(logarithm(target), ref_logarithm(target))


def _random_coefficient(rng, ring, degree):
    """Homogeneous of `degree`, or a random integer over the Chow ring."""
    if not ring.generators:
        return GradedRingElement.scalar(ring, rng.randint(-3, 3))
    return random_homogeneous(rng, ring, degree)


def _random_univariate(rng, ring, order):
    """x plus random coefficients, of degree 1 - k at x^k."""
    terms = {(1,): 1}
    for k in range(2, order + 1):
        terms[(k,)] = _random_coefficient(rng, ring, 1 - k)
    return TruncatedSeries(ring, ("x",), order, terms)


@pytest.mark.parametrize("theory", [chow(), k0(), universal(6)], ids=repr)
def test_random_reversions(theory):
    rng = random.Random(5)
    for order in (1, 2, 5, 8):
        for _ in range(6):
            s = _random_univariate(rng, theory.ring, order)
            assert_same(s.reversion(), ref_reversion(s))


def _random_series(rng, ring, variables, order, constant):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        expo = tuple(rng.randint(0, 3) for _ in variables)
        if constant or any(expo):
            terms[expo] = _random_coefficient(rng, ring, 1 - sum(expo))
    return TruncatedSeries(ring, variables, order, terms)


@pytest.mark.parametrize("theory", [chow(), k0(), universal(6)], ids=repr)
@pytest.mark.parametrize("targets", [XY, ("x", "y", "z"), ("t",)], ids="".join)
def test_random_two_variable_substitutions(theory, targets):
    rng = random.Random(9)
    ring = theory.ring
    for order in (0, 1, 3, 6):
        for _ in range(8):
            s = _random_series(rng, ring, XY, order, constant=True)
            images = {v: _random_series(rng, ring, targets, order, constant=False) for v in XY}
            assert_same(s.substitute_many(images), ref_substitute_many(s, images))


def test_substitution_with_rational_scalars():
    ring = universal_ring(4)
    x = TruncatedSeries.variable(ring, XY, "x", 5)
    y = TruncatedSeries.variable(ring, XY, "y", 5)
    m1 = GradedRingElement.generator(ring, "m_1")
    s = x + (x * y).scale(m1 * Fraction(1, 3)) - (y * y * x).scale(Fraction(2, 7))
    images = {"x": x + y.scale(m1), "y": x * y - y}
    assert_same(s.substitute_many(images), ref_substitute_many(s, images))


# The fused product against the element-by-element one it replaced: each
# pair of terms within the order multiplied as ring elements and added into
# its exponent.  Coefficients are homogeneous or not (the fallback path),
# over Chow, K0 with negative Laurent exponents and truncated universal rings
# whose pairs cross the degree bound, in one to three variables.


def ref_series_mul(a, b):
    """Each pair's ring product `c1 * c2`, added into its exponent."""
    acc = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            if sum(e1) + sum(e2) <= a.order:
                expo = tuple(i + j for i, j in zip(e1, e2))
                acc[expo] = acc[expo] + c1 * c2 if expo in acc else c1 * c2
    return TruncatedSeries(a.ring, a.variables, a.order, acc)


def _mixed_coefficient(rng, ring, degree):
    """Homogeneous of `degree`, or a sum of two degrees, or of random monomials."""
    kind = rng.randrange(3)
    if kind == 0 or not ring.generators:
        return _random_coefficient(rng, ring, degree)
    if kind == 1:
        return random_homogeneous(rng, ring, degree) + random_homogeneous(rng, ring, degree - 1)
    return random_element(rng, ring, -2, 3, terms=4)


def _random_mixed_series(rng, ring, variables, order):
    terms = {}
    for _ in range(rng.randint(0, 7)):
        expo = tuple(rng.randint(0, 3) for _ in variables)
        terms[expo] = _mixed_coefficient(rng, ring, rng.randint(-4, 1))
    return TruncatedSeries(ring, variables, order, terms)


def assert_same_with_degrees(got, want):
    """Equal terms, and every carried degree tuple is the one its terms give."""
    assert_same(got, want)
    for coeff in got.terms.values():
        assert coeff.degrees() == GradedRingElement(got.ring, coeff.terms).degrees()


@pytest.mark.parametrize("ring", [chow().ring, k0().ring, universal_ring(3), universal_ring(6)],
                         ids=lambda r: r.name)
@pytest.mark.parametrize("variables", [("x",), XY, ("x", "y", "z")], ids="".join)
def test_fused_product_equals_the_element_product(ring, variables):
    rng = random.Random(17)
    for order in (0, 2, 4, 7):
        for _ in range(12):
            a = _random_mixed_series(rng, ring, variables, order)
            b = _random_mixed_series(rng, ring, variables, order)
            assert_same_with_degrees(a * b, ref_series_mul(a, b))
            assert_same_with_degrees(a * a, ref_series_mul(a, a))
            value = _mixed_coefficient(rng, ring, rng.randint(-3, 0))
            constant = TruncatedSeries.constant(value, variables, order)
            assert_same_with_degrees(a.scale(value), ref_series_mul(a, constant))


def test_fused_product_drops_pairs_past_the_degree_bound():
    ring = universal_ring(4)
    m = [GradedRingElement.generator(ring, f"m_{i}") for i in range(1, 5)]
    x = TruncatedSeries.variable(ring, ("x",), "x", 6)
    deep = x.scale(m[3]) + (x * x).scale(m[2] + m[0] * m[1])  # degrees -4 and -3
    mixed = x.scale(m[0] + 1) + (x * x).scale(m[1])  # degrees -1 and 0, then -2
    for a, b in ((deep, deep), (deep, mixed), (mixed, deep), (mixed, mixed)):
        assert_same_with_degrees(a * b, ref_series_mul(a, b))
    assert (deep * deep).is_zero()


def test_a_series_product_exponent_out_of_its_field_is_one_line():
    half = 2 ** 30
    b = GradedRingElement.generator(k0().ring, "b", half // 2)
    x = TruncatedSeries.variable(k0().ring, ("x",), "x", 3)
    with pytest.raises(ValueError) as ring_error:
        b * b
    for series in (x.scale(b), x.scale(b) + x * x):
        with pytest.raises(ValueError) as info:
            series * series
        assert str(info.value) == str(ring_error.value)
        assert "\n" not in str(info.value) and "packed range" in str(info.value)
