import random
from fractions import Fraction

import pytest

from motivec.gring import CHOW_RING, K0_RING, GradedRingElement, RingMismatchError, universal_ring
from motivec.series import SubstitutionError, TruncatedSeries, parse_series, render_series

QQ = universal_ring(0)  # plain rationals, no generators


def var(ring, variables, name, order=6):
    return TruncatedSeries.variable(ring, variables, name, order)


def test_substitute_square_of_sum():
    x = var(CHOW_RING, ("x",), "x")
    xy_x = var(CHOW_RING, ("x", "y"), "x")
    xy_y = var(CHOW_RING, ("x", "y"), "y")
    got = (x * x).substitute("x", xy_x + xy_y)
    want = xy_x * xy_x + 2 * (xy_x * xy_y) + xy_y * xy_y
    assert got == want


def test_substitute_one_variable_of_two_keeps_the_other():
    x, y = (var(CHOW_RING, ("x", "y"), v) for v in "xy")
    got = (x * y).substitute("x", x + y)
    assert got == y * y + x * y and str(got) == "y^2 + x*y"
    with pytest.raises(ValueError, match="^variable 'y' is absent from the substitution target$"):
        (x * y).substitute("x", var(CHOW_RING, ("x",), "x"))


def test_substitute_zero():
    x = var(CHOW_RING, ("x",), "x")
    zero = TruncatedSeries.zero(CHOW_RING, ("x",), 6)
    assert x.substitute("x", zero).is_zero()


def test_truncation_drops_high_terms():
    b = GradedRingElement.generator(K0_RING, "b")
    x = var(K0_RING, ("x",), "x", order=2)
    s = x + (x * x).scale(b)
    prod = s * x
    assert prod == x * x  # the b*x^3 term falls off the order-2 window


def test_substitution_requires_zero_constant():
    x = var(CHOW_RING, ("x",), "x")
    one = TruncatedSeries.constant(GradedRingElement.one(CHOW_RING), ("x",), 6)
    with pytest.raises(SubstitutionError):
        x.substitute("x", x + one)


def test_reversion_identity():
    x = var(QQ, ("x",), "x")
    assert x.reversion() == x


def test_reversion_of_x_plus_x2_catalan():
    order = 8
    x = var(QQ, ("x",), "x", order)
    s = x + x * x
    g = s.reversion()
    # back-substitution oracle: s(g(x)) and g(s(x)) are both x
    assert s.substitute("x", g) == x
    assert g.substitute("x", s) == x
    # leading signed Catalan numbers
    coeffs = [g.coefficient((k,)) for k in range(1, 6)]
    assert coeffs == [1, -1, 2, -5, 14]


def test_reversion_is_an_involution():
    rng = random.Random(2)
    order = 7
    x = var(QQ, ("x",), "x", order)
    for _ in range(10):
        s = x
        for k in range(2, order + 1):
            c = rng.randint(-3, 3)
            if c:
                s = s + TruncatedSeries(
                    QQ, ("x",), order, {(k,): Fraction(c)}
                )
        assert s.reversion().reversion() == s


def test_reversion_rejects_bad_linear_term():
    order = 5
    two_x = TruncatedSeries(QQ, ("x",), order, {(1,): Fraction(2)})
    with pytest.raises(ValueError, match="linear coefficient"):
        two_x.reversion()


def test_multiplicative_inverse():
    order = 6
    b = GradedRingElement.generator(K0_RING, "b")
    x = var(K0_RING, ("x",), "x", order)
    one = TruncatedSeries.constant(GradedRingElement.one(K0_RING), ("x",), order)
    s = one - x.scale(b)
    inv = s.multiplicative_inverse()
    assert s * inv == one
    assert inv.coefficient((3,)) == b * b * b


def test_integrate_divides_exactly():
    order = 5
    x = var(QQ, ("x",), "x", order)
    integrated = (x * x).integrate()
    assert integrated.coefficient((3,)) == Fraction(1, 3)


def test_homogeneity_check():
    order = 4
    ring = universal_ring(4)
    x = var(ring, ("x", "y"), "x", order)
    y = var(ring, ("x", "y"), "y", order)
    m1 = GradedRingElement.generator(ring, "m_1")
    s = x + y + (x * y).scale(m1)  # coefficient of xy has degree -1 = 1 - 2
    assert s.is_homogeneous_of_degree(1)
    bad = x + (x * y).scale(GradedRingElement.one(ring))
    assert not bad.is_homogeneous_of_degree(1)


def test_render_parse_round_trip():
    ring = universal_ring(3)
    order = 4
    x = var(ring, ("x", "y"), "x", order)
    y = var(ring, ("x", "y"), "y", order)
    m1 = GradedRingElement.generator(ring, "m_1")
    m2 = GradedRingElement.generator(ring, "m_2")
    s = x + y - (x * y).scale(2 * m1) + (x * x * y).scale(m2 + m1 * m1)
    text = render_series(s)
    assert parse_series(ring, ("x", "y"), order, text) == s


def test_parentheses_nest_to_any_depth_in_series_text():
    ring = universal_ring(2)
    text = "(" * 1000 + "x" + ")" * 1000
    assert parse_series(ring, ("x",), 3, text) == var(ring, ("x",), "x", 3)


def test_render_series_brackets_a_sum_coefficient_and_subtracts_a_negative_term():
    s = parse_series(universal_ring(3), ("x",), 3, "(m_1 + m_2) - x + m_1*x^2")
    assert render_series(s) == "(m_2 + m_1) - x + m_1*x^2"
    for text, rendered in [
        ("-x - 2*x^2 + (m_1 - 1)*x^3", "-x - 2*x^2 + (m_1 - 1)*x^3"),
        ("-(m_2 + m_1) + m_1*x", "(-m_2 - m_1) + m_1*x"),
    ]:
        assert render_series(parse_series(universal_ring(3), ("x",), 3, text)) == rendered
    assert repr(parse_series(K0_RING, ("x",), 2, "b^-1*x - x^2")) == "<series[x]<= 2: b^-1*x - x^2>"


def test_lift_keeps_coefficients():
    x = var(CHOW_RING, ("x",), "x")
    lifted = x.lift(("x", "y"))
    assert lifted == var(CHOW_RING, ("x", "y"), "x")


def test_constructor_checks_its_terms():
    one, zero = GradedRingElement.one(CHOW_RING), GradedRingElement.zero(CHOW_RING)
    past = TruncatedSeries(CHOW_RING, ("x",), 2, {(5,): one})
    assert past.is_zero() and str(past) == "0"
    assert TruncatedSeries(CHOW_RING, ("x",), 2, {(1,): zero}).is_zero()
    terms = {(1,): one, (2,): 3, (0,): 0}
    series = TruncatedSeries(CHOW_RING, ["x"], 2, terms)
    assert series == TruncatedSeries(CHOW_RING, ("x",), 2, terms)
    assert str(series) == "x + 3*x^2" and series.variables == ("x",)
    with pytest.raises(ValueError, match="^bad variable exponent vector"):
        TruncatedSeries(CHOW_RING, ("x",), 2, {(1, 1): one})


def test_scaling_by_an_element_of_another_ring_is_refused():
    x = TruncatedSeries.variable(K0_RING, ("x",), "x", 3)
    zero = TruncatedSeries.zero(K0_RING, ("x",), 3)
    for value in (GradedRingElement.one(CHOW_RING), GradedRingElement.generator(universal_ring(2), "m_1")):
        for scaled in (lambda: x.scale(value), lambda: x * value,
                       lambda: zero.scale(value), lambda: zero * value):  # refused with no terms too
            with pytest.raises(RingMismatchError) as info:
                scaled()
            assert str(info.value) == f"cannot combine elements of 'k0' and '{value.ring.name}'"
