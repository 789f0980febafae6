from fractions import Fraction

import pytest

from motivec.fgl import (
    additive_law,
    check_fgl_axioms,
    exponential,
    formal_inverse,
    logarithm,
    multiplicative_law,
    projective_space_class,
    universal_law,
)
from motivec.gring import (
    CHOW_RING,
    K0_RING,
    GradedRingElement,
    TruncationError,
    convert_element,
    substitute_generators,
)
from motivec.series import TruncatedSeries

from oracles import multiplicative_pn_classes, solve_log

ORDER = 8


@pytest.fixture(scope="module")
def laws():
    return additive_law(ORDER), multiplicative_law(ORDER), universal_law(ORDER)


def test_axioms_hold_for_all_builtins(laws):
    for law in laws:
        check_fgl_axioms(law)


def test_additive_xy_coefficient_vanishes(laws):
    additive, _, _ = laws
    assert additive.series.coefficient((1, 1)).is_zero()


def test_multiplicative_xy_coefficient(laws):
    _, multiplicative, _ = laws
    b = GradedRingElement.generator(K0_RING, "b")
    assert multiplicative.series.coefficient((1, 1)) == -b


def test_universal_xy_coefficient():
    law = universal_law(3)
    m1 = GradedRingElement.generator(law.ring, "m_1")
    assert law.series.coefficient((1, 1)) == -2 * m1


def test_log_additive_is_x(laws):
    additive, _, _ = laws
    log = logarithm(additive)
    x = TruncatedSeries.variable(log.ring, ("x",), "x", ORDER)
    assert log == x


def test_log_multiplicative_matches_functional_equation_oracle(laws):
    _, multiplicative, _ = laws
    log = logarithm(multiplicative)
    oracle = solve_log(
        {(1, 0): {0: Fraction(1)}, (0, 1): {0: Fraction(1)}, (1, 1): {1: Fraction(-1)}},
        ORDER,
    )
    for k in range(1, ORDER + 1):
        got = log.coefficient((k,))
        got_map = {mono[0]: Fraction(coeff) for mono, coeff in got.terms.items()}
        want_map = {u: c for u, c in oracle.get(k, {}).items() if c}
        assert got_map == want_map


def test_log_universal_is_the_defining_series():
    law = universal_law(5)
    log = logarithm(law)
    expected = {(1,): GradedRingElement.one(law.ring)}
    for i in range(1, 5):
        expected[(i + 1,)] = GradedRingElement.generator(law.ring, f"m_{i}")
    assert log == TruncatedSeries(law.ring, ("x",), 5, expected)


@pytest.mark.parametrize("build", [additive_law, multiplicative_law, universal_law],
                         ids=lambda build: build.__name__)
def test_order_zero_logarithm_and_exponential_are_zero(build):
    law = build(0)
    log = logarithm(law)
    assert log == TruncatedSeries.zero(law.ring.rationalized(), ("x",), 0)
    assert exponential(law).is_zero()


def test_log_satisfies_functional_equation(laws):
    for law in laws:
        log = logarithm(law)
        ring_q = log.ring
        f_q = TruncatedSeries(
            ring_q,
            ("x", "y"),
            law.order,
            {e: convert_element(c, ring_q) for e, c in law.series.terms.items()},
        )
        lhs = log.substitute("x", f_q)
        x = TruncatedSeries.variable(ring_q, ("x", "y"), "x", law.order)
        y = TruncatedSeries.variable(ring_q, ("x", "y"), "y", law.order)
        rhs = log.substitute("x", x) + log.substitute("x", y)
        assert lhs == rhs


def test_exp_log_round_trip(laws):
    for law in laws:
        log = logarithm(law)
        exp = exponential(law)
        x = TruncatedSeries.variable(log.ring, ("x",), "x", law.order)
        assert log.substitute("x", exp) == x
        assert exp.substitute("x", log) == x


def test_formal_inverse_additive(laws):
    additive, _, _ = laws
    x = TruncatedSeries.variable(CHOW_RING, ("x",), "x", ORDER)
    assert formal_inverse(additive) == -x


def test_formal_inverse_multiplicative_geometric(laws):
    _, multiplicative, _ = laws
    inv = formal_inverse(multiplicative)
    b = GradedRingElement.generator(K0_RING, "b")
    for k in range(1, ORDER + 1):
        assert inv.coefficient((k,)) == -(b ** (k - 1))


def test_formal_inverse_defining_property(laws):
    for law in laws:
        inv = formal_inverse(law)
        x = TruncatedSeries.variable(law.ring, ("x",), "x", law.order)
        assert law.apply(x, inv).is_zero()


def test_pn_class_additive(laws):
    additive, _, _ = laws
    assert projective_space_class(additive, 0) == GradedRingElement.one(CHOW_RING)
    for n in range(1, ORDER - 1):
        assert projective_space_class(additive, n).is_zero()


def test_pn_class_multiplicative_oracle(laws):
    _, multiplicative, _ = laws
    oracle = multiplicative_pn_classes(ORDER - 1, ORDER)
    b = GradedRingElement.generator(K0_RING, "b")
    for n in range(0, ORDER - 1):
        got = projective_space_class(multiplicative, n)
        assert got == b ** n
        got_map = {mono[0]: Fraction(coeff) for mono, coeff in got.terms.items()}
        want_map = {u: c for u, c in oracle[n].items() if c}
        assert got_map == want_map


def test_pn_class_universal(laws):
    _, _, law = laws
    m1 = GradedRingElement.generator(law.ring, "m_1")
    m2 = GradedRingElement.generator(law.ring, "m_2")
    assert projective_space_class(law, 1) == 2 * m1
    assert projective_space_class(law, 2) == 3 * m2
    for n in range(0, ORDER - 1):
        cls = projective_space_class(law, n)
        assert cls.is_homogeneous(-n)


def test_pn_class_truncation_bound(laws):
    _, multiplicative, _ = laws
    with pytest.raises(TruncationError):
        projective_space_class(multiplicative, ORDER)


def test_universal_specializes_to_additive():
    law = universal_law(5)
    chow_q = CHOW_RING.rationalized()
    zero = GradedRingElement.zero(chow_q)
    killed = {
        e: substitute_generators(c, chow_q, {f"m_{i}": zero for i in range(1, 6)})
        for e, c in law.series.terms.items()
    }
    specialized = TruncatedSeries(chow_q, ("x", "y"), 5, killed)
    additive = additive_law(5)
    additive_q = TruncatedSeries(
        chow_q,
        ("x", "y"),
        5,
        {e: convert_element(c, chow_q) for e, c in additive.series.terms.items()},
    )
    assert specialized == additive_q


def test_universal_log_specializes_to_multiplicative_log():
    order = 6
    law = universal_law(order)
    k0_q = K0_RING.rationalized()
    b = GradedRingElement.generator(k0_q, "b")
    assignment = {
        f"m_{i}": (b ** i) * Fraction(1, i + 1) for i in range(1, order)
    }
    log_u = logarithm(law)
    mapped = {
        e: substitute_generators(c, k0_q, assignment) for e, c in log_u.terms.items()
    }
    specialized = TruncatedSeries(k0_q, ("x",), order, mapped)
    log_m = logarithm(multiplicative_law(order))
    assert specialized == log_m
