"""Each refusal that no other test reaches, with its exact type and text:
one table per module, each row a call and the error it must raise."""

from motivec.fgl import FormalGroupLaw, additive_law, check_fgl_axioms, projective_space_class
from motivec.gring import CHOW_RING, K0_RING, GradedRingElement, RingMismatchError, universal_ring
from motivec.motives import (
    TateMotive,
    compose,
    identity_correspondence,
    projective_bundle_projectors,
    tensor_product,
    zero_correspondence,
)
from motivec.series import TruncatedSeries
from motivec.theory import OrientedTheory, chow, k0

U2 = universal_ring(2)


def refusal(make):
    try:
        make()
    except Exception as exc:
        return type(exc), str(exc)
    return None


def check(cases):
    assert [refusal(make) for make, _, _ in cases] == [(kind, text) for _, kind, text in cases]


def xy(ring=CHOW_RING, order=3):
    return (TruncatedSeries.variable(ring, ("x", "y"), v, order) for v in ("x", "y"))


def x1(ring=CHOW_RING, order=3):
    return TruncatedSeries.variable(ring, ("x",), "x", order)


def law(name, build, order=3):
    x, y = xy(order=order)
    return FormalGroupLaw(name, build(x, y))


def test_fgl_refusals():
    check([
        (lambda: FormalGroupLaw("f", x1()), ValueError,
         "a formal group law lives in variables (x, y)"),
        (lambda: law("bad", lambda x, y: 2 * x + y), ValueError,
         "bad: a formal group law starts x + y"),
        (lambda: law("2y", lambda x, y: x + 2 * y), ValueError,
         "2y: a formal group law starts x + y"),
        (lambda: check_fgl_axioms(law("unit", lambda x, y: x + y + x * x)), AssertionError,
         "unit: F(x,0) = x fails"),
        (lambda: check_fgl_axioms(law("swap", lambda x, y: x + y + x * x * y)), AssertionError,
         "swap: commutativity fails"),
        (lambda: check_fgl_axioms(law("assoc", lambda x, y: x + y + x * y + x * y * (x + y), 4)),
         AssertionError, "assoc: associativity fails"),
        (lambda: check_fgl_axioms(law("grade", lambda x, y: x + y + x * y)), AssertionError,
         "grade: coefficient grading fails"),
        (lambda: projective_space_class(additive_law(3), -1), ValueError,
         "dimension must be >= 0"),
    ])


def test_gring_refusals():
    m1, m2 = (GradedRingElement.generator(U2, s) for s in ("m_1", "m_2"))
    b = GradedRingElement.generator(K0_RING, "b")
    check([
        (lambda: universal_ring(-1), ValueError, "universal ring size must be >= 0"),
        (lambda: GradedRingElement.scalar(CHOW_RING, 1.5), TypeError,
         "scalar must be int or Fraction, got float"),
        (lambda: GradedRingElement(K0_RING, {(1, 2): 1}), ValueError,
         "exponent vector (1, 2) has wrong width for ring 'k0'"),
        (lambda: GradedRingElement(U2, {(-1, 0): 1}), ValueError,
         "negative exponent on non-invertible m_1"),
        (lambda: (m1 + m2).degree(), ValueError,
         "element is not nonzero homogeneous: degrees [-2, -1]"),
        (lambda: (b + 1) ** -1, ValueError, "only single-term unit monomials are invertible"),
        (lambda: m1 ** -1, ValueError, "generator m_1 is not invertible"),
        (lambda: (b * 2) ** -1, ValueError, "scalar 2 is not a unit over Z"),
    ])


def test_motives_refusals():
    a, b = TateMotive((0,)), TateMotive((0, 1))
    over_chow, over_k0 = identity_correspondence(chow(), a), identity_correspondence(k0(), a)
    check([
        (lambda: zero_correspondence(chow(), a, a) + zero_correspondence(chow(), a, b),
         ValueError, "can only add morphisms of identical shape and degree"),
        (lambda: compose(over_chow, over_k0), RingMismatchError,
         "morphisms over different theories"),
        (lambda: tensor_product(over_chow, over_k0), RingMismatchError,
         "morphisms over different theories"),
        (lambda: projective_bundle_projectors(chow(), a, 0), ValueError,
         "bundle rank must be >= 1"),
    ])


def test_series_refusals():
    x, x_k0, x_u = x1(), x1(K0_RING), x1(U2, 2)
    one = GradedRingElement.one(CHOW_RING)
    check([
        (lambda: TruncatedSeries(CHOW_RING, ("x",), -1, {}), ValueError, "order must be >= 0"),
        (lambda: TruncatedSeries(CHOW_RING, ("x",), 3, {(1,): GradedRingElement.one(K0_RING)}),
         RingMismatchError, "coefficient ring mismatch"),
        (lambda: x + x_k0, RingMismatchError, "series over different rings"),
        (lambda: x + x1(order=2), ValueError, "series with different variables or orders"),
        (lambda: TruncatedSeries.constant(one, (), 3).substitute_many({}), ValueError,
         "series has no variables to substitute"),
        (lambda: x.substitute_many({}), ValueError, "no image given for variables ['x']"),
        (lambda: x.substitute_many({"x": x_k0}), RingMismatchError,
         "substitution images over a different ring"),
        (lambda: x.substitute("y", x), ValueError, "series has no variable 'y'"),
        (lambda: next(xy()).reversion(), ValueError,
         "operation requires a single-variable series"),
        (lambda: (x_u + TruncatedSeries.constant(GradedRingElement.one(U2), ("x",), 2)).reversion(),
         ValueError, "reversion requires zero constant term"),
    ])


def test_theory_refusals():
    wrong = OrientedTheory("wrong", CHOW_RING, 3, lambda order: additive_law(order + 1))
    check([
        (lambda: wrong.law, ValueError, "wrong: the built law has another ring or order"),
    ])

