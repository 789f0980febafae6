"""Formal group laws over the coefficient rings, with log/exp machinery.

A law is a bivariate truncated series F(x, y) with F(x,0) = x, symmetric
and associative to the working order, whose x^i y^j coefficient sits in
ring degree 1 - i - j.  The additive, multiplicative and universal laws
are provided, along with the logarithm, the formal inverse, and the
projective-space classes derived from the logarithm coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from .gring import (
    CHOW_RING,
    K0_RING,
    GradedRingElement,
    TruncationError,
    convert_element,
    universal_ring,
)
from .series import TruncatedSeries, _series, solve_by_order
from .theory import DEFAULT_ORDER

_XY = ("x", "y")


class FormalGroupLaw:
    """A commutative one-dimensional formal group law, truncated.

    `log`, the law's :func:`logarithm`, is given when the law is built
    from a known logarithm, and otherwise computed on first access and
    then stored.
    """

    __slots__ = ("name", "ring", "series", "log")

    def __init__(self, name: str, series: TruncatedSeries, log: TruncatedSeries | None = None):
        if series.variables != _XY:
            raise ValueError("a formal group law lives in variables (x, y)")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ring", series.ring)
        object.__setattr__(self, "series", series)
        if log is not None:
            object.__setattr__(self, "log", log)

    def __getattr__(self, name):
        # only reached while the `log` slot is still empty
        if name != "log":
            raise AttributeError(name)
        log = logarithm(self)
        object.__setattr__(self, "log", log)
        return log

    def __setattr__(self, name, value):
        raise AttributeError("FormalGroupLaw is immutable")

    @property
    def order(self) -> int:
        return self.series.order

    def coefficient(self, i: int, j: int) -> GradedRingElement:
        return self.series.coefficient((i, j))

    def apply(self, s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
        """Evaluate F(s, t) by simultaneous substitution."""
        return self.series.substitute_many({"x": s, "y": t})

    def __repr__(self):
        return f"<fgl {self.name} over {self.ring.name} to order {self.order}>"


def additive_law(order: int = DEFAULT_ORDER) -> FormalGroupLaw:
    """F = x + y over the degree-0 integer ring."""
    x = TruncatedSeries.variable(CHOW_RING, _XY, "x", order)
    y = TruncatedSeries.variable(CHOW_RING, _XY, "y", order)
    return FormalGroupLaw("additive", x + y)


def multiplicative_law(order: int = DEFAULT_ORDER) -> FormalGroupLaw:
    """F = x + y - b*x*y over the Laurent ring with deg(b) = -1."""
    x = TruncatedSeries.variable(K0_RING, _XY, "x", order)
    y = TruncatedSeries.variable(K0_RING, _XY, "y", order)
    b = GradedRingElement.generator(K0_RING, "b")
    return FormalGroupLaw("multiplicative", x + y - (x * y).scale(b))


def universal_law(order: int) -> FormalGroupLaw:
    """exp(log(x) + log(y)) with log(x) = x + sum m_i x^(i+1)."""
    ring = universal_ring(order)
    log = universal_log(order)
    exp = log.reversion()
    log_y = _series(ring, ("y",), order, log.terms).lift(_XY)
    f = exp.substitute("x", log.lift(_XY) + log_y)
    return FormalGroupLaw(f"universal({order})", f, log)


def universal_log(order: int) -> TruncatedSeries:
    """x + sum m_i x^(i+1) over universal_ring(order): the universal law's logarithm."""
    ring = universal_ring(order)
    terms = {(1,): GradedRingElement.one(ring)}
    for i in range(1, order):
        terms[(i + 1,)] = GradedRingElement.generator(ring, f"m_{i}")
    return TruncatedSeries.from_terms(ring, ("x",), order, terms)


def check_fgl_axioms(law: FormalGroupLaw) -> None:
    """Raise if unit, symmetry, associativity or homogeneity fails."""
    f = law.series
    ring, order = law.ring, law.order
    x1 = TruncatedSeries.variable(ring, ("x",), "x", order)
    zero1 = TruncatedSeries.zero(ring, ("x",), order)
    if law.apply(x1, zero1) != x1 or law.apply(zero1, x1) != x1:
        raise AssertionError(f"{law.name}: F(x,0) = x fails")
    swapped = _series(ring, _XY, order, {(j, i): c for (i, j), c in f.terms.items()})
    if swapped != f:
        raise AssertionError(f"{law.name}: commutativity fails")
    xyz = ("x", "y", "z")
    x3 = TruncatedSeries.variable(ring, xyz, "x", order)
    y3 = TruncatedSeries.variable(ring, xyz, "y", order)
    z3 = TruncatedSeries.variable(ring, xyz, "z", order)
    if law.apply(law.apply(x3, y3), z3) != law.apply(x3, law.apply(y3, z3)):
        raise AssertionError(f"{law.name}: associativity fails")
    if not f.is_homogeneous_of_degree(1):
        raise AssertionError(f"{law.name}: coefficient grading fails")


def logarithm(law: FormalGroupLaw) -> TruncatedSeries:
    """The unique l = x + higher with l(F(x,y)) = l(x) + l(y).

    Computed from the invariant differential: l'(x) = 1 / (dF/dy at y=0).
    The result lives over the rationalized coefficient ring.
    """
    ring_q = law.ring.rationalized()
    order = law.order
    omega_terms = {}
    for (i, j), coeff in law.series.terms.items():
        if j == 1:
            omega_terms[(i,)] = convert_element(coeff, ring_q)
    omega = TruncatedSeries.from_terms(ring_q, ("x",), order, omega_terms)
    return omega.multiplicative_inverse().integrate()


def exponential(law: FormalGroupLaw) -> TruncatedSeries:
    """The compositional inverse of the logarithm."""
    return law.log.reversion()


def formal_inverse(law: FormalGroupLaw) -> TruncatedSeries:
    """The series i(x) with F(x, i(x)) = 0, over the law's own ring."""
    ring = law.ring

    def defect(s, k):  # F(x, s) at order k
        images = {"x": TruncatedSeries.variable(ring, ("x",), "x", k), "y": s}
        return law.series.truncated(k).substitute_many(images)

    return solve_by_order(-TruncatedSeries.variable(ring, ("x",), "x", law.order), defect)


def projective_space_class(law: FormalGroupLaw, n: int) -> GradedRingElement:
    """The degree -n coefficient-ring class attached to n-dimensional
    projective space: (n+1) times the x^(n+1) logarithm coefficient."""
    if n < 0:
        raise ValueError("dimension must be >= 0")
    if n == 0:
        return GradedRingElement.one(law.ring)
    if n + 1 > law.order:
        raise TruncationError(
            f"class of P^{n} needs series order {n + 1} > {law.order}"
        )
    coeff = law.log.coefficient((n + 1,))
    value = coeff * Fraction(n + 1)
    return convert_element(value, law.ring)
