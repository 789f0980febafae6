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
    Frozen,
    GradedRingElement,
    TruncationError,
    convert_element,
    universal_ring,
)
from .series import TruncatedSeries, _series, solve_by_order

_XY = ("x", "y")


class FormalGroupLaw(Frozen):
    """A commutative one-dimensional formal group law, truncated.

    A law of order >= 1 must start x + y, which every order-by-order solve
    relies on.  `log`, the law's :func:`logarithm`, is kept in `_log`:
    given when the law is built from a known logarithm, and otherwise
    computed on first access.
    """

    __slots__ = ("name", "ring", "series", "_log")

    def __new__(cls, name: str, series: TruncatedSeries, log: TruncatedSeries | None = None):
        if series.variables != _XY:
            raise ValueError("a formal group law lives in variables (x, y)")
        zero, one = GradedRingElement.zero(series.ring), GradedRingElement.one(series.ring)
        linear = [series.coefficient(e) for e in ((0, 0), (1, 0), (0, 1))]
        if series.order and linear != [zero, one, one]:
            raise ValueError(f"{name}: a formal group law starts x + y")
        return cls._new(name, series.ring, series, log)

    @property
    def log(self) -> TruncatedSeries:
        if self._log is None:
            object.__setattr__(self, "_log", logarithm(self))
        return self._log

    @property
    def order(self) -> int:
        return self.series.order

    def apply(self, s: TruncatedSeries, t: TruncatedSeries) -> TruncatedSeries:
        """Evaluate F(s, t) by simultaneous substitution."""
        return self.series.substitute_many({"x": s, "y": t})

    def __repr__(self):
        return f"<fgl {self.name} over {self.ring.name} to order {self.order}>"


def additive_law(order: int) -> FormalGroupLaw:
    """F = x + y over the degree-0 integer ring."""
    x = TruncatedSeries.variable(CHOW_RING, _XY, "x", order)
    y = TruncatedSeries.variable(CHOW_RING, _XY, "y", order)
    return FormalGroupLaw("additive", x + y)


def multiplicative_law(order: int) -> FormalGroupLaw:
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
    return TruncatedSeries(ring, ("x",), order, terms)


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

    From the invariant differential, l'(x) = 1 / omega(x) with omega(x) =
    dF/dy at y = 0: s = x / omega(x) solves s * omega(x) = x, and l has
    x^k coefficient s_k / k.  The result lives over the rationalized
    coefficient ring.
    """
    ring_q = law.ring.rationalized()
    x = TruncatedSeries.variable(ring_q, ("x",), "x", law.order)
    omega = {(i, 1): convert_element(c, ring_q) for (i, j), c in law.series.terms.items() if j == 1}
    terms = {(k,): c * Fraction(1, k) for (k,), c in solve_by_order(x, omega).terms.items()}
    return _series(ring_q, ("x",), law.order, terms)


def exponential(law: FormalGroupLaw) -> TruncatedSeries:
    """The compositional inverse of the logarithm."""
    return law.log.reversion()


def formal_inverse(law: FormalGroupLaw) -> TruncatedSeries:
    """The series i(x) with F(x, i(x)) = 0, over the law's own ring."""
    start = -TruncatedSeries.variable(law.ring, ("x",), "x", law.order)
    return solve_by_order(start, law.series.terms)


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
