"""Oriented theory instances and the free model of projective space.

A theory bundles a coefficient ring with its formal group law.  The law is
built the first time it is read: the twist decomposition and the graded
groups need only the ring, and only push-forward classes such as [P^n]
read the law.  By the projective bundle theorem the theory on
m-dimensional projective space is A(pt)[t]/(t^(m+1)), t the first Chern
class of the tautological line bundle, so an element is a
`series.TruncatedSeries` in t of order m, whose truncation imposes
t^(m+1) = 0.  Push-forward to the point sends t^i to the class of P^(m-i).
"""

from __future__ import annotations

from functools import lru_cache, partial

from .gring import (
    CHOW_RING,
    K0_RING,
    Frozen,
    GradedRingElement,
    RingDescriptor,
    RingMismatchError,
    universal_ring,
)

DEFAULT_ORDER = 10  # series order of the Chow and K0 laws
MAX_TRUNCATION = 4000  # the largest N a selector may ask of the universal theory


def _law(name: str, order: int):
    """`fgl.<name>(order)`, with `fgl` loaded and the name looked up only when a law is built."""
    from . import fgl

    return getattr(fgl, name)(order)


class OrientedTheory(Frozen):
    """A named coefficient ring together with its group law.

    `build(order)` makes the law over `ring`; `law` is built on first access
    and then kept in `_law`, with `_classes`, the point classes read from
    it.  Equality, hashing and `repr` use the name, the ring and the order,
    so they never build it.
    """

    __slots__ = ("name", "ring", "order", "build", "_law", "_classes")

    def __new__(cls, name: str, ring: RingDescriptor, order: int, build):
        return cls._new(name, ring, order, build, None, {})

    @property
    def law(self):
        if self._law is None:
            law = self.build(self.order)
            if law.ring != self.ring or law.order != self.order:
                raise ValueError(f"{self.name}: the built law has another ring or order")
            object.__setattr__(self, "_law", law)
        return self._law

    def __eq__(self, other):
        if not isinstance(other, OrientedTheory):
            return NotImplemented
        return (self.name, self.ring, self.order) == (other.name, other.ring, other.order)

    def __hash__(self):
        return hash((self.name, self.order))  # equal theories agree on these

    def __repr__(self):
        return f"<theory {self.name}>"

    def point_class(self, n: int) -> GradedRingElement:
        """The coefficient-ring class of n-dimensional projective space, kept
        beside this theory's own law: equal theories may build other laws."""
        classes = self._classes
        if n not in classes:
            from .fgl import projective_space_class

            classes[n] = projective_space_class(self.law, n)
        return classes[n]


@lru_cache(maxsize=None)
def chow(order: int = DEFAULT_ORDER) -> OrientedTheory:
    return OrientedTheory("chow", CHOW_RING, order, partial(_law, "additive_law"))


@lru_cache(maxsize=None)
def k0(order: int = DEFAULT_ORDER) -> OrientedTheory:
    return OrientedTheory("k0", K0_RING, order, partial(_law, "multiplicative_law"))


@lru_cache(maxsize=None)
def universal(n: int) -> OrientedTheory:
    return OrientedTheory(f"universal:{n}", universal_ring(n), n, partial(_law, "universal_law"))


def theory_from_selector(selector: str, truncation: int | None = None) -> OrientedTheory:
    """Build a theory from a CLI selector: chow, k0, or universal:N with N at
    most MAX_TRUNCATION (:func:`universal` itself takes any N)."""
    if selector in ("chow", "k0"):
        if truncation is not None:
            raise ValueError("truncation only applies to the universal theory")
        return chow() if selector == "chow" else k0()
    head, colon, bound = selector.partition(":")
    if head != "universal":
        raise ValueError(f"unknown theory selector {selector!r}")
    if colon:
        try:
            n = int(bound)
        except ValueError:
            n = 0
        if n < 1:
            raise ValueError(f"bad theory selector {selector!r}: N must be an integer >= 1")
        if truncation is not None and truncation != n:
            raise ValueError("conflicting truncation bounds for the universal theory")
    elif truncation is None:
        raise ValueError("the universal theory needs a truncation bound "
                         "(universal:N, --truncation, or MOTIVEC_TRUNCATION)")
    elif truncation < 1:
        raise ValueError(f"the universal theory needs a truncation bound >= 1, got {truncation}")
    else:
        n = truncation
    if n > MAX_TRUNCATION:
        raise ValueError(f"universal truncation {n} is more than the {MAX_TRUNCATION} allowed")
    return universal(n)


class ProjectiveSpaceElement(Frozen):
    """An element sum a_i t^i of the theory on P^m: `series`, in t of order m,
    truncated at t^(m+1) = 0, does its arithmetic and refuses a foreign factor."""

    __slots__ = ("theory", "m", "series")

    def __new__(cls, theory: OrientedTheory, m: int, coords):
        from . import series  # loaded by the first element, never by a CLI answer

        coords, ring = tuple(coords), theory.ring
        if m < 0 or len(coords) != m + 1:
            raise ValueError(f"need {m + 1} coordinates for P^{m}, got {len(coords)}")
        terms = {}
        for i, a in enumerate(coords):
            if not isinstance(a, GradedRingElement):
                a = GradedRingElement.scalar(ring, a)
            if a.ring is not ring and a.ring != ring:
                raise RingMismatchError("coordinate over the wrong coefficient ring")
            if a._mono:
                terms[(i,)] = a
        return cls._new(theory, m, series._series(ring, ("t",), m, terms))

    def _with(self, series) -> "ProjectiveSpaceElement":
        """The element of the same P^m with the given series in t."""
        return ProjectiveSpaceElement._new(self.theory, self.m, series)

    @property
    def coords(self) -> tuple:
        """The coefficients a_0, ..., a_m, zeros included."""
        return tuple(self.series.coefficient((i,)) for i in range(self.m + 1))

    @classmethod
    def hyperplane_power(cls, theory: OrientedTheory, m: int, i: int) -> "ProjectiveSpaceElement":
        """The basis element t^i (zero when i > m)."""
        return cls(theory, m, [int(j == i) for j in range(m + 1)])

    @classmethod
    def pullback(cls, theory: OrientedTheory, m: int, value: GradedRingElement) -> "ProjectiveSpaceElement":
        """The image of a coefficient-ring element under the structural pull-back."""
        return cls(theory, m, [value] + [GradedRingElement.zero(theory.ring)] * m)

    def _check(self, other: "ProjectiveSpaceElement"):
        if self.theory != other.theory or self.m != other.m:
            raise RingMismatchError("elements live on different projective spaces")

    def __add__(self, other):
        if not isinstance(other, ProjectiveSpaceElement):
            return NotImplemented
        self._check(other)
        return self._with(self.series + other.series)

    def __neg__(self):
        return self._with(-self.series)

    def __sub__(self, other):
        if not isinstance(other, ProjectiveSpaceElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """Product in the truncated polynomial model: t^(m+1) = 0."""
        if isinstance(other, GradedRingElement):
            return self.scale(other)
        if not isinstance(other, ProjectiveSpaceElement):
            return NotImplemented
        self._check(other)
        return self._with(self.series * other.series)

    def scale(self, value: GradedRingElement) -> "ProjectiveSpaceElement":
        return self._with(self.series.scale(value))

    def __eq__(self, other):
        if not isinstance(other, ProjectiveSpaceElement):
            return NotImplemented
        return self.theory == other.theory and self.series == other.series

    def __hash__(self):
        return hash((self.theory, self.series))

    def is_homogeneous(self, degree: int) -> bool:
        """Whether every coordinate a_i is homogeneous of degree (degree - i)."""
        return self.series.is_homogeneous_of_degree(degree)

    def pushforward_to_point(self) -> GradedRingElement:
        """sum a_i * [P^(m-i)]; lowers homogeneous degree by m."""
        total, point_class = GradedRingElement.zero(self.theory.ring), self.theory.point_class
        for (i,), a in self.series.terms.items():
            total = total + a * point_class(self.m - i)
        return total

    def __repr__(self):
        body = " + ".join(f"({a})*t^{i}" for i, a in enumerate(self.coords) if not a.is_zero())
        return f"<P^{self.m} element: {body or '0'}>"


def projection_formula_holds(
    alpha: ProjectiveSpaceElement, beta: GradedRingElement
) -> bool:
    """Push-forward of alpha * pullback(beta) equals pushforward(alpha) * beta."""
    theory, m = alpha.theory, alpha.m
    lhs = (alpha * ProjectiveSpaceElement.pullback(theory, m, beta)).pushforward_to_point()
    rhs = alpha.pushforward_to_point() * beta
    return lhs == rhs
