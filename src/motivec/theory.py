"""Oriented theory instances and the free model of projective space.

A theory bundles a coefficient ring with its formal group law.  The law is
built the first time it is read: the twist decomposition and the graded
groups need only the ring, and only push-forward classes such as [P^n]
read the law.  Elements of the rank-(m+1) free module over the coefficient
ring model the theory on m-dimensional projective space with basis
1, t, ..., t^m where t is the first Chern class of the tautological line
bundle; t^(m+1) = 0 is imposed.  Push-forward to the point sends t^i to
the class of P^(m-i).
"""

from __future__ import annotations

from functools import lru_cache

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


# The laws live in `fgl`, loaded on the first build.  These names are looked
# up when a theory is made, so a caller may replace them.
def additive_law(order: int):
    from .fgl import additive_law

    return additive_law(order)


def multiplicative_law(order: int):
    from .fgl import multiplicative_law

    return multiplicative_law(order)


def universal_law(order: int):
    from .fgl import universal_law

    return universal_law(order)


class OrientedTheory(Frozen):
    """A named coefficient ring together with its group law.

    `build(order)` makes the law over `ring`; `law` is built on first access
    and then stored.  Equality, hashing and `repr` use the name, the ring
    and the order, so they never build it.
    """

    __slots__ = ("name", "ring", "order", "build", "law")
    _lazy = {"law": "_build_law"}

    def __init__(self, name: str, ring: RingDescriptor, order: int, build):
        self._fill(name, ring, order, build)

    def _build_law(self):
        law = self.build(self.order)
        if law.ring != self.ring or law.order != self.order:
            raise ValueError(f"{self.name}: the built law has another ring or order")
        return law

    def __eq__(self, other):
        if not isinstance(other, OrientedTheory):
            return NotImplemented
        return (
            self.name == other.name
            and self.ring == other.ring
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.name, self.ring, self.order))

    def __repr__(self):
        return f"<theory {self.name}>"

    def zero(self) -> GradedRingElement:
        return GradedRingElement.zero(self.ring)

    def one(self) -> GradedRingElement:
        return GradedRingElement.one(self.ring)

    def point_class(self, n: int) -> GradedRingElement:
        """The coefficient-ring class of n-dimensional projective space."""
        return _point_class(self, n)


@lru_cache(maxsize=None)
def _point_class(theory: OrientedTheory, n: int) -> GradedRingElement:
    from .fgl import projective_space_class

    return projective_space_class(theory.law, n)


@lru_cache(maxsize=None)
def chow(order: int = DEFAULT_ORDER) -> OrientedTheory:
    return OrientedTheory("chow", CHOW_RING, order, additive_law)


@lru_cache(maxsize=None)
def k0(order: int = DEFAULT_ORDER) -> OrientedTheory:
    return OrientedTheory("k0", K0_RING, order, multiplicative_law)


@lru_cache(maxsize=None)
def universal(n: int) -> OrientedTheory:
    return OrientedTheory(f"universal:{n}", universal_ring(n), n, universal_law)


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
    """An element sum a_i t^i of the theory on P^m, as a coordinate vector."""

    __slots__ = ("theory", "m", "coords")

    def __init__(self, theory: OrientedTheory, m: int, coords):
        coords = tuple(coords)
        if m < 0 or len(coords) != m + 1:
            raise ValueError(f"need {m + 1} coordinates for P^{m}, got {len(coords)}")
        fixed = []
        for a in coords:
            if not isinstance(a, GradedRingElement):
                a = GradedRingElement.scalar(theory.ring, a)
            if a.ring != theory.ring:
                raise RingMismatchError("coordinate over the wrong coefficient ring")
            fixed.append(a)
        self._fill(theory, m, tuple(fixed))

    @classmethod
    def unit(cls, theory: OrientedTheory, m: int) -> "ProjectiveSpaceElement":
        return cls.hyperplane_power(theory, m, 0)

    @classmethod
    def hyperplane_power(cls, theory: OrientedTheory, m: int, i: int) -> "ProjectiveSpaceElement":
        """The basis element t^i (zero when i > m)."""
        coords = [theory.zero()] * (m + 1)
        if 0 <= i <= m:
            coords[i] = theory.one()
        return cls(theory, m, coords)

    @classmethod
    def pullback(cls, theory: OrientedTheory, m: int, value: GradedRingElement) -> "ProjectiveSpaceElement":
        """The image of a coefficient-ring element under the structural pull-back."""
        coords = [value] + [theory.zero()] * m
        return cls(theory, m, coords)

    def _check(self, other: "ProjectiveSpaceElement"):
        if self.theory != other.theory or self.m != other.m:
            raise RingMismatchError("elements live on different projective spaces")

    def __add__(self, other):
        if not isinstance(other, ProjectiveSpaceElement):
            return NotImplemented
        self._check(other)
        return ProjectiveSpaceElement(
            self.theory, self.m, [a + b for a, b in zip(self.coords, other.coords)]
        )

    def __neg__(self):
        return ProjectiveSpaceElement(self.theory, self.m, [-a for a in self.coords])

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
        out = [self.theory.zero() for _ in range(self.m + 1)]
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coords):
                if i + j > self.m or b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return ProjectiveSpaceElement(self.theory, self.m, out)

    def scale(self, value: GradedRingElement) -> "ProjectiveSpaceElement":
        return ProjectiveSpaceElement(self.theory, self.m, [a * value for a in self.coords])

    def __eq__(self, other):
        if not isinstance(other, ProjectiveSpaceElement):
            return NotImplemented
        return self.theory == other.theory and self.m == other.m and self.coords == other.coords

    def __hash__(self):
        return hash((self.theory, self.m, self.coords))

    def is_homogeneous(self, degree: int) -> bool:
        """Whether every coordinate a_i is homogeneous of degree (degree - i)."""
        return all(a.is_homogeneous(degree - i) for i, a in enumerate(self.coords))

    def pushforward_to_point(self) -> GradedRingElement:
        """sum a_i * [P^(m-i)]; lowers homogeneous degree by m."""
        total = self.theory.zero()
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            total = total + a * self.theory.point_class(self.m - i)
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
