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

from .fgl import (
    DEFAULT_ORDER,
    additive_law,
    multiplicative_law,
    projective_space_class,
    universal_law,
)
from .gring import (
    CHOW_RING,
    K0_RING,
    GradedRingElement,
    RingDescriptor,
    RingMismatchError,
    universal_ring,
)


class OrientedTheory:
    """A named coefficient ring together with its group law.

    `build(order)` makes the law over `ring`; `law` is built on first access
    and then stored.  Equality, hashing and `repr` use the name, the ring
    and the order, so they never build it.
    """

    __slots__ = ("name", "ring", "order", "build", "law")

    def __init__(self, name: str, ring: RingDescriptor, order: int, build):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "build", build)

    def __getattr__(self, name):
        # only reached while the `law` slot is still empty
        if name != "law":
            raise AttributeError(name)
        law = self.build(self.order)
        if law.ring != self.ring or law.order != self.order:
            raise ValueError(f"{self.name}: the built law has another ring or order")
        object.__setattr__(self, "law", law)
        return law

    def __setattr__(self, name, value):
        raise AttributeError("OrientedTheory is immutable")

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
    """Build a theory from a CLI selector: chow, k0, or universal:N."""
    if selector == "chow":
        return chow()
    if selector == "k0":
        return k0()
    if selector.startswith("universal"):
        rest = selector[len("universal"):]
        if rest.startswith(":"):
            try:
                n = int(rest[1:])
            except ValueError:
                n = 0
            if n < 1:
                raise ValueError(
                    f"bad theory selector {selector!r}: N must be an integer >= 1"
                )
        elif rest == "":
            if truncation is None:
                raise ValueError("the universal theory needs a truncation bound")
            if truncation < 1:
                raise ValueError(
                    f"the universal theory needs a truncation bound >= 1, got {truncation}"
                )
            n = truncation
        else:
            raise ValueError(f"unknown theory selector {selector!r}")
        if truncation is not None and rest.startswith(":") and truncation != n:
            raise ValueError("conflicting truncation bounds for the universal theory")
        return universal(n)
    raise ValueError(f"unknown theory selector {selector!r}")


class ProjectiveSpaceElement:
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
        object.__setattr__(self, "theory", theory)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coords", tuple(fixed))

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveSpaceElement is immutable")

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
