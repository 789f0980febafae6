"""The projective bundle theorem's two rewrites against the code they replaced.

An element of the theory on P^m was a tuple of m + 1 coordinates with its
own truncated product; it is now a `TruncatedSeries` in t of order m.  The
bundle projectors placed identity windows on the twist sums by hand; they
are now tensor products of a fibre projector with the base's identity.
Both replaced versions are kept below as references, so the package must
agree with them on every operation, representation and refusal.
"""

import random
from itertools import product

import pytest

from motivec.gring import CHOW_RING, GradedRingElement, RingMismatchError, random_homogeneous
from motivec.motives import (
    TateMotive,
    _make,
    _pair_sums,
    decompose_by_rank,
    projective_bundle_projectors,
)
from motivec.spaces import grassmannian, quadric
from motivec.theory import OrientedTheory, ProjectiveSpaceElement, chow, k0, universal

THEORIES = [chow(), k0(), universal(6)]


class RefElement:
    """sum a_i t^i on P^m as a coordinate tuple, with its own truncated product."""

    def __init__(self, theory, m, coords):
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
        self.theory, self.m, self.coords = theory, m, tuple(fixed)

    def _check(self, other):
        if self.theory != other.theory or self.m != other.m:
            raise RingMismatchError("elements live on different projective spaces")

    def __add__(self, other):
        self._check(other)
        return RefElement(self.theory, self.m, [a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return RefElement(self.theory, self.m, [-a for a in self.coords])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GradedRingElement):
            return self.scale(other)
        self._check(other)
        out = [GradedRingElement.zero(self.theory.ring) for _ in range(self.m + 1)]
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coords):
                if i + j > self.m or b.is_zero():
                    continue
                out[i + j] = out[i + j] + a * b
        return RefElement(self.theory, self.m, out)

    def scale(self, value):
        return RefElement(self.theory, self.m, [a * value for a in self.coords])

    def __eq__(self, other):
        return (self.theory, self.m, self.coords) == (other.theory, other.m, other.coords)

    def is_homogeneous(self, degree):
        return all(a.is_homogeneous(degree - i) for i, a in enumerate(self.coords))

    def pushforward_to_point(self):
        total = GradedRingElement.zero(self.theory.ring)
        for i, a in enumerate(self.coords):
            if a.is_zero():
                continue
            total = total + a * self.theory.point_class(self.m - i)
        return total

    def __repr__(self):
        body = " + ".join(f"({a})*t^{i}" for i, a in enumerate(self.coords) if not a.is_zero())
        return f"<P^{self.m} element: {body or '0'}>"


def random_coords(rng, theory, m, kind):
    """m + 1 coordinates: homogeneous of degree d - i, of mixed degrees, or ints."""
    ring, degree = theory.ring, rng.randint(-2, m)
    if kind == "homogeneous":
        return [random_homogeneous(rng, ring, degree - i) for i in range(m + 1)]
    if kind == "mixed":
        return [random_homogeneous(rng, ring, degree - i)
                + random_homogeneous(rng, ring, rng.randint(-3, 0)) for i in range(m + 1)]
    return [rng.choice([0, 0, 1, -1, rng.randint(-5, 5)]) for _ in range(m + 1)]


def assert_same(got, want):
    """The same element, read every way the package offers."""
    assert isinstance(got, ProjectiveSpaceElement)
    assert (got.theory, got.m, got.coords) == (want.theory, want.m, want.coords)
    assert repr(got) == repr(want)
    assert got == ProjectiveSpaceElement(want.theory, want.m, want.coords)
    assert hash(got) == hash(ProjectiveSpaceElement(want.theory, want.m, want.coords))


KINDS = ["homogeneous", "mixed", "int"]


@pytest.mark.parametrize("theory", THEORIES, ids=lambda t: t.name)
@pytest.mark.parametrize("m", range(5))
def test_elements_match_the_coordinate_model(theory, m):
    rng = random.Random(1000 * m + len(theory.name))
    for ku, kv in product(KINDS, repeat=2):
        cu, cv = random_coords(rng, theory, m, ku), random_coords(rng, theory, m, kv)
        u, v = ProjectiveSpaceElement(theory, m, cu), ProjectiveSpaceElement(theory, m, cv)
        ru, rv = RefElement(theory, m, cu), RefElement(theory, m, cv)
        c = random_homogeneous(rng, theory.ring, -rng.randint(0, 2))
        assert_same(u, ru)
        for got, want in ((u + v, ru + rv), (-u, -ru), (u - v, ru - rv), (u * v, ru * rv),
                          (u.scale(c), ru.scale(c)), (u * c, ru * c), (u.scale(3), ru.scale(3))):
            assert_same(got, want)
        assert (u == v) == (ru == rv) and u == ProjectiveSpaceElement(theory, m, cu)
        assert u + v == v + u and hash(u + v) == hash(v + u)
        assert u - u == u.scale(0) and hash(u - u) == hash(u.scale(0))
        for degree in range(-3, m + 3):
            assert u.is_homogeneous(degree) == ru.is_homogeneous(degree)
        assert u.pushforward_to_point() == ru.pushforward_to_point()


def refusal(make):
    try:
        make()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cls", [ProjectiveSpaceElement, RefElement], ids=["package", "ref"])
def test_refusals_keep_their_types_and_texts(cls):
    t, other = chow(), OrientedTheory("other", CHOW_RING, 10, None)
    b = GradedRingElement.generator(k0().ring, "b")
    cases = [
        (lambda: cls(t, 2, [1, 2]), ValueError, "need 3 coordinates for P^2, got 2"),
        (lambda: cls(t, -1, []), ValueError, "need 0 coordinates for P^-1, got 0"),
        (lambda: cls(t, 1, [1, b]), RingMismatchError, "coordinate over the wrong coefficient ring"),
        (lambda: cls(t, 1, [1, 0]) + cls(t, 2, [1, 0, 0]), RingMismatchError,
         "elements live on different projective spaces"),
        (lambda: cls(t, 1, [1, 0]) * cls(other, 1, [0, 1]), RingMismatchError,
         "elements live on different projective spaces"),
        (lambda: cls(t, 1, [0, 0]).scale(b), RingMismatchError,
         "cannot combine elements of 'chow' and 'k0'"),
    ]
    for make, kind, text in cases:
        assert refusal(make) == (kind, text)


def ref_projectors(theory, base, rank):
    """The projectors placed by hand: on the twist sums of (0, ..., rank-1)
    and the base, projector i is 1 on the window of the i-shifted copy."""
    total, start = _pair_sums(TateMotive(range(rank)), base)
    size, one = dict(total.histogram), theory.ring._unit

    def window(n, places):
        return [[int(r == c and r in places) for c in range(n)] for r in range(n)]

    return [_make(theory, total, total, 0, {
        (i + t, i + t): {one: window(size[i + t], range(start[i, t], start[i, t] + m))}
        for t, m in base.histogram
    }) for i in range(rank)]


BASES = {
    "empty": TateMotive(()),
    "point": TateMotive((0,)),
    "0113": TateMotive((0, 1, 1, 3)),
    "Gr(2,5)": decompose_by_rank(grassmannian(2, 5)),
    "Gr(4,8)": decompose_by_rank(grassmannian(4, 8)),
    "quadric(3)": decompose_by_rank(quadric(3)),
}


@pytest.mark.parametrize("theory", THEORIES, ids=lambda t: t.name)
@pytest.mark.parametrize("base", BASES, ids=str)
@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_bundle_projectors_are_the_hand_placed_windows(theory, base, rank):
    got = projective_bundle_projectors(theory, BASES[base], rank)
    want = ref_projectors(theory, BASES[base], rank)
    assert len(got) == len(want) == rank
    for p, q in zip(got, want):
        assert (p.source, p.target, p.degree) == (q.source, q.target, q.degree)
        assert repr(p.blocks) == repr(q.blocks)  # ints where the windows hold ints
        assert p == q
