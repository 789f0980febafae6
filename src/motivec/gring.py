"""Exact arithmetic in graded commutative coefficient rings.

A ring is described by a list of named generators with integer degrees
(optionally invertible, i.e. Laurent) over Z or Q, with an optional bound
on the absolute degree of retained monomials.  Elements are sparse maps
from exponent vectors to nonzero scalars; all arithmetic is exact.

An element carries its sorted degree tuple, filled on first read or handed
on by the operation that built it: a product of homogeneous factors lies in
one known degree, so it is refused past the bound at once and never
computes a term's degree.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import add


class RingMismatchError(ValueError):
    """Raised when combining elements of different rings."""


class TruncationError(ValueError):
    """Raised when a query reaches beyond the ring's degree bound."""


class Generator(namedtuple("Generator", "symbol degree invertible", defaults=(False,))):
    __slots__ = ()


class RingDescriptor(namedtuple("RingDescriptor", "name generators field truncation")):
    """A graded coefficient ring: generators, scalar field ("Z" or "Q") and degree bound."""

    __slots__ = ()

    def __new__(cls, name, generators, field, truncation=None):
        symbols = [g.symbol for g in generators]
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate generator symbols in ring {name!r}")
        if field not in ("Z", "Q"):
            raise ValueError(f"scalar field must be 'Z' or 'Q', got {field!r}")
        if truncation is not None and truncation < 0:
            raise ValueError("truncation bound must be >= 0")
        return super().__new__(cls, name, generators, field, truncation)

    @property
    def rational(self) -> bool:
        return self.field == "Q"

    def generator_index(self, symbol: str) -> int:
        for i, g in enumerate(self.generators):
            if g.symbol == symbol:
                return i
        raise KeyError(f"ring {self.name!r} has no generator {symbol!r}")

    def monomial_degree(self, exponents: tuple[int, ...]) -> int:
        return sum(e * g.degree for e, g in zip(exponents, self.generators))

    def rationalized(self) -> "RingDescriptor":
        """The same ring with scalars extended to Q."""
        if self.rational:
            return self
        return RingDescriptor(self.name + "@Q", self.generators, "Q", self.truncation)


CHOW_RING = RingDescriptor("chow", (), "Z")
K0_RING = RingDescriptor("k0", (Generator("b", -1, invertible=True),), "Z")


@lru_cache(maxsize=None)
def universal_ring(n: int) -> RingDescriptor:
    """Q[m_1, ..., m_n] with deg(m_i) = -i, truncated at |degree| <= n."""
    if n < 0:
        raise ValueError("universal ring size must be >= 0")
    gens = tuple(Generator(f"m_{i}", -i) for i in range(1, n + 1))
    return RingDescriptor(f"universal({n})", gens, "Q", truncation=n)


def _normalize_scalar(value, field: str):
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        if field == "Z":
            raise ValueError(f"non-integer scalar {value} in an integral ring")
        return value
    if isinstance(value, int):
        return value
    raise TypeError(f"scalar must be int or Fraction, got {type(value).__name__}")


class GradedRingElement:
    """A sparse exact element of a :class:`RingDescriptor`.

    Immutable after construction; the term map never stores zeros and never
    stores monomials beyond the ring's truncation bound.
    """

    __slots__ = ("ring", "terms", "_degs")

    def __init__(self, ring: RingDescriptor, terms: dict, degs: tuple | None = None):
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)
        # the sorted degree tuple, or None until `_degrees` first computes it
        object.__setattr__(self, "_degs", degs)

    def _degrees(self) -> tuple:
        degs = self._degs
        if degs is None:
            degs = tuple(sorted({self.ring.monomial_degree(m) for m in self.terms}))
            object.__setattr__(self, "_degs", degs)
        return degs

    def __setattr__(self, name, value):
        raise AttributeError("GradedRingElement is immutable")

    @classmethod
    def from_terms(cls, ring: RingDescriptor, mapping) -> "GradedRingElement":
        width = len(ring.generators)
        terms = {}
        for mono, coeff in dict(mapping).items():
            mono = tuple(mono)
            if len(mono) != width:
                raise ValueError(
                    f"exponent vector {mono} has wrong width for ring {ring.name!r}"
                )
            for e, g in zip(mono, ring.generators):
                if e < 0 and not g.invertible:
                    raise ValueError(f"negative exponent on non-invertible {g.symbol}")
            coeff = _normalize_scalar(coeff, ring.field)
            if coeff == 0:
                continue
            if ring.truncation is not None and abs(ring.monomial_degree(mono)) > ring.truncation:
                continue
            terms[mono] = terms.get(mono, 0) + coeff
        return cls(ring, {m: c for m, c in terms.items() if c != 0})

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "GradedRingElement":
        return cls(ring, {})

    @classmethod
    def scalar(cls, ring: RingDescriptor, value) -> "GradedRingElement":
        return cls.from_terms(ring, {(0,) * len(ring.generators): value})

    @classmethod
    def one(cls, ring: RingDescriptor) -> "GradedRingElement":
        return cls.scalar(ring, 1)

    @classmethod
    def generator(cls, ring: RingDescriptor, symbol: str, power: int = 1) -> "GradedRingElement":
        idx = ring.generator_index(symbol)
        mono = tuple(power if i == idx else 0 for i in range(len(ring.generators)))
        return cls.from_terms(ring, {mono: 1})

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> list[int]:
        return list(self._degrees())

    def is_homogeneous(self, degree: int | None = None) -> bool:
        ds = self._degrees()
        if degree is None:
            return len(ds) <= 1
        return not ds or ds == (degree,)

    def degree(self) -> int:
        """Degree of a nonzero homogeneous element."""
        ds = self._degrees()
        if len(ds) != 1:
            raise ValueError(f"element is not nonzero homogeneous: degrees {list(ds)}")
        return ds[0]

    def homogeneous_component(self, k: int) -> "GradedRingElement":
        picked = {m: c for m, c in self.terms.items() if self.ring.monomial_degree(m) == k}
        return GradedRingElement(self.ring, picked)

    def coefficient(self, mono) -> int | Fraction:
        return self.terms.get(tuple(mono), 0)

    def scalar_part(self):
        """The coefficient of the empty monomial."""
        return self.terms.get((0,) * len(self.ring.generators), 0)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "GradedRingElement"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine elements of {self.ring.name!r} and {other.ring.name!r}"
            )

    def _coerce(self, other):
        if isinstance(other, GradedRingElement):
            return other
        if isinstance(other, (int, Fraction)):
            return GradedRingElement.scalar(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        terms = dict(self.terms)
        for m, c in other.terms.items():
            s = terms.get(m, 0) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        # a sum keeps a single degree both operands already know
        ds = self._degs
        if ds is not None and len(ds) == 1 and other._degs == ds:
            return GradedRingElement(self.ring, terms, ds if terms else ())
        return GradedRingElement(self.ring, terms)

    __radd__ = __add__

    def __neg__(self):
        return GradedRingElement(self.ring, {m: -c for m, c in self.terms.items()}, self._degs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        ring = self.ring
        left, right = self.terms, other.terms
        if not left or not right:
            return GradedRingElement(ring, {}, ())
        bound = ring.truncation
        degs = None
        da, db = self._degrees(), other._degrees()
        if len(da) == 1 and len(db) == 1:
            # homogeneous factors: the whole product lies in one degree
            d = da[0] + db[0]
            if bound is not None and abs(d) > bound:
                return GradedRingElement(ring, {}, ())
            degs, bound = (d,), None
        degree = ring.monomial_degree
        # each factor term's degree once; pairs past the bound never build a monomial
        right = [(m2, c2, 0 if bound is None else degree(m2)) for m2, c2 in right.items()]
        out: dict = {}
        for m1, c1 in left.items():
            d1 = 0 if bound is None else degree(m1)
            for m2, c2, d2 in right:
                if bound is not None and abs(d1 + d2) > bound:
                    continue
                mono = tuple(map(add, m1, m2))
                s = out.get(mono, 0) + c1 * c2
                if s == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = s
        return GradedRingElement(ring, out, degs)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self._monomial_inverse() ** (-n)
        result = GradedRingElement.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def _monomial_inverse(self) -> "GradedRingElement":
        if len(self.terms) != 1:
            raise ValueError("only single-term unit monomials are invertible")
        (mono, coeff), = self.terms.items()
        for e, g in zip(mono, self.ring.generators):
            if e != 0 and not g.invertible:
                raise ValueError(f"generator {g.symbol} is not invertible")
        if self.ring.field == "Z":
            if coeff not in (1, -1):
                raise ValueError(f"scalar {coeff} is not a unit over Z")
            inv_coeff = coeff
        else:
            inv_coeff = Fraction(1) / coeff
        return GradedRingElement.from_terms(
            self.ring, {tuple(-e for e in mono): inv_coeff}
        )

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                other = GradedRingElement.scalar(self.ring, other)
            except ValueError:
                return False
        if not isinstance(other, GradedRingElement):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    def __repr__(self):
        return f"<{self.ring.name}: {render_element(self)}>"

    def __str__(self):
        return render_element(self)


def convert_element(elem: GradedRingElement, ring: RingDescriptor) -> GradedRingElement:
    """Move an element into a ring with the same generator list.

    Going from Q scalars to Z fails on non-integral coefficients; the
    truncation of the target applies.
    """
    if elem.ring.generators != ring.generators:
        raise RingMismatchError(
            f"generator mismatch between {elem.ring.name!r} and {ring.name!r}"
        )
    return GradedRingElement.from_terms(ring, elem.terms)


def substitute_generators(
    elem: GradedRingElement, ring: RingDescriptor, assignment: dict
) -> GradedRingElement:
    """Evaluate an element by sending each generator to a target-ring element.

    Generators missing from `assignment` must exist in the target ring with
    the same symbol and are mapped to themselves.
    """
    out = GradedRingElement.zero(ring)
    for mono, coeff in elem.terms.items():
        term = GradedRingElement.scalar(ring, coeff)
        for e, g in zip(mono, elem.ring.generators):
            if e == 0:
                continue
            image = assignment.get(g.symbol)
            if image is None:
                image = GradedRingElement.generator(ring, g.symbol)
            term = term * image ** e
        out = out + term
    return out


# -- module bases per degree ----------------------------------------------


class ModuleDescription(namedtuple("ModuleDescription", "field ring monomials")):
    """A free module in one degree: its scalar field and monomial basis."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.monomials)

    def basis_strings(self) -> list[str]:
        return [render_monomial(self.ring, m) for m in self.monomials]


def component_rank(ring: RingDescriptor, k: int) -> ModuleDescription:
    """Monomial basis of the degree-k part of the ring.

    For truncated rings, degrees below -truncation were dropped from the
    model and cannot be answered; positive degrees are exactly empty when
    every generator has negative degree.
    """
    monos = sorted(_degree_monomials(ring, k))
    return ModuleDescription(ring.field, ring, tuple(monos))


def _degree_monomials(ring: RingDescriptor, k: int):
    gens = ring.generators
    if not gens:
        return [()] if k == 0 else []
    invertibles = [g for g in gens if g.invertible]
    if invertibles:
        if len(gens) != 1:
            raise NotImplementedError(
                "degree enumeration with invertible generators is only "
                "supported for a single Laurent generator"
            )
        g = gens[0]
        if k % g.degree == 0:
            return [(k // g.degree,)]
        return []
    if any(g.degree >= 0 for g in gens):
        raise NotImplementedError(
            "degree enumeration requires all generators in negative degrees"
        )
    if ring.truncation is not None and k < -ring.truncation:
        raise TruncationError(
            f"degree {k} lies beyond the truncation bound of {ring.name!r}"
        )
    if k > 0:
        return []
    out = []

    def extend(prefix, idx, remaining):
        if idx == len(gens):
            if remaining == 0:
                out.append(tuple(prefix))
            return
        step = -gens[idx].degree
        for e in range(0, remaining // step + 1):
            extend(prefix + [e], idx + 1, remaining - e * step)

    extend([], 0, -k)
    return out


# -- text syntax -----------------------------------------------------------


def render_monomial(ring: RingDescriptor, mono: tuple[int, ...]) -> str:
    parts = []
    for e, g in zip(mono, ring.generators):
        if e == 0:
            continue
        parts.append(g.symbol if e == 1 else f"{g.symbol}^{e}")
    return "*".join(parts) if parts else "1"


def _render_scalar(value) -> str:
    if isinstance(value, Fraction) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def render_element(elem: GradedRingElement) -> str:
    if not elem.terms:
        return "0"
    ring = elem.ring
    ordered = sorted(elem.terms.items(), key=lambda mc: (ring.monomial_degree(mc[0]), mc[0]))
    pieces = []
    for mono, coeff in ordered:
        mono_str = render_monomial(ring, mono)
        mag = -coeff if coeff < 0 else coeff
        if mono_str == "1":
            body = _render_scalar(mag)
        elif mag == 1:
            body = mono_str
        else:
            body = f"{_render_scalar(mag)}*{mono_str}"
        if not pieces:
            pieces.append(("-" if coeff < 0 else "") + body)
        else:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(pieces)


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|/|\+|-|\(|\)))")


def _tokenize_element(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"bad character in element syntax at {text[pos:]!r}")
            break
        pos = m.end()
        if m.group(1):
            out.append(("int", int(m.group(1))))
        elif m.group(2):
            out.append(("name", m.group(2)))
        else:
            out.append((m.group(3), None))
    return out


def parse_element(ring: RingDescriptor, text: str) -> GradedRingElement:
    """Parse the rendered element syntax, e.g. ``"m_2 + 2*m_1^2 - 1/3"``."""
    tokens = _tokenize_element(text)
    idx = 0

    def peek():
        return tokens[idx][0] if idx < len(tokens) else None

    def parse_factor():
        nonlocal idx
        if idx >= len(tokens):
            raise ValueError("unexpected end of element text")
        kind, value = tokens[idx]
        if kind == "int":
            idx += 1
            scalar = Fraction(value)
            if peek() == "/":
                idx += 1
                if peek() != "int":
                    raise ValueError("expected denominator after '/'")
                scalar = scalar / tokens[idx][1]
                idx += 1
            return GradedRingElement.scalar(ring, scalar)
        if kind == "name":
            idx += 1
            power = 1
            if peek() == "^":
                idx += 1
                sign = 1
                if peek() == "-":
                    idx += 1
                    sign = -1
                if peek() != "int":
                    raise ValueError("expected integer exponent after '^'")
                power = sign * tokens[idx][1]
                idx += 1
            return GradedRingElement.generator(ring, value, power)
        if kind == "(":
            idx += 1
            inner = parse_sum()
            if peek() != ")":
                raise ValueError("missing closing parenthesis")
            idx += 1
            return inner
        raise ValueError(f"unexpected token {kind!r} in element syntax")

    def parse_term():
        nonlocal idx
        acc = parse_factor()
        while peek() == "*":
            idx += 1
            acc = acc * parse_factor()
        return acc

    def parse_sum():
        nonlocal idx
        total = GradedRingElement.zero(ring)
        sign = 1
        if peek() in ("+", "-"):
            sign = -1 if tokens[idx][0] == "-" else 1
            idx += 1
        while True:
            term = parse_term()
            total = total + (term if sign == 1 else -term)
            if peek() not in ("+", "-"):
                return total
            sign = -1 if tokens[idx][0] == "-" else 1
            idx += 1

    if not tokens:
        raise ValueError("empty element text")
    result = parse_sum()
    if idx != len(tokens):
        raise ValueError(f"trailing tokens in element syntax near {tokens[idx]!r}")
    return result


def random_homogeneous(rng, ring: RingDescriptor, degree: int, span: int = 3) -> GradedRingElement:
    """A random element concentrated in one degree (possibly zero)."""
    try:
        basis = component_rank(ring, degree).monomials
    except TruncationError:
        return GradedRingElement.zero(ring)
    terms = {}
    for mono in basis:
        c = rng.randint(-span, span)
        if c:
            terms[mono] = c if ring.field == "Z" else Fraction(c, rng.randint(1, 3))
    return GradedRingElement.from_terms(ring, terms)
