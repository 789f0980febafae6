"""Exact arithmetic in graded commutative coefficient rings.

A ring is described by a list of named generators with integer degrees
(optionally invertible, i.e. Laurent) over Z or Q, with an optional bound
on the absolute degree of retained monomials.  Elements are sparse maps
from monomials to nonzero scalars; all arithmetic is exact.

Each monomial is packed into one int, EXPONENT_BITS bits per generator
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007), so multiplying two monomials is one
int addition and a key's degree a linear function of its fields.  A ring is
built whole with its packing (see `RingDescriptor`) and never changes.  The
top bit of each field is a guard: a product that takes an exponent out of
its field sets it, and raises one ValueError line.  An exponent lies in
[0, 2^31), or in [-2^30, 2^30) for an invertible generator.  Products of
packed terms, of elements here and of series coefficients in `series`, go
through one kernel, `_accumulate`, which sums the term products into a
dict pair by pair; `_checked` raises the guard's line for a kept key, for
those products and for the twist blocks of `motives`.  The public
`terms` map, keyed by exponent tuples, is a read-only view built on each
read; the package's own code never builds it.

An element carries its sorted degree tuple, filled on first read or handed
on by the operation that built it: a product of homogeneous factors lies in
one known degree, so it is refused past the bound at once and never
computes a term's degree.

Integral arithmetic never loads :mod:`fractions`: it is imported on the
first rational scalar, and a Fraction test reads ``sys.modules`` instead.

`Frozen` is the one base of the package's immutable values, in every
module: it refuses assignment and deletion, `copy` and `deepcopy` return
the value itself, and `Frozen._new` is the one builder of every value.  A
class's `__new__` calls it once it has checked its arguments; the hot
paths call it on parts known to be valid: `_element` here, through which
`__mul__` builds, and `TateMotive._of` and `_make` in `motives`, through
which the block operations build motives and morphisms.  A slot filled on
first read is set with `object.__setattr__`.  No package class defines
`__getattr__`, so CPython specializes every slot read.

`parse_element` reads its text with `motivec.dsl.Tokens`, imported on the
first parse: blanks are exactly space, tab, carriage return and newline,
and malformed text raises a `motivec.dsl.ParseError` with line and column.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import lru_cache
from types import MappingProxyType


class RingMismatchError(ValueError):
    """Raised when combining elements of different rings."""


class TruncationError(ValueError):
    """Raised when a query reaches beyond the ring's degree bound."""


class Frozen:
    """An immutable slotted value: `_new` sets the class's own `__slots__`
    in order, and any other assignment or deletion raises AttributeError.
    A class checks its arguments in `__new__` and returns `cls._new(...)`;
    none defines `__init__`.  A value built on first read is a property
    that keeps it in its own slot, filled with None until then.  `copy`
    and `deepcopy` return the value itself, as for a tuple."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._setters = tuple(vars(cls)[slot].__set__ for slot in vars(cls).get("__slots__", ()))

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    @classmethod
    def _new(cls, *values):
        """A value holding the given slot values, without the checks of `__new__`."""
        obj = object.__new__(cls)
        for setter, value in zip(cls._setters, values):
            setter(obj, value)
        return obj


class Generator(namedtuple("Generator", "symbol degree invertible", defaults=(False,))):
    __slots__ = ()


EXPONENT_BITS = 32  # width of one packed exponent field, its guard bit included
_FIELD_MASK = (1 << EXPONENT_BITS) - 1
_GUARD_BIT = 1 << (EXPONENT_BITS - 1)
_LAURENT_OFFSET = 1 << (EXPONENT_BITS - 2)  # the bias of an invertible generator's field


class RingDescriptor(Frozen):
    """A graded coefficient ring: generators, scalar field ("Z" or "Q") and degree bound.

    Built with its hash, that of its four fields' tuple, and its packing:
    generator i owns bits [i*W, (i+1)*W) of a key (W = EXPONENT_BITS) and
    stores there its exponent plus `_offsets[i]`, 2^(W-2) if it is
    invertible and else 0.  `_unit` is the empty monomial's key, so two
    monomials multiply to k1 + k2 - _unit, and `_guard` masks the top bit
    of each field, which such a sum sets in a field it takes out of range.
    """

    __slots__ = ("name", "generators", "field", "truncation",
                 "_hash", "_unit", "_guard", "_offsets")

    def __new__(cls, name, generators, field, truncation=None):
        symbols = [g.symbol for g in generators]
        if len(set(symbols)) != len(symbols):
            raise ValueError(f"duplicate generator symbols in ring {name!r}")
        if field not in ("Z", "Q"):
            raise ValueError(f"scalar field must be 'Z' or 'Q', got {field!r}")
        if truncation is not None and truncation < 0:
            raise ValueError("truncation bound must be >= 0")
        offsets = tuple(_LAURENT_OFFSET if g.invertible else 0 for g in generators)
        return cls._new(name, generators, field, truncation,
                        hash((name, generators, field, truncation)),
                        sum(o << (EXPONENT_BITS * i) for i, o in enumerate(offsets)),
                        sum(_GUARD_BIT << (EXPONENT_BITS * i) for i in range(len(offsets))),
                        offsets)

    def _fields(self) -> tuple:
        return self.name, self.generators, self.field, self.truncation

    def __eq__(self, other):
        if not isinstance(other, RingDescriptor):
            return NotImplemented
        return self is other or self._hash == other._hash and self._fields() == other._fields()

    def __hash__(self):
        return self._hash

    def __reduce__(self):  # built anew on unpickling: `_hash` is from per-process str hashes
        return RingDescriptor, self._fields()

    def __repr__(self):
        return ("RingDescriptor(name={!r}, generators={!r}, field={!r}, truncation={!r})"
                .format(*self._fields()))

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


def _is_fraction(value) -> bool:
    # a Fraction exists only once `fractions` is loaded, so this never loads it
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(value, fractions.Fraction)


def _normalize_scalar(value, field: str):
    if isinstance(value, int):
        return value
    if _is_fraction(value):
        if value.denominator == 1:
            return int(value)
        if field == "Z":
            raise ValueError(f"non-integer scalar {value} in an integral ring")
        return value
    raise TypeError(f"scalar must be int or Fraction, got {type(value).__name__}")


# -- packed monomials --------------------------------------------------------


def _exponent_error(ring: RingDescriptor, i: int, exponent=None) -> ValueError:
    g = ring.generators[i]
    low = -_LAURENT_OFFSET if g.invertible else 0
    what = "a product exponent" if exponent is None else f"exponent {exponent}"
    return ValueError(
        f"{what} of {g.symbol} leaves the packed range [{low}, {low + _GUARD_BIT})"
    )


def _encode(ring: RingDescriptor, mono: tuple) -> int:
    """The packed key of an exponent tuple of the ring's width."""
    key = 0
    for i, (e, o) in enumerate(zip(mono, ring._offsets)):
        if not -o <= e < _GUARD_BIT - o:
            raise _exponent_error(ring, i, e)
        key += (e + o) << (EXPONENT_BITS * i)
    return key


def _decode(key: int, ring: RingDescriptor) -> tuple:
    return tuple((key >> (EXPONENT_BITS * i) & _FIELD_MASK) - o for i, o in enumerate(ring._offsets))


def _key_degrees(ring: RingDescriptor, keys) -> list:
    """The degree of each packed key."""
    return [ring.monomial_degree(_decode(k, ring)) for k in keys]


def _accumulate(acc: dict, left, right, bias: int) -> None:
    """Add the product of every pair of packed terms, (k1, c1) of `left` and
    (k2, c2) of `right`, into `acc` at k1 + k2 - bias, pair by pair in order:
    a first product is stored as it is, never added to 0, and a key whose
    running sum reaches 0 is dropped, so a later pair puts it back at the end."""
    for k1, c1 in left:
        k1 -= bias
        for k2, c2 in right:
            k = k1 + k2
            t = acc.get(k)
            if t is None:
                acc[k] = c1 * c2
            else:
                t += c1 * c2
                if t:
                    acc[k] = t
                else:
                    del acc[k]


def _checked(ring: RingDescriptor, keys):
    """`keys`, packed monomials, once none has an exponent out of its field;
    the first that has raises the product's one-line ValueError."""
    guard = ring._guard
    for key in keys:
        if key & guard:
            raise _exponent_error(ring, next(i for i in range(len(ring.generators))
                                             if key >> (EXPONENT_BITS * i) & _GUARD_BIT))
    return keys


class GradedRingElement(Frozen):
    """A sparse exact element of a :class:`RingDescriptor`.

    Immutable after construction; the term map never stores zeros and never
    stores monomials beyond the ring's truncation bound.  The terms live in
    `_mono`, keyed by packed monomials (see :class:`RingDescriptor`); `terms`, the
    same map keyed by exponent tuples, is a read-only view built on each
    read.  Package code reads `_mono` and never builds the view.
    """

    __slots__ = ("ring", "_mono", "_degs")

    def __new__(cls, ring: RingDescriptor, mapping):
        width = len(ring.generators)
        bound = ring.truncation
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
            degree = ring.monomial_degree(mono)
            if bound is not None and abs(degree) > bound:
                continue
            key = _encode(ring, mono)
            terms[key] = terms.get(key, 0) + coeff
        return cls._new(ring, {m: c for m, c in terms.items() if c != 0}, None)  # degrees: on first read

    @property
    def terms(self) -> MappingProxyType:
        return MappingProxyType(dict(self._pairs()))

    def _pairs(self) -> list:
        """(exponent tuple, scalar) for each term, in term order."""
        return [(_decode(k, self.ring), c) for k, c in self._mono.items()]

    def _degrees(self) -> tuple:
        degs = self._degs
        if degs is None:
            degs = tuple(sorted(set(_key_degrees(self.ring, self._mono))))
            object.__setattr__(self, "_degs", degs)
        return degs

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "GradedRingElement":
        return _element(ring, {}, ())

    @classmethod
    def scalar(cls, ring: RingDescriptor, value) -> "GradedRingElement":
        value = _normalize_scalar(value, ring.field)
        if value == 0:
            return _element(ring, {}, ())
        return _element(ring, {ring._unit: value}, (0,))

    @classmethod
    def one(cls, ring: RingDescriptor) -> "GradedRingElement":
        return cls.scalar(ring, 1)

    @classmethod
    def generator(cls, ring: RingDescriptor, symbol: str, power: int = 1) -> "GradedRingElement":
        idx = ring.generator_index(symbol)
        mono = tuple(power if i == idx else 0 for i in range(len(ring.generators)))
        return cls(ring, {mono: 1})

    # -- queries ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._mono)

    def is_zero(self) -> bool:
        return not self._mono

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

    def coefficient(self, mono):
        """The scalar (an int or a Fraction) at `mono`, 0 when absent."""
        return self.terms.get(tuple(mono), 0)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "GradedRingElement"):
        if self.ring != other.ring:
            raise RingMismatchError(
                f"cannot combine elements of {self.ring.name!r} and {other.ring.name!r}"
            )

    def _coerce(self, other):
        if isinstance(other, GradedRingElement):
            self._check_ring(other)
            return other
        if isinstance(other, int) or _is_fraction(other):
            return GradedRingElement.scalar(self.ring, other)
        return NotImplemented

    def __add__(self, other):
        ring = self.ring
        if other.__class__ is not GradedRingElement or other.ring is not ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        right = other._mono
        if not right:
            return self
        if not self._mono:
            return other
        terms = self._mono.copy()
        for m, c in right.items():
            s = terms.get(m, 0) + c
            if s == 0:
                terms.pop(m, None)
            else:
                terms[m] = s
        # a sum keeps a single degree both operands already know
        ds = self._degs
        if ds is None or len(ds) != 1 or other._degs != ds:
            ds = None
        elif not terms:
            ds = ()
        return _element(ring, terms, ds)

    __radd__ = __add__

    def __neg__(self):
        return _element(self.ring, {m: -c for m, c in self._mono.items()}, self._degs)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        ring = self.ring
        if other.__class__ is not GradedRingElement or other.ring is not ring:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        left = self._mono
        right = other._mono
        if not left or not right:
            return _element(ring, {}, ())
        bound = ring.truncation
        degs = None
        da, db = self._degrees(), other._degrees()
        if len(da) == 1 and len(db) == 1:
            # homogeneous factors: the whole product lies in one degree
            d = da[0] + db[0]
            if bound is not None and abs(d) > bound:
                return _element(ring, {}, ())
            degs, bound = (d,), None
        bias, out = ring._unit, {}
        if bound is None:
            _accumulate(out, left.items(), right.items(), bias)
        else:
            # each term's degree once; pairs past the bound never build a key
            right = list(zip(right.items(), _key_degrees(ring, right)))
            for term, d1 in zip(left.items(), _key_degrees(ring, left)):
                _accumulate(out, (term,), [t for t, d2 in right if abs(d1 + d2) <= bound], bias)
        return _element(ring, _checked(ring, out), degs)

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
            n >>= 1
            if n:
                base = base * base
        return result

    def _monomial_inverse(self) -> "GradedRingElement":
        if len(self._mono) != 1:
            raise ValueError("only single-term unit monomials are invertible")
        (mono, coeff), = self._pairs()
        for e, g in zip(mono, self.ring.generators):
            if e != 0 and not g.invertible:
                raise ValueError(f"generator {g.symbol} is not invertible")
        if self.ring.field == "Z":
            if coeff not in (1, -1):
                raise ValueError(f"scalar {coeff} is not a unit over Z")
            inv_coeff = coeff
        else:
            from fractions import Fraction

            inv_coeff = Fraction(1) / coeff
        return GradedRingElement(self.ring, {tuple(-e for e in mono): inv_coeff})

    def __eq__(self, other):
        if not isinstance(other, GradedRingElement):
            if not (isinstance(other, int) or _is_fraction(other)):
                return NotImplemented
            try:
                other = GradedRingElement.scalar(self.ring, other)
            except ValueError:
                return False
        return self.ring == other.ring and self._mono == other._mono

    def __hash__(self):
        mono, unit = self._mono, self.ring._unit
        if mono.keys() <= {unit}:  # a scalar equals its int or Fraction, so hashes as it
            return hash(mono.get(unit, 0))
        return hash((self.ring, frozenset(mono.items())))

    def __repr__(self):
        return f"<{self.ring.name}: {render_element(self)}>"

    def __str__(self):
        return render_element(self)


_element = GradedRingElement._new  # an element from packed terms and their degrees, without checks


def convert_element(elem: GradedRingElement, ring: RingDescriptor) -> GradedRingElement:
    """Move an element into a ring with the same generator list.

    Going from Q scalars to Z fails on non-integral coefficients; the
    truncation of the target applies.
    """
    if elem.ring.generators != ring.generators:
        raise RingMismatchError(
            f"generator mismatch between {elem.ring.name!r} and {ring.name!r}"
        )
    # the same generators pack the same way; scalars are checked before any degree is read
    mono = {m: _normalize_scalar(c, ring.field) for m, c in elem._mono.items()}
    bound, degs = ring.truncation, elem._degs
    if bound is not None and (degs is None or any(abs(d) > bound for d in degs)):
        mono = {m: c for (m, c), d in zip(mono.items(), _key_degrees(ring, mono)) if abs(d) <= bound}
        degs = None
    return _element(ring, mono, degs)


def substitute_generators(
    elem: GradedRingElement, ring: RingDescriptor, assignment: dict
) -> GradedRingElement:
    """Evaluate an element by sending each generator to a target-ring element.

    Generators missing from `assignment` must exist in the target ring with
    the same symbol and are mapped to themselves.
    """
    out = GradedRingElement.zero(ring)
    for mono, coeff in elem._pairs():
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


@lru_cache(maxsize=1024)
def component_rank(ring: RingDescriptor, k: int) -> ModuleDescription:
    """Monomial basis of the degree-k part of the ring.

    For truncated rings, degrees below -truncation were dropped from the
    model and cannot be answered; positive degrees are exactly empty when
    every generator has negative degree.  Memoized per (ring, degree) in a
    bounded cache.
    """
    monos = sorted(_degree_monomials(ring, k))
    return ModuleDescription(ring.field, ring, tuple(monos))


@lru_cache(maxsize=1024)
def _component_keys(ring: RingDescriptor, k: int) -> tuple:
    """The packed keys of `component_rank(ring, k)`'s basis, in its order;
    none past the ring's degree bound, which an element never keeps."""
    monos = component_rank(ring, k).monomials
    if ring.truncation is not None and abs(k) > ring.truncation:
        monos = ()
    return tuple(_encode(ring, mono) for mono in monos)


def check_enumerable(ring: RingDescriptor) -> None:
    """Refuse, with NotImplementedError, a ring whose components are not
    listed: a Laurent generator beside others or of degree 0, or a
    non-Laurent generator outside the negative degrees."""
    gens = ring.generators
    if any(g.invertible for g in gens):
        if len(gens) != 1:
            raise NotImplementedError(
                "degree enumeration with invertible generators is only "
                "supported for a single Laurent generator"
            )
        if not gens[0].degree:
            raise NotImplementedError("a Laurent generator of degree 0 has infinitely many monomials")
    elif any(g.degree >= 0 for g in gens):
        raise NotImplementedError(
            "degree enumeration requires all generators in negative degrees"
        )


def _degree_monomials(ring: RingDescriptor, k: int):
    gens = ring.generators
    if not gens:
        return [()] if k == 0 else []
    check_enumerable(ring)
    if gens[0].invertible:
        g = gens[0]
        if k % g.degree == 0:
            return [(k // g.degree,)]
        return []
    if ring.truncation is not None and k < -ring.truncation:
        raise TruncationError(
            f"degree {k} lies beyond the truncation bound of {ring.name!r}"
        )
    if k > 0:
        return []
    # the partitions of -k, one generator's exponent at a time; a generator
    # of degree below k keeps exponent 0
    partial = [((0,) * len(gens), -k)]  # (monomial so far, degree left to fill)
    for i, g in enumerate(gens):
        if g.degree >= k:
            partial = [
                (mono[:i] + (e,) + mono[i + 1:] if e else mono, rest + e * g.degree)
                for mono, rest in partial
                for e in range(rest // -g.degree + 1)
            ]
    return [mono for mono, rest in partial if rest == 0]


# -- text syntax -----------------------------------------------------------


def _power_product(symbols, exponents) -> str:
    """The text ``a*b^2`` of the nonzero powers, empty when there are none."""
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(symbols, exponents) if e)


def render_monomial(ring: RingDescriptor, mono: tuple[int, ...]) -> str:
    return _power_product((g.symbol for g in ring.generators), mono) or "1"


def _render_scalar(value) -> str:
    if _is_fraction(value) and value.denominator != 1:
        return f"{value.numerator}/{value.denominator}"
    return str(int(value))


def render_element(elem: GradedRingElement) -> str:
    if not elem._mono:
        return "0"
    ring = elem.ring
    ordered = sorted(elem._pairs(), key=lambda mc: (ring.monomial_degree(mc[0]), mc[0]))
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


def parse_element(ring: RingDescriptor, text: str) -> GradedRingElement:
    """Parse the rendered element syntax, e.g. ``"m_2 + 2*m_1^2 - 1/3"``.

    Parentheses nest to any depth.  Malformed text raises a
    `motivec.dsl.ParseError` at its line and column, an unknown generator a
    KeyError.
    """
    from .dsl import Tokens  # the package's one tokenizer, loaded on the first parse

    toks = Tokens(text, "^*/+-()")
    outer = []  # one (total, sign, product) per open "("; a sign of None starts a sum
    total, sign, product = GradedRingElement.zero(ring), None, None
    while True:
        if sign is None:
            sign = toks.advance() if toks.kind in ("+", "-") else "+"
        kind = toks.kind
        if kind == "(":
            toks.advance()
            outer.append((total, sign, product))
            total, sign, product = GradedRingElement.zero(ring), None, None
            continue
        if kind == "nat":
            scalar = toks.advance()
            if toks.kind == "/":
                toks.advance()
                at = toks.at
                denominator = toks.expect("nat", "a denominator after '/'")
                if denominator == 0:
                    toks.fail("zero denominator", at)
                from fractions import Fraction

                scalar = Fraction(scalar, denominator)
            factor = GradedRingElement.scalar(ring, scalar)
        elif kind == "name":
            symbol, power = toks.advance(), 1
            if toks.kind == "^":
                toks.advance()
                power = -1 if toks.kind == "-" else 1
                if power < 0:
                    toks.advance()
                power *= toks.expect("nat", "an integer exponent after '^'")
            factor = GradedRingElement.generator(ring, symbol, power)
        else:
            toks.fail(f"expected a term, got {toks.describe()}")
        while True:  # `factor` extends the product; a ")" makes a sum the next factor
            product = factor if product is None else product * factor
            if toks.kind == "*":
                toks.advance()
                break
            total = total + (product if sign == "+" else -product)
            if toks.kind in ("+", "-"):
                sign, product = toks.advance(), None
                break
            if not outer:
                toks.expect("eof", "an operator or end of input")
                return total
            toks.expect(")")
            factor, (total, sign, product) = total, outer.pop()


def random_homogeneous(rng, ring: RingDescriptor, degree: int) -> GradedRingElement:
    """A random element concentrated in one degree (possibly zero)."""
    terms = _random_terms(rng, ring, degree)
    return _element(ring, terms, (degree,) if terms else ())


def _random_terms(rng, ring: RingDescriptor, degree: int) -> dict:
    """The packed terms of `random_homogeneous(rng, ring, degree)`: a scalar
    in [-3, 3] per basis monomial, over Q divided by one in [1, 3]."""
    try:
        basis = _component_keys(ring, degree)
    except TruncationError:
        return {}
    rational, terms = ring.field != "Z", {}
    if rational:
        from fractions import Fraction
    for key in basis:
        c = rng.randrange(-3, 4)  # the draw of randint(-3, 3), without its call
        if c:
            if rational:  # c / d, an int where d divides c
                d = rng.randrange(1, 4)
                c = Fraction(c, d) if c % d else c // d
            terms[key] = c
    return terms
