"""Truncated multivariate power series over a graded coefficient ring.

Variables all sit in degree +1; coefficients are exact ring elements.
Terms beyond a fixed total variable degree are dropped everywhere, so all
operations are exact statements about the quotient by that order.

Substitution is Horner-like: terms are grouped by the exponent of the
variable whose image has the most terms, and each group is multiplied by
one power of that image.  Reversion and the formal inverse share one
order-by-order solver, :func:`solve_by_order`: step k reads one new
coefficient, so it composes at order k only.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add

from .gring import (
    GradedRingElement,
    RingDescriptor,
    RingMismatchError,
    render_element,
)


class SubstitutionError(ValueError):
    """Raised when a substitution target has a nonzero constant term."""


class TruncatedSeries:
    """A sparse series in named variables, truncated in total degree."""

    __slots__ = ("ring", "variables", "order", "terms")

    def __init__(self, ring: RingDescriptor, variables, order: int, mapping):
        if order < 0:
            raise ValueError("order must be >= 0")
        variables = tuple(variables)
        width = len(variables)
        terms = {}
        for expo, coeff in dict(mapping).items():
            expo = tuple(expo)
            if len(expo) != width or any(e < 0 for e in expo):
                raise ValueError(f"bad variable exponent vector {expo}")
            if sum(expo) > order:
                continue
            if not isinstance(coeff, GradedRingElement):
                coeff = GradedRingElement.scalar(ring, coeff)
            if coeff.ring != ring:
                raise RingMismatchError("coefficient ring mismatch")
            if coeff.is_zero():
                continue
            prev = terms.get(expo)
            coeff = coeff if prev is None else prev + coeff
            if coeff.is_zero():
                terms.pop(expo, None)
            else:
                terms[expo] = coeff
        _set_ring(self, ring)
        _set_variables(self, variables)
        _set_order(self, order)
        _set_terms(self, terms)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    @classmethod
    def from_terms(cls, ring: RingDescriptor, variables, order: int, mapping) -> "TruncatedSeries":
        return cls(ring, variables, order, mapping)

    @classmethod
    def zero(cls, ring, variables, order) -> "TruncatedSeries":
        return _series(ring, tuple(variables), order, {})

    @classmethod
    def constant(cls, value: GradedRingElement, variables, order) -> "TruncatedSeries":
        zero_expo = (0,) * len(tuple(variables))
        return cls.from_terms(value.ring, variables, order, {zero_expo: value})

    @classmethod
    def variable(cls, ring, variables, symbol, order) -> "TruncatedSeries":
        variables = tuple(variables)
        idx = variables.index(symbol)
        expo = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls.from_terms(ring, variables, order, {expo: GradedRingElement.one(ring)})

    # -- structure queries -------------------------------------------------

    def coefficient(self, expo) -> GradedRingElement:
        return self.terms.get(tuple(expo), GradedRingElement.zero(self.ring))

    def constant_term(self) -> GradedRingElement:
        return self.coefficient((0,) * len(self.variables))

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous_of_degree(self, d: int) -> bool:
        """Check that the x^e coefficient has ring degree d - |e| throughout."""
        return all(
            coeff.is_homogeneous(d - sum(expo)) for expo, coeff in self.terms.items()
        )

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.variables == other.variables
            and self.order == other.order
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, self.variables, self.order, frozenset(self.terms)))

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "TruncatedSeries"):
        if self.ring != other.ring:
            raise RingMismatchError("series over different rings")
        if self.variables != other.variables or self.order != other.order:
            raise ValueError("series with different variables or orders")

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(e, None)
            else:
                terms[e] = s
        return _series(self.ring, self.variables, self.order, terms)

    def __neg__(self):
        return _series(
            self.ring, self.variables, self.order, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GradedRingElement)):
            return self.scale(other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._check_compatible(other)
        order = self.order
        right = [(e2, c2, sum(e2)) for e2, c2 in other.terms.items()]
        acc: dict = {}
        for e1, c1 in self.terms.items():
            room = order - sum(e1)
            for e2, c2, d2 in right:
                if d2 > room:
                    continue
                expo = tuple(map(add, e1, e2))
                c = c1 * c2
                prev = acc.get(expo)
                c = c if prev is None else prev + c
                if c._mono:
                    acc[expo] = c
                else:
                    acc.pop(expo, None)
        return _series(self.ring, self.variables, self.order, acc)

    __rmul__ = __mul__

    def scale(self, value) -> "TruncatedSeries":
        if not isinstance(value, GradedRingElement):
            value = GradedRingElement.scalar(self.ring, value)
        terms = {}
        for e, c in self.terms.items():
            p = c * value
            if p._mono:
                terms[e] = p
        return _series(self.ring, self.variables, self.order, terms)

    # -- substitution --------------------------------------------------------

    def substitute_many(self, images: dict) -> "TruncatedSeries":
        """Simultaneously replace every variable by a series.

        All images must share one variable tuple, ring and order, and have a
        zero constant term.
        """
        if not self.variables:
            raise ValueError("series has no variables to substitute")
        missing = [v for v in self.variables if v not in images]
        if missing:
            raise ValueError(f"no image given for variables {missing}")
        picked = [images[v] for v in self.variables]
        target = picked[0]
        for t in picked[1:]:
            target._check_compatible(t)
        if target.ring != self.ring:
            raise RingMismatchError("substitution images over a different ring")
        for t in picked:
            if not t.constant_term().is_zero():
                raise SubstitutionError("substitution target has a nonzero constant term")
        variables, order = target.variables, target.order
        one = TruncatedSeries.constant(GradedRingElement.one(self.ring), variables, order)
        powers = [[one] for _ in picked]

        def power_of(i, n):
            cache = powers[i]
            while len(cache) <= n:
                cache.append(cache[-1] * picked[i])
            return cache[n]

        # Horner-like in the variable whose image has the most terms (the
        # first on ties): sum each group's inner series, then multiply it by
        # one power of that image
        h = max(range(len(picked)), key=lambda i: (len(picked[i].terms), -i))
        groups: dict = {}
        for expo, coeff in self.terms.items():
            rest = one
            for i, e in enumerate(expo):
                if e and i != h:
                    rest = power_of(i, e) if rest is one else rest * power_of(i, e)
            piece = rest.scale(coeff)
            groups[expo[h]] = groups[expo[h]] + piece if expo[h] in groups else piece
        out = TruncatedSeries.zero(self.ring, variables, order)
        for eh, inner in groups.items():
            out = out + (inner * power_of(h, eh) if eh else inner)
        return out

    def substitute(self, symbol: str, image: "TruncatedSeries") -> "TruncatedSeries":
        """Replace one variable; remaining variables map to themselves.

        The image fixes the variable tuple of the result, so every other
        variable of this series must appear among the image's variables.
        """
        if symbol not in self.variables:
            raise ValueError(f"series has no variable {symbol!r}")
        images = {symbol: image}
        for v in self.variables:
            if v == symbol:
                continue
            if v not in image.variables:
                raise ValueError(f"variable {v!r} is absent from the substitution target")
            images[v] = TruncatedSeries.variable(image.ring, image.variables, v, image.order)
        return self.substitute_many(images)

    def lift(self, variables) -> "TruncatedSeries":
        """Reinterpret over a larger ordered variable tuple."""
        variables = tuple(variables)
        positions = [variables.index(v) for v in self.variables]
        terms = {}
        for expo, coeff in self.terms.items():
            new = [0] * len(variables)
            for pos, e in zip(positions, expo):
                new[pos] = e
            terms[tuple(new)] = coeff
        return _series(self.ring, variables, self.order, terms)

    def truncated(self, order: int) -> "TruncatedSeries":
        """The same series modulo total degree above a lower `order`."""
        if not 0 <= order <= self.order:
            raise ValueError(f"cannot truncate a series of order {self.order} to order {order}")
        terms = {e: c for e, c in self.terms.items() if sum(e) <= order}
        return _series(self.ring, self.variables, order, terms)

    # -- univariate tools ------------------------------------------------------

    def _require_univariate(self):
        if len(self.variables) != 1:
            raise ValueError("operation requires a single-variable series")

    def multiplicative_inverse(self) -> "TruncatedSeries":
        """Inverse of a series with constant term 1, by geometric expansion."""
        one = GradedRingElement.one(self.ring)
        if self.constant_term() != one:
            raise ValueError("inverse requires constant term 1")
        tail = self - TruncatedSeries.constant(one, self.variables, self.order)
        result = TruncatedSeries.constant(one, self.variables, self.order)
        power = result
        for _ in range(self.order):
            power = power * (-tail)
            if power.is_zero():
                break
            result = result + power
        return result

    def integrate(self) -> "TruncatedSeries":
        """Term-wise antiderivative with zero constant, for rational rings."""
        self._require_univariate()
        if not self.ring.rational:
            raise ValueError("integration requires rational scalars")
        terms = {}
        for (e,), c in self.terms.items():
            if e + 1 > self.order:
                continue
            terms[(e + 1,)] = c * Fraction(1, e + 1)
        return TruncatedSeries.from_terms(self.ring, self.variables, self.order, terms)

    def reversion(self) -> "TruncatedSeries":
        """The compositional inverse of x + (higher order)."""
        self._require_univariate()
        one = GradedRingElement.one(self.ring)
        if not self.constant_term().is_zero():
            raise ValueError("reversion requires zero constant term")
        if self.coefficient((1,)) != one:
            raise ValueError("reversion requires linear coefficient 1 (non-unit linear coefficient)")
        var = self.variables[0]
        x = TruncatedSeries.variable(self.ring, self.variables, var, self.order)
        return solve_by_order(x, lambda s, k: self.truncated(k).substitute(var, s))

    # -- rendering ----------------------------------------------------------------

    def __repr__(self):
        return f"<series[{','.join(self.variables)}]<= {self.order}: {self}>"

    def __str__(self):
        return render_series(self)


# slot descriptors: they set a slot without going through __setattr__
_set_ring, _set_variables, _set_order, _set_terms = (
    vars(TruncatedSeries)[slot].__set__ for slot in TruncatedSeries.__slots__
)


def _series(ring, variables: tuple, order: int, terms: dict) -> TruncatedSeries:
    """A series from checked parts, without copying or checks."""
    s = object.__new__(TruncatedSeries)
    _set_ring(s, ring)
    _set_variables(s, variables)
    _set_order(s, order)
    _set_terms(s, terms)
    return s


def solve_by_order(start: TruncatedSeries, composite) -> TruncatedSeries:
    """Correct a univariate series term by term: step k = 2..order
    subtracts the x^k coefficient of composite(s, k), a series of order k
    built from s, the series so far, truncated to order k."""
    s = start
    for k in range(2, start.order + 1):
        c = composite(s.truncated(k), k).coefficient((k,))
        if not c.is_zero():
            s = s - _series(s.ring, s.variables, s.order, {(k,): c})
    return s


def render_series(s: TruncatedSeries) -> str:
    if not s.terms:
        return "0"
    pieces = []
    for expo, coeff in sorted(s.terms.items(), key=lambda ec: (sum(ec[0]), ec[0])):
        var_parts = []
        for e, v in zip(expo, s.variables):
            if e == 0:
                continue
            var_parts.append(v if e == 1 else f"{v}^{e}")
        var_str = "*".join(var_parts)
        coeff_str = render_element(coeff)
        if not var_str:
            body = f"({coeff_str})" if len(coeff._mono) > 1 else coeff_str
        elif coeff == GradedRingElement.one(s.ring):
            body = var_str
        elif coeff == -GradedRingElement.one(s.ring):
            body = f"-{var_str}"
        elif len(coeff._mono) > 1:
            body = f"({coeff_str})*{var_str}"
        else:
            body = f"{coeff_str}*{var_str}"
        pieces.append(body)
    out = pieces[0]
    for p in pieces[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


def parse_series(ring: RingDescriptor, variables, order: int, text: str) -> TruncatedSeries:
    """Parse the element syntax extended with the given variables."""
    from .gring import Generator, parse_element

    variables = tuple(variables)
    extended = RingDescriptor(
        ring.name + "#series",
        ring.generators + tuple(Generator(v, 1) for v in variables),
        "Q" if ring.rational else "Z",
        None,
    )
    flat = parse_element(extended, text)
    n = len(ring.generators)
    terms: dict = {}
    for mono, coeff in flat._pairs():
        ring_part, var_part = mono[:n], mono[n:]
        elem = GradedRingElement.from_terms(ring, {ring_part: coeff})
        prev = terms.get(var_part)
        elem = elem if prev is None else prev + elem
        terms[var_part] = elem
    return TruncatedSeries.from_terms(ring, variables, order, terms)
