"""Truncated multivariate power series over a graded coefficient ring.

Variables all sit in degree +1; coefficients are exact ring elements.
Terms beyond a fixed total variable degree are dropped everywhere, so all
operations are exact statements about the quotient by that order.

The product is one fused loop (`_mul_into`, after Monagan & Pearce's
accumulation into packed terms, cited in `gring`): a factor lists each
coefficient by its homogeneous parts, and for each output exponent the
term products of every pair of parts are summed into one dict by
`gring._accumulate`, with one element built at the end, so a series
product makes no ring product.  A pair is kept or dropped once, by the
factors' total exponents and its one degree.  Only kept keys are checked
for an exponent out of its packed field.  `scale` refuses a factor of
another ring as the ring product does, even on a zero series.

Substitution is Horner-like: terms are grouped by the exponent of the
variable whose image has the most terms, each group is summed in place and
multiplied by one power of that image, and each power is built only to the
order its groups need.

Reversion, the formal inverse and the group law's logarithm share one
order-by-order solver, :func:`solve_by_order` (the method of Brent & Kung,
J. ACM 25(4), 1978): step k reads the x^k coefficient of each power of the
series from a table that holds only the powers the equation reads, one new
coefficient per power and step.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, itemgetter

from .gring import (
    Frozen,
    GradedRingElement,
    RingDescriptor,
    RingMismatchError,
    _accumulate,
    _checked,
    _element,
    _key_degrees,
    _power_product,
    _signed_sum,
    render_element,
)


class SubstitutionError(ValueError):
    """Raised when a substitution target has a nonzero constant term."""


class TruncatedSeries(Frozen):
    """A sparse series in named variables, truncated in total degree."""

    __slots__ = ("ring", "variables", "order", "terms")

    def __new__(cls, ring: RingDescriptor, variables, order: int, mapping):
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
        return cls._new(ring, variables, order, terms)

    @classmethod
    def zero(cls, ring, variables, order) -> "TruncatedSeries":
        return _series(ring, tuple(variables), order, {})

    @classmethod
    def constant(cls, value: GradedRingElement, variables, order) -> "TruncatedSeries":
        zero_expo = (0,) * len(tuple(variables))
        return cls(value.ring, variables, order, {zero_expo: value})

    @classmethod
    def variable(cls, ring, variables, symbol, order) -> "TruncatedSeries":
        variables = tuple(variables)
        idx = variables.index(symbol)
        expo = tuple(1 if i == idx else 0 for i in range(len(variables)))
        return cls(ring, variables, order, {expo: GradedRingElement.one(ring)})

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
        return ((self.ring, self.variables, self.order, self.terms)
                == (other.ring, other.variables, other.order, other.terms))

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
        acc: dict = {}
        _mul_into(acc, self.ring, self.order, _factor(self.terms), _factor(other.terms))
        return _collect(self.ring, self.variables, self.order, acc)

    __rmul__ = __mul__

    def scale(self, value) -> "TruncatedSeries":
        if not isinstance(value, GradedRingElement):
            value = GradedRingElement.scalar(self.ring, value)
        elif value.ring is not self.ring:  # refused as a coefficient product is, terms or none
            GradedRingElement.zero(self.ring)._check_ring(value)
        acc: dict = {}
        constant = {(0,) * len(self.variables): value}
        _mul_into(acc, self.ring, self.order, _factor(self.terms), _factor(constant))
        return _collect(self.ring, self.variables, self.order, acc)

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
        # first on ties): sum each group's inner series in place, then add its
        # product by one power of that image into the result.  Group n needs
        # power n only up to the order less its lowest total exponent, and
        # power n + 1 needs power n one exponent lower than itself, since the
        # image has no constant term: each power is built to that order only
        h = max(range(len(picked)), key=lambda i: (len(picked[i].terms), -i))
        ring, groups = self.ring, {}
        for expo, coeff in self.terms.items():
            rest = one
            for i, e in enumerate(expo):
                if e and i != h:
                    rest = power_of(i, e) if rest is one else rest * power_of(i, e)
            _mul_into(groups.setdefault(expo[h], {}), ring, order, _factor(rest.terms),
                      _factor({(0,) * len(variables): coeff}))
        inner = {n: _factor(_collect(ring, variables, order, g).terms) for n, g in groups.items()}
        top = max(inner, default=0)
        limits, limit = [order] * (top + 1), -1  # the order power n is built to
        for n in range(top, 0, -1):
            if inner.get(n):  # a factor lists its lowest total exponent first
                limit = max(limit, order - inner[n][0][1])
            limits[n], limit = limit, limit - 1
        image, power, out = _factor(picked[h].terms), _factor(one.terms), {}
        for n in range(top + 1):
            if n:
                acc: dict = {}
                _mul_into(acc, ring, limits[n], power, image)
                power = _factor(_collect(ring, variables, order, acc).terms)
            if inner.get(n):
                _mul_into(out, ring, order, inner[n], power)
        return _collect(ring, variables, order, out)

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

    # -- reversion -----------------------------------------------------------

    def reversion(self) -> "TruncatedSeries":
        """The compositional inverse of x + (higher order)."""
        if len(self.variables) != 1:
            raise ValueError("operation requires a single-variable series")
        if not self.constant_term().is_zero():
            raise ValueError("reversion requires zero constant term")
        if self.order and self.coefficient((1,)) != GradedRingElement.one(self.ring):
            raise ValueError("reversion requires linear coefficient 1 (non-unit linear coefficient)")
        x = TruncatedSeries.variable(self.ring, self.variables, self.variables[0], self.order)
        return solve_by_order(x, {(0, e): c for (e,), c in self.terms.items()})

    # -- rendering ----------------------------------------------------------------

    def __repr__(self):
        return f"<series[{','.join(self.variables)}]<= {self.order}: {self}>"

    def __str__(self):
        return render_series(self)


_series = TruncatedSeries._new  # a series from checked parts, without copying or checks


# -- the fused product ---------------------------------------------------------


_total = itemgetter(1)


def _factor(terms: dict) -> list:
    """(exponent, total exponent, packed terms, degree) per homogeneous part
    of each coefficient of a series, in order of total exponent."""
    out = []
    for e, c in terms.items():
        ds = c._degrees()
        if len(ds) == 1:
            out.append((e, sum(e), c._mono, ds[0]))
        else:  # a zero coefficient has no part
            parts = {}
            for (k, v), d in zip(c._mono.items(), _key_degrees(c.ring, c._mono)):
                parts.setdefault(d, {})[k] = v
            out += [(e, sum(e), m, d) for d, m in parts.items()]
    out.sort(key=_total)
    return out


def _mul_into(acc: dict, ring: RingDescriptor, order: int, left: list, right: list) -> None:
    """Add the product of two factors (see `_factor`) into `acc`, which maps
    an exponent to [packed terms, degree or None]: each pair of parts within
    `order` lies in one degree, is dropped whole past the ring's bound, and
    otherwise adds its term products to its exponent's terms through
    `gring._accumulate`, with no element built."""
    bias, bound = ring._unit, ring.truncation
    for e1, s1, m1, d1 in left:
        room = order - s1
        for e2, s2, m2, d2 in right:
            if s2 > room:
                break
            d = d1 + d2
            if bound is not None and (d > bound or -d > bound):
                continue
            expo = tuple(map(add, e1, e2))
            entry = acc.get(expo)
            if entry is None:
                entry = acc[expo] = [{}, d]
            elif entry[1] != d:
                entry[1] = None
            _accumulate(entry[0], m1.items(), m2.items(), bias)


def _collect(ring: RingDescriptor, variables, order: int, acc: dict) -> TruncatedSeries:
    """The series of the summed terms in `acc` (see `_mul_into`); a kept key
    with an exponent out of its packed field raises the ring product's
    ValueError."""
    terms = {}
    for expo, (mono, d) in acc.items():
        if mono:
            terms[expo] = _element(ring, _checked(ring, mono), None if d is None else (d,))
    return _series(ring, variables, order, terms)


def solve_by_order(start: TruncatedSeries, outer: dict) -> TruncatedSeries:
    """Correct a univariate series s term by term until G(x, s) has no x^k
    term for k = 2..order, where G is the sum of outer[i, j] x^i y^j over
    the keys (i, j) and has y-coefficient 1: step k subtracts the x^k
    coefficient of G(x, s) from that of s.  That coefficient is read from
    a table of the powers of s up to the largest j among the keys, one
    coefficient per step and power: s has no constant term, so the x^k
    coefficient of s^j, j >= 2, involves only the coefficients of s that
    the steps before have fixed, and x^i s^j has no term below x^(i + j)."""
    ring, order = start.ring, start.order
    top = max((j for _, j in outer), default=1)  # the highest power of s that G reads
    zero = GradedRingElement.zero(ring)
    s = [start.coefficient((d,)) for d in range(order + 1)]
    powers = [[GradedRingElement.one(ring)] + [zero] * order, s]  # [j][d]: x^d in s^j
    powers += [[zero] * (order + 1) for _ in range(2, top + 1)]
    for k in range(2, order + 1):
        for j in range(2, min(k, top) + 1):
            below = powers[j - 1]
            powers[j][k] = sum((s[a] * below[k - a] for a in range(1, k - j + 2)), zero)
        c = sum((g * powers[j][k - i] for (i, j), g in outer.items() if i + j <= k), zero)
        s[k] = s[k] - c
    return _series(ring, start.variables, order, {(d,): c for d, c in enumerate(s) if c._mono})


def render_series(s: TruncatedSeries) -> str:
    if not s.terms:
        return "0"
    pieces = []
    for expo, coeff in sorted(s.terms.items(), key=lambda ec: (sum(ec[0]), ec[0])):
        var_str = _power_product(s.variables, expo)
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
    return _signed_sum(pieces)


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
    n, groups = len(ring.generators), {}  # the ring terms of each variable monomial
    for mono, coeff in flat._pairs():
        groups.setdefault(mono[n:], {})[mono[:n]] = coeff
    terms = {expo: GradedRingElement(ring, group) for expo, group in groups.items()}
    return TruncatedSeries(ring, variables, order, terms)
