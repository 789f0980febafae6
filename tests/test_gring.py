import random
from fractions import Fraction

import pytest

from motivec.dsl import ParseError
from motivec.gring import (
    CHOW_RING,
    K0_RING,
    Generator,
    GradedRingElement,
    RingDescriptor,
    RingMismatchError,
    TruncationError,
    component_rank,
    parse_element,
    render_element,
    substitute_generators,
    universal_ring,
)
from motivec.series import parse_series

U3 = universal_ring(3)


def gen(ring, symbol, power=1):
    return GradedRingElement.generator(ring, symbol, power)


def scalar(ring, v):
    return GradedRingElement.scalar(ring, v)


def test_like_terms_merge():
    b = gen(K0_RING, "b")
    assert b + b == scalar(K0_RING, 2) * b


def test_additive_inverse_cancels():
    m1 = gen(U3, "m_1")
    assert (m1 + (-m1)).is_zero()


def test_mixed_cancellation():
    e = scalar(K0_RING, 2) + gen(K0_RING, "b", -1)
    assert e - 2 == gen(K0_RING, "b", -1)


def test_laurent_unit():
    b = gen(K0_RING, "b")
    binv = gen(K0_RING, "b", -1)
    assert b * binv == scalar(K0_RING, 1)


def test_degree_additivity():
    m1, m2 = gen(U3, "m_1"), gen(U3, "m_2")
    prod = m1 * m2
    assert prod.degrees() == [-3]
    assert prod == GradedRingElement(U3, {(1, 1, 0): 1})
    assert prod.coefficient((1, 1, 0)) == 1 and prod.coefficient((3, 0, 0)) == 0


def test_truncation_drops_deep_monomials():
    u2 = universal_ring(2)
    prod = gen(u2, "m_1") * gen(u2, "m_2")
    assert prod.is_zero()


def test_component_rank_chow():
    assert component_rank(CHOW_RING, 0).basis_strings() == ["1"]
    assert component_rank(CHOW_RING, 1).rank == 0
    assert component_rank(CHOW_RING, -3).rank == 0


def test_component_rank_k0_every_degree():
    for k in range(-4, 5):
        desc = component_rank(K0_RING, k)
        assert desc.rank == 1
        assert desc.monomials == ((-k,),)


def test_component_rank_universal_oracle():
    # independent enumeration: count exponent vectors with sum(i * e_i) = -k
    def count(n, k):
        total = 0

        def rec(i, remaining):
            nonlocal total
            if i > n:
                if remaining == 0:
                    total += 1
                return
            for e in range(remaining // i + 1):
                rec(i + 1, remaining - e * i)

        rec(1, -k)
        return total

    for n in (2, 3, 5):
        ring = universal_ring(n)
        for k in range(-n, 1):
            assert component_rank(ring, k).rank == count(n, k)


def test_component_rank_universal_basis_order():
    desc = component_rank(U3, -2)
    assert desc.basis_strings() == ["m_2", "m_1^2"]


def test_component_rank_universal_truncation_error():
    with pytest.raises(TruncationError):
        component_rank(U3, -4)


def test_ring_mismatch_rejected():
    ops = (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y)
    k0s = (gen(K0_RING, "b"), GradedRingElement.zero(K0_RING))
    u3s = (gen(U3, "m_1"), GradedRingElement.zero(U3))
    for a in k0s:
        for b in u3s:
            for left, right in ((a, b), (b, a)):
                for op in ops:
                    with pytest.raises(RingMismatchError) as info:
                        op(left, right)
                    assert str(info.value) == (
                        f"cannot combine elements of {left.ring.name!r} and {right.ring.name!r}"
                    )


def random_element(rng, ring, nterms=4):
    width = len(ring.generators)
    terms = {}
    for _ in range(nterms):
        mono = tuple(
            rng.randint(-2, 2) if g.invertible else rng.randint(0, 2)
            for g in ring.generators
        )
        coeff = rng.randint(-4, 4)
        if ring.rational and rng.random() < 0.4:
            coeff = Fraction(coeff, rng.randint(1, 3))
        if width == 0:
            mono = ()
        terms[mono] = terms.get(mono, 0) + coeff
    return GradedRingElement(ring, terms)


@pytest.mark.parametrize("ring", [CHOW_RING, K0_RING, U3])
def test_ring_axioms_randomized(ring):
    rng = random.Random(11)
    one = GradedRingElement.one(ring)
    for _ in range(40):
        a, b, c = (random_element(rng, ring) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * one == a
        assert a + GradedRingElement.zero(ring) == a


def test_product_degrees_are_sums():
    rng = random.Random(3)
    for _ in range(30):
        a, b = random_element(rng, K0_RING), random_element(rng, K0_RING)
        allowed = {da + db for da in a.degrees() for db in b.degrees()}
        assert set((a * b).degrees()) <= allowed


def test_canonical_form_unique():
    a = gen(U3, "m_1") + gen(U3, "m_2")
    b = gen(U3, "m_2") + gen(U3, "m_1")
    assert a == b and a.terms == b.terms


def test_truncation_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        e = random_element(rng, U3)
        again = GradedRingElement(U3, e.terms)
        assert again == e


def test_render_and_parse_round_trip():
    rng = random.Random(13)
    for ring in (CHOW_RING, K0_RING, U3):
        for _ in range(25):
            e = random_element(rng, ring)
            assert parse_element(ring, render_element(e)) == e


def test_render_unit_and_fraction():
    assert render_element(GradedRingElement.one(U3)) == "1"
    assert render_element(scalar(U3, Fraction(3, 2))) == "3/2"
    assert render_element(GradedRingElement.zero(U3)) == "0"
    assert repr(scalar(U3, 2)) == "<universal(3): 2>" and bool(scalar(U3, 2))
    assert repr(scalar(U3, Fraction(3, 2))) == "<universal(3): 3/2>" and bool(scalar(U3, Fraction(3, 2)))
    assert not GradedRingElement.zero(U3)
    u5 = universal_ring(5)
    e = GradedRingElement(u5, {(2, 0, 1, 0, 0): 1})
    assert render_element(e) == "m_1^2*m_3"


def test_parse_rejects_garbage():
    for text, message in [
        ("m_1 + + 2", "line 1, col 7: expected a term, got '+'"),
        ("", "line 1, col 1: expected a term, got end of input"),
        ("(m_1 + 2", "line 1, col 9: expected ), got end of input"),
        ("m_1^x", "line 1, col 5: expected an integer exponent after '^', got 'x'"),
        ("2/m_1", "line 1, col 3: expected a denominator after '/', got 'm_1'"),
        ("m_1 m_2", "line 1, col 5: expected an operator or end of input, got 'm_2'"),
        ("m_1 $ 2", "line 1, col 5: unexpected character '$'"),
    ]:
        with pytest.raises(ParseError) as info:
            parse_element(U3, text)
        assert str(info.value) == message
    with pytest.raises(KeyError):
        parse_element(U3, "q_7")


def test_parentheses_nest_to_any_depth():
    assert parse_element(CHOW_RING, "(" * 1000 + "1" + ")" * 1000) == 1
    with pytest.raises(ParseError) as info:
        parse_element(CHOW_RING, "(" * 1000 + "1")
    assert str(info.value) == "line 1, col 1002: expected ), got end of input"
    m1, m2 = gen(U3, "m_1"), gen(U3, "m_2")
    text = "-(m_1 - (2*m_2 + (-1/3)))*m_1 + (m_2)*(-m_1^-0 + 2) - 3"
    assert parse_element(U3, text) == -(m1 - (2 * m2 - Fraction(1, 3))) * m1 + m2 - 3


def test_a_zero_denominator_is_refused_at_the_denominator():
    with pytest.raises(ParseError, match=r"^line 1, col 3: zero denominator$"):
        parse_element(U3, "1/0")
    with pytest.raises(ParseError, match=r"^line 1, col 11: zero denominator$"):
        parse_series(U3, ("x",), 3, "m_1*x + 2/00")


def test_a_number_past_the_digit_limit_is_refused_at_its_position():
    with pytest.raises(ParseError, match=r"^line 1, col 3: number of 5000 digits is too long$"):
        parse_element(U3, "1/" + "7" * 5000)
    # at the limit the number still reads
    assert parse_element(U3, "1/" + "7" * 4300) == GradedRingElement.scalar(U3, Fraction(1, int("7" * 4300)))


def test_substitute_generators_kills_and_maps():
    m1, m2 = gen(U3, "m_1"), gen(U3, "m_2")
    e = m1 * m1 + m2
    killed = substitute_generators(
        e, U3, {"m_1": GradedRingElement.zero(U3), "m_2": GradedRingElement.zero(U3)}
    )
    assert killed.is_zero()


def test_integral_ring_rejects_fractions():
    with pytest.raises(ValueError):
        scalar(K0_RING, Fraction(1, 2))


def test_convert_element_checks_integrality():
    from motivec.gring import convert_element

    k0_q = K0_RING.rationalized()
    third = scalar(k0_q, Fraction(1, 3)) * gen(k0_q, "b")
    with pytest.raises(ValueError):
        convert_element(third, K0_RING)
    assert convert_element(scalar(k0_q, 2), K0_RING) == scalar(K0_RING, 2)
    with pytest.raises(RingMismatchError):
        convert_element(scalar(k0_q, 2), U3)


def test_substitute_generators_keeps_laurent_identity():
    from motivec.gring import substitute_generators

    k0_q = K0_RING.rationalized()
    binv = gen(k0_q, "b", -1)
    assert substitute_generators(binv, k0_q, {}) == binv


def test_ring_records_are_immutable_value_tuples():
    b = K0_RING.generators[0]
    assert repr(b) == "Generator(symbol='b', degree=-1, invertible=True)"
    assert repr(CHOW_RING) == "RingDescriptor(name='chow', generators=(), field='Z', truncation=None)"
    desc = component_rank(K0_RING, 2)
    assert repr(desc) == f"ModuleDescription(field='Z', ring={K0_RING!r}, monomials=((-2,),))"
    assert Generator("m_1", -1) == Generator(symbol="m_1", degree=-1, invertible=False)
    assert hash(b) == hash(("b", -1, True))
    assert universal_ring(3) == RingDescriptor("universal(3)", U3.generators, "Q", truncation=3)
    for record, field in ((b, "degree"), (U3, "truncation"), (desc, "monomials")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_ring_descriptor_validation():
    x = Generator("x", -1)
    with pytest.raises(ValueError, match="^duplicate generator symbols in ring 'r'$"):
        RingDescriptor("r", (x, Generator("x", -2)), "Q")
    with pytest.raises(ValueError, match="^scalar field must be 'Z' or 'Q', got 'R'$"):
        RingDescriptor("r", (x,), "R")
    with pytest.raises(ValueError, match="^truncation bound must be >= 0$"):
        RingDescriptor("r", (x,), "Q", truncation=-1)
    assert RingDescriptor("r", (x,), "Q", 0).truncation == 0


def test_scalar_elements_hash_as_their_scalars():
    one = GradedRingElement.one(CHOW_RING)
    assert one == 1 and len({one, 1}) == 1
    half = GradedRingElement.scalar(universal_ring(3), Fraction(1, 2))
    assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
    zero = GradedRingElement.zero(K0_RING)
    assert zero == 0 and {zero: "z"}[0] == "z"
    b = GradedRingElement.generator(K0_RING, "b")
    assert len({b, b * 1, GradedRingElement.generator(K0_RING, "b")}) == 1


def test_constructor_checks_its_terms():
    zero = GradedRingElement(CHOW_RING, {(): 0})
    assert zero.is_zero() and zero == 0 and str(zero) == "0"
    with pytest.raises(ValueError, match="^non-integer scalar 1/2 in an integral ring$"):
        GradedRingElement(CHOW_RING, {(): Fraction(1, 2)})
    assert GradedRingElement(universal_ring(2), {(0, 5): 1}).is_zero()  # degree -10, past the bound
    with pytest.raises(TypeError):  # degrees are read off the terms, never given
        GradedRingElement(universal_ring(2), {(0, 1): 1}, (7,))
    assert GradedRingElement(universal_ring(2), {(0, 1): 1}).degrees() == [-2]
    for ring, terms in ((U3, {(1, 0, 0): 2, (0, 1, 0): Fraction(1, 3), (0, 0, 0): 0}),
                        (K0_RING, {(-2,): 3}), (CHOW_RING, {})):
        assert GradedRingElement(ring, terms).terms == {m: c for m, c in terms.items() if c}
