"""Ring-shape refusals, ring by ring: what listing a component, a table or the
group ranks, and finding a unit monomial give on rings of every shape.

Each row holds, for one ring, `component_rank(ring, k)` for k = -2..2,
`realize_table` and `group_ranks` on the motive (0, 1) and on the empty
motive, and `motives._unit_key(ring, d)` for d = -2..2: the error's type
and text where one is raised, else the result.  The periodic-unit refusal
comes before the enumeration refusals in a table and in the ranks, also on
an empty motive; a component gives only the enumeration refusals.  Every
ring is built without a refusal, degree-1 variables included.
"""

import pytest

from motivec import gring, motives
from motivec.gring import CHOW_RING, K0_RING, Generator, RingDescriptor, component_rank, universal_ring
from motivec.motives import TateMotive, group_ranks, realize_table
from motivec.theory import OrientedTheory


def unit(symbol, degree):
    return Generator(symbol, degree, invertible=True)


def outcome(call):
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


BESIDE = (NotImplementedError, "degree enumeration with invertible generators is only "
          "supported for a single Laurent generator")
DEGREE_0 = NotImplementedError, "a Laurent generator of degree 0 has infinitely many monomials"
TRUNCATED = NotImplementedError, "a truncated ring with a Laurent generator is not supported"
NOT_NEGATIVE = NotImplementedError, "degree enumeration requires all generators in negative degrees"


def period(degree):
    return NotImplementedError, f"a periodic table needs a Laurent unit of degree 1 or -1, not {degree}"


PERIODIC_EMPTY = [(((0, ()),), True), ({0: 0}, True)]  # the table and the ranks of no twists
EMPTY = [((), False), ({}, False)]
POINT_PAIR = [(((0, ((),)), (1, ((),))), False), ({0: 1, 1: 1}, False)]

# ring: [components at -2..2], [table and ranks of (0, 1), then of ()], [unit keys at -2..2]
ROWS = [
    (RingDescriptor("two", (unit("a", 1), unit("b", -1)), "Z"),
     [BESIDE] * 5, [BESIDE] * 2 + PERIODIC_EMPTY, [None, None, (0, 0), None, None]),
    (RingDescriptor("mixed", (unit("b", -1), Generator("m", -2)), "Z"),
     [BESIDE] * 5, [BESIDE] * 2 + PERIODIC_EMPTY, [(2, 0), (1, 0), (0, 0), (-1, 0), (-2, 0)]),
    (RingDescriptor("u0", (unit("b", 0),), "Z"),
     [DEGREE_0] * 5, [period(0)] * 4, [None, None, (0,), None, None]),
    (RingDescriptor("u2", (unit("b", 2),), "Z"),
     [((-1,),), (), ((0,),), (), ((1,),)], [period(2)] * 4, [(-1,), None, (0,), None, (1,)]),
    (RingDescriptor("u-2", (unit("b", -2),), "Z"),
     [((1,),), (), ((0,),), (), ((-1,),)], [period(-2)] * 4, [(1,), None, (0,), None, (-1,)]),
    (RingDescriptor("tu", (unit("b", -1),), "Z", 3),
     [TRUNCATED] * 5, [TRUNCATED] * 2 + PERIODIC_EMPTY, [(2,), (1,), (0,), (-1,), (-2,)]),
    (RingDescriptor("x0", (Generator("x", 0),), "Z"),
     [NOT_NEGATIVE] * 5, [NOT_NEGATIVE] * 2 + EMPTY, [None, None, (0,), None, None]),
    (RingDescriptor("x1", (Generator("x", 1),), "Z"),
     [NOT_NEGATIVE] * 5, [NOT_NEGATIVE] * 2 + EMPTY, [None, None, (0,), None, None]),
    (RingDescriptor("scalar", (), "Z"),
     [(), (), ((),), (), ()], POINT_PAIR + EMPTY, [None, None, (), None, None]),
    (CHOW_RING, [(), (), ((),), (), ()], POINT_PAIR + EMPTY, [None, None, (), None, None]),
    (K0_RING, [((2,),), ((1,),), ((0,),), ((-1,),), ((-2,),)],
     [(((0, ((0,), (1,))),), True), ({0: 2}, True)] + PERIODIC_EMPTY,
     [(2,), (1,), (0,), (-1,), (-2,)]),
    (universal_ring(3),
     [((0, 1, 0), (2, 0, 0)), ((1, 0, 0),), ((0, 0, 0),), (), ()],
     [(((-2, ((0, 1, 0), (2, 0, 0), (0, 0, 1), (1, 1, 0), (3, 0, 0))),
        (-1, ((1, 0, 0), (0, 1, 0), (2, 0, 0))), (0, ((0, 0, 0), (1, 0, 0))), (1, ((0, 0, 0),))),
       False), ({-2: 5, -1: 3, 0: 2, 1: 1}, False)] + EMPTY,
     [None, None, (0, 0, 0), None, None]),
]


def table(motive, theory):
    t = realize_table(motive, theory)
    return tuple((k, desc.monomials) for k, desc in t.entries), t.periodic


def unit_monomial(ring, degree):
    key = motives._unit_key(ring, degree)
    return None if key is None else gring._decode(key, ring)


@pytest.mark.parametrize("ring, components, tables, units", ROWS, ids=[r[0].name for r in ROWS])
def test_each_ring_shape_gives_its_rows(ring, components, tables, units):
    theory = OrientedTheory(ring.name, ring, 1, None)  # its law is never built
    assert [outcome(lambda: component_rank(ring, k).monomials) for k in range(-2, 3)] == components
    assert [outcome(lambda: read(motive, theory))
            for motive in (TateMotive((0, 1)), TateMotive()) for read in (table, group_ranks)] == tables
    assert [outcome(lambda: unit_monomial(ring, d)) for d in range(-2, 3)] == units
