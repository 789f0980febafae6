"""A space node's dimension and hash, given when it is built, against a
recursive reference.

`reference_dim` and `reference_hash` recompute both from the parts, as the
settling walk over the DAG did: the dimension is codim + rank + dim(base)
of every cell, agreed on by all of them, or the first violation met in a
left-to-right walk that visits each node after its parts; the hash is
``hash("point")``, ``hash(cells)`` or ``hash((left, right))``.  A node
that is neither a space nor built over spaces is refused when it is built.
"""

import random

import pytest

from motivec.dsl import parse_document
from motivec.spaces import (
    POINT,
    Cell,
    Cellular,
    DisjointUnion,
    EquidimensionalityViolation,
    Point,
    grassmannian,
    projective_space,
    quadric,
)

from test_dsl import _random_document


class Hashed:
    """Stands in a tuple for a node whose hash is `value`."""

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def reference_dim(space, memo=None):
    """The dimension, or the text of the first violation, by recursion."""
    memo = {} if memo is None else memo
    if id(space) not in memo:
        if isinstance(space, Point):
            memo[id(space)] = 0
        elif isinstance(space, DisjointUnion):
            left, right = (reference_dim(p, memo) for p in (space.left, space.right))
            if isinstance(left, str) or isinstance(right, str):
                memo[id(space)] = left if isinstance(left, str) else right
            elif left != right:
                memo[id(space)] = f"union components have dimensions {left} and {right}"
            else:
                memo[id(space)] = left
        else:
            bases = [reference_dim(c.base, memo) for c in space.cells]
            failed = [b for b in bases if isinstance(b, str)]
            values = [c.codim + c.rank + b for c, b in zip(space.cells, bases)] if not failed else []
            if failed:
                memo[id(space)] = failed[0]
            elif len(set(values)) != 1:
                memo[id(space)] = f"cells of {space.name or 'space'} give dimensions {values}"
            else:
                memo[id(space)] = values[0]
    return memo[id(space)]


def reference_hash(space, memo=None):
    memo = {} if memo is None else memo
    if id(space) not in memo:
        if isinstance(space, Point):
            memo[id(space)] = hash("point")
        elif isinstance(space, DisjointUnion):
            memo[id(space)] = hash(tuple(Hashed(reference_hash(p, memo))
                                         for p in (space.left, space.right)))
        else:
            memo[id(space)] = hash(tuple((Hashed(reference_hash(c.base, memo)), c.rank, c.codim)
                                         for c in space.cells))
    return memo[id(space)]


def read_dim(space):
    try:
        return space.dim()
    except EquidimensionalityViolation as exc:
        return str(exc)


def builtins():
    spaces = [POINT] + [projective_space(n) for n in range(8)] + [quadric(d) for d in range(6)]
    return spaces + [grassmannian(d, n) for n in range(17) for d in range(min(n, 8) + 1)]


def seeded_spaces(seed: int, count: int):
    """Random DAGs built with the API, over built-ins, equidimensional or not."""
    rng = random.Random(seed)
    nodes = [POINT, projective_space(1), projective_space(2), quadric(1), grassmannian(2, 4)]
    for k in range(count):
        if rng.random() < 0.4:
            nodes.append(DisjointUnion(rng.choice(nodes), rng.choice(nodes)))
        else:
            codims = sorted(rng.sample(range(1, 5), rng.randint(0, 2)))
            cells = [Cell(rng.choice(nodes), rng.randint(0, 2), c) for c in [0] + codims]
            nodes.append(Cellular(cells, name=rng.choice((None, f"s{k}"))))
    return nodes


def test_builtins_up_to_gr_8_16_match_the_reference():
    for space in builtins():
        assert space.dim() == reference_dim(space), space
        assert hash(space) == reference_hash(space), space


@pytest.mark.parametrize("seed", range(4))
def test_seeded_spaces_match_the_reference(seed):
    dims = set()
    for space in seeded_spaces(seed, 300):
        dims.add(isinstance(read_dim(space), str))
        assert read_dim(space) == reference_dim(space), space
        assert hash(space) == reference_hash(space), space
    assert dims == {False, True}  # both dimensions and violations were met


def test_seeded_documents_match_the_reference():
    rng = random.Random(11)
    for _ in range(60):
        for space in parse_document(_random_document(rng)).values():
            assert space.dim() == reference_dim(space)
            assert hash(space) == reference_hash(space)


def test_a_violation_is_kept_and_raised_on_each_read():
    bad = Cellular([Cell(POINT, 1, 0), Cell(POINT, 0, 2)], name="bad")
    above = DisjointUnion(projective_space(3), Cellular([Cell(bad, 0, 0)]))
    for _ in range(3):
        with pytest.raises(EquidimensionalityViolation, match=r"^cells of bad give dimensions \[1, 2\]$"):
            above.dim()
    assert hash(above) == reference_hash(above)


@pytest.mark.parametrize("build", [
    lambda: Cellular([Cell(POINT, 0, 0), Cell(3, 0, 1)]),
    lambda: Cellular([Cell("point", 0, 0)]),
    lambda: DisjointUnion(POINT, 3),
    lambda: DisjointUnion(None, POINT),
])
def test_a_node_over_a_non_space_is_refused_when_built(build):
    with pytest.raises(TypeError, match=r"^not a space expression: "):
        build()
