from math import comb

import pytest

import motivec.dsl
from motivec.dsl import print_space
from motivec.spaces import (
    POINT,
    Cell,
    Cellular,
    DisjointUnion,
    EquidimensionalityViolation,
    SpaceExpr,
    grassmannian,
    normalize,
    projective_space,
    quadric,
    walk_dag,
)


def test_point_dim():
    assert POINT.dim() == 0


def test_projective_space_structure():
    p1 = projective_space(1)
    assert p1.cells == (Cell(POINT, 1, 0), Cell(POINT, 0, 1))
    p0 = projective_space(0)
    assert p0.cells == (Cell(POINT, 0, 0),)
    for n in range(0, 9):
        assert projective_space(n).dim() == n


def test_quadric_dims():
    for d in range(0, 9):
        assert quadric(d).dim() == 2 * d


def test_quadric_structure():
    q1 = quadric(1)
    assert q1.cells == (Cell(projective_space(1), 1, 0), Cell(projective_space(1), 0, 1))
    assert quadric(3).dim() == 6
    q0 = quadric(0)
    assert q0 == DisjointUnion(POINT, POINT)


def test_grassmannian_extremes():
    assert grassmannian(2, 2) == POINT
    assert grassmannian(0, 5) == POINT


def test_grassmannian_line_case_matches_projective_space():
    for n in range(1, 8):
        assert normalize(grassmannian(1, n)) == normalize(projective_space(n - 1))


def test_grassmannian_2_4_cells():
    g = grassmannian(2, 4)
    bases = [c.base for c in g.cells]
    assert bases == [grassmannian(1, 3), grassmannian(1, 2), grassmannian(1, 1)]
    assert [c.rank for c in g.cells] == [2, 1, 0]
    assert [c.codim for c in g.cells] == [0, 2, 4]
    assert g.dim() == 4


def test_grassmannian_dimension_formula():
    for n in range(0, 9):
        for d in range(0, n + 1):
            assert grassmannian(d, n).dim() == d * (n - d)


def test_grassmannian_rejects_bad_arguments():
    with pytest.raises(ValueError):
        grassmannian(3, 2)
    with pytest.raises(ValueError):
        grassmannian(-1, 2)


def test_grassmannian_cache_does_not_answer_a_float_with_an_int_build():
    def outcome():
        try:
            return grassmannian(1, 3.0)
        except TypeError:
            return TypeError

    grassmannian.cache_clear()
    before = outcome()
    grassmannian(1, 3)
    assert before is TypeError and outcome() is TypeError


def test_cell_validation():
    with pytest.raises(ValueError):
        Cell(POINT, -1, 0)
    with pytest.raises(ValueError):
        Cell(POINT, 0, -2)


def test_cellular_needs_cells_and_ordered_codims():
    with pytest.raises(ValueError):
        Cellular([])
    with pytest.raises(ValueError):
        Cellular([Cell(POINT, 0, 1)])  # first codim must be 0
    with pytest.raises(ValueError):
        Cellular([Cell(POINT, 1, 0), Cell(POINT, 1, 0)])  # not strictly increasing


def test_equidimensionality_violation():
    bad = Cellular([Cell(POINT, 2, 0), Cell(POINT, 0, 1)])
    with pytest.raises(EquidimensionalityViolation):
        bad.dim()
    mixed = DisjointUnion(POINT, projective_space(1))
    with pytest.raises(EquidimensionalityViolation):
        mixed.dim()


def test_structural_equality_ignores_names():
    a = Cellular([Cell(POINT, 1, 0), Cell(POINT, 0, 1)], name="one")
    b = Cellular([Cell(POINT, 1, 0), Cell(POINT, 0, 1)], name="two")
    assert a == b
    assert a == projective_space(1)


def test_flag_count_matches_binomial():
    def leaves(space):
        if space is POINT or isinstance(space, type(POINT)):
            return 1
        if isinstance(space, DisjointUnion):
            return leaves(space.left) + leaves(space.right)
        return sum(leaves(c.base) for c in space.cells)

    for n in range(0, 9):
        for d in range(0, n + 1):
            assert leaves(grassmannian(d, n)) == comb(n, d)


def test_cell_is_an_immutable_checked_record():
    cell = Cell(POINT, 1, 0)
    assert repr(cell) == "Cell(base=Point(), rank=1, codim=0)"
    assert cell == Cell(base=POINT, rank=1, codim=0)
    assert hash(cell) == hash((POINT, 1, 0))
    with pytest.raises(AttributeError):
        cell.rank = 2
    with pytest.raises(AttributeError):
        cell.extra = 1
    with pytest.raises(ValueError, match="^cell rank must be a nonnegative integer, got -1$"):
        Cell(POINT, -1, 0)
    with pytest.raises(ValueError, match="^cell codim must be a nonnegative integer, got -2$"):
        Cell(POINT, 0, -2)
    with pytest.raises(ValueError, match="^cell rank must be a nonnegative integer, got 1.5$"):
        Cell(POINT, 1.5, 0)
    with pytest.raises(ValueError, match="^cell rank must be a nonnegative integer, got True$"):
        Cell(POINT, True, 0)  # print_space would write `rank = True`, which parse_space refuses
    with pytest.raises(ValueError, match="^cell codim must be a nonnegative integer, got False$"):
        Cell(POINT, 0, False)


def distinct_nodes(space) -> int:
    visited = []
    walk_dag(space, lambda node, _: visited.append(node))
    return len(visited)


def test_normalize_keeps_shared_nodes_shared():
    space = grassmannian(9, 18)
    flat = normalize(space)
    assert flat == space
    assert distinct_nodes(flat) == distinct_nodes(space) == 74


def test_hash_keeps_its_formula():
    p1 = projective_space(1)
    assert hash(POINT) == hash("point")
    assert hash(p1) == hash(p1.cells)
    assert hash(DisjointUnion(p1, POINT)) == hash((p1, POINT))


def test_equality_compares_structure_not_just_hashes():
    a = Cellular([Cell(POINT, 1, 0), Cell(POINT, 0, 1)])
    b = Cellular([Cell(POINT, 0, 0), Cell(POINT, 1, 1)])
    object.__setattr__(b, "_hash", hash(a))  # a forced collision
    assert a != b
    assert DisjointUnion(a, a) != DisjointUnion(a, b)
    assert type(POINT)() == POINT and POINT != 0
    assert projective_space(2) == Cellular([Cell(POINT, 2 - i, i) for i in range(3)])
    assert projective_space(1) != DisjointUnion(POINT, POINT)


def test_union_repr_shows_one_level():
    p1 = projective_space(1)
    assert repr(DisjointUnion(POINT, POINT)) == "DisjointUnion(Point(), Point())"
    assert repr(DisjointUnion(DisjointUnion(p1, p1), p1)) == (
        "DisjointUnion(DisjointUnion(...), Cellular<P(1)>)"
    )


def shared_tower(levels: int) -> SpaceExpr:
    """Level k is one cell over union(s, s), s being level k - 1, over P(2)."""
    space = projective_space(2)
    for _ in range(levels):
        space = Cellular([Cell(DisjointUnion(space, space), 0, 0)])
    return space


def deep_union(depth: int) -> SpaceExpr:
    space = POINT
    for _ in range(depth):
        space = DisjointUnion(POINT, space)
    return space


def nodes_by_id(space) -> dict[int, SpaceExpr]:
    """The distinct nodes under `space`, found by a stack of their own."""
    found, todo = {}, [space]
    while todo:
        node = todo.pop()
        if id(node) not in found:
            found[id(node)] = node
            todo.extend(node.parts())
    return found


@pytest.mark.parametrize("build, size, count, twists", [
    (shared_tower, 100, 202, 3 * 2**100),  # POINT, P(2), and a union and a cell per level
    (deep_union, 100_000, 100_001, 100_001),
], ids=["tower", "deep"])
def test_walk_visits_each_distinct_node_once_after_its_parts(build, size, count, twists):
    space = build(size)
    nodes = nodes_by_id(space)
    visited = {}  # each visited node's value, by node id, in visit order

    def twist_count(node, parts):
        assert id(node) not in visited
        assert parts == [visited[id(part)] for part in node.parts()]  # visited, and in order
        visited[id(node)] = sum(parts) or 1
        return visited[id(node)]

    assert walk_dag(space, twist_count) == twists
    assert len(visited) == len(nodes) == count and set(visited) == set(nodes)


def test_walk_takes_parts_left_to_right():
    left, right = projective_space(1), Cellular([Cell(POINT, 1, 0)])
    space = DisjointUnion(left, right)
    visited = []
    walk_dag(space, lambda node, _: visited.append(id(node)))
    assert visited == [id(POINT), id(left), id(right), id(space)]


def test_walk_counts_a_value_of_none_as_set():
    space = shared_tower(100)
    calls = []
    assert walk_dag(space, lambda node, parts: calls.append(parts)) is None
    assert len(calls) == 202
    assert {part for parts in calls for part in parts} == {None}


def test_printing_a_user_space_visits_no_node_inside_a_builtin(monkeypatch):
    g = grassmannian(8, 16)
    inside = set(nodes_by_id(g)) - {id(g)}
    assert len(inside) == 57
    user = Cellular([Cell(DisjointUnion(g, g), 1, 0)], name="top")
    walked = []

    def walk(space, visit, leaf):  # the walk asks `leaf` of every node it reaches
        return walk_dag(space, visit, lambda node: walked.append(id(node)) or leaf(node))

    monkeypatch.setattr(motivec.dsl, "walk_dag", walk)
    assert print_space(user) == "space top {\n  cell { base = union(Gr(8,16), Gr(8,16)); rank = 1; codim = 0 }\n}\n"
    assert id(g) in walked and not inside & set(walked)


@pytest.mark.parametrize("root", [3, None, "point", Cell(POINT, 0, 0)])
def test_walk_refuses_a_root_that_is_not_a_space(root):
    with pytest.raises(TypeError, match="^not a space expression: "):
        walk_dag(root, lambda node, _: None)
