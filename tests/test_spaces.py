from math import comb

import pytest

from motivec.spaces import (
    POINT,
    Cell,
    Cellular,
    DisjointUnion,
    EquidimensionalityViolation,
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
    seen = set()
    walk_dag(space, lambda node: id(node) in seen, lambda node: seen.add(id(node)))
    return len(seen)


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
