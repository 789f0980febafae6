"""The recursive data model of relative cellular spaces.

A space is a point, a binary disjoint union, or a filtered space given by
an ordered list of cells; each cell carries a base space, the rank of the
affine bundle over that base, and the codimension of the filtration step.
Codimensions strictly increase from 0.  Equality between spaces is
structural and ignores display names.

Spaces are immutable DAGs whose sub-spaces are often shared (the
Grassmannian recursion, references in the text format).  A node is given
its dimension and hash when it is built, from those of its parts.  No walk
recurses: :func:`normalize`, printing and folding are each one `visit` of
:func:`walk_dag`, which hands each visit its parts' values, returns the
root's and visits each shared node once; `SpaceExpr.__eq__` compares each
node pair once and the printer writes a union's text, each on its own
stack.  A point, like a built-in family, carries its own text as
`expr_form`, so the printer writes it without walking it.  The built-in
families count their cells first and refuse more than MAX_CELLS.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .gring import Frozen


MAX_CELLS = 20_000  # cells a built-in space may have, over its distinct nodes


class EquidimensionalityViolation(ValueError):
    """The per-cell dimensions codim + rank + dim(base) disagree."""


class SpaceExpr(Frozen):
    """Base class for space expressions.  A node's `_dim` and `_hash` are
    set when it is built; `_dim` holds the first violation under the node,
    in walk order, if there is one."""

    __slots__ = ()
    _dim: int | EquidimensionalityViolation
    _hash: int

    def dim(self) -> int:
        """The dimension; raises the first violation under this node."""
        dim = self._dim
        if isinstance(dim, EquidimensionalityViolation):
            raise dim.with_traceback(None)  # each raise would lengthen a kept traceback
        return dim

    def parts(self) -> tuple["SpaceExpr", ...]:
        """The sub-spaces this node is built from, in order; a point has none."""
        return ()

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        """Structural equality, names ignored.  Each pair of nodes is
        compared once, without recursion; unequal hashes reject."""
        if not isinstance(other, SpaceExpr):
            return NotImplemented
        todo, seen = [(self, other)], set()
        while todo:
            a, b = todo.pop()
            if a is b or (id(a), id(b)) in seen:
                continue
            if type(a) is not type(b) or hash(a) != hash(b):
                return False
            if isinstance(a, Cellular) and [c[1:] for c in a.cells] != [c[1:] for c in b.cells]:
                return False
            seen.add((id(a), id(b)))
            todo.extend(zip(a.parts(), b.parts()))
        return True


def walk_dag(space: SpaceExpr, visit, leaf=None):
    """The value of `space`, built from its parts' values.

    `visit(node, parts)` runs once per distinct node, after its parts,
    and returns the node's value; `parts` holds the values of
    `node.parts()`, in that order, and a value of None counts as set.
    Where `leaf(node)` is not None, it is the node's value and the node's
    parts are not walked.  The walk keeps an explicit stack, so its depth
    is not bounded by Python's recursion limit, and takes parts left to
    right, so errors surface in the order a recursive walk would meet them.
    """
    _violation((space,))  # refuses a non-space; the parts of a built node are spaces
    values: dict[int, object] = {}  # by node id: `space` keeps every node alive
    stack: list = [space]  # nodes to reach; None over a node whose parts are done
    while stack:
        node = stack.pop()
        if node is None:
            node = stack.pop()
            values[id(node)] = visit(node, [values[id(p)] for p in node.parts()])
        elif id(node) in values:
            continue
        elif leaf is not None and (value := leaf(node)) is not None:
            values[id(node)] = value
        else:
            stack += (node, None, *reversed(node.parts()))
    return values[id(space)]


def _violation(parts) -> EquidimensionalityViolation | None:
    """The first violation under `parts`, if any; refuses a part that is not a space."""
    for part in parts:
        if not isinstance(part, SpaceExpr):
            raise TypeError(f"not a space expression: {part!r}")
    return next((p._dim for p in parts if isinstance(p._dim, EquidimensionalityViolation)), None)


class Point(SpaceExpr):
    __slots__ = ()
    _dim = 0
    _hash = hash("point")
    expr_form = "point"  # its text, as a built-in's

    def __repr__(self):
        return "Point()"


POINT = Point()


class Cell(namedtuple("Cell", "base rank codim")):
    __slots__ = ()

    def __new__(cls, base, rank, codim):
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
            raise ValueError(f"cell rank must be a nonnegative integer, got {rank}")
        if not isinstance(codim, int) or isinstance(codim, bool) or codim < 0:
            raise ValueError(f"cell codim must be a nonnegative integer, got {codim}")
        return super().__new__(cls, base, rank, codim)


class Cellular(SpaceExpr):
    """A filtered space: nonempty cells with codims strictly increasing from 0."""

    __slots__ = ("cells", "name", "expr_form", "_dim", "_hash")

    def __new__(cls, cells, name: str | None = None, expr_form: str | None = None):
        cells = tuple(cells)
        if not cells:
            raise ValueError("a cellular space needs at least one cell")
        if cells[0].codim != 0:
            raise ValueError(f"first cell must have codim 0, got {cells[0].codim}")
        for prev, cur in zip(cells, cells[1:]):
            if cur.codim <= prev.codim:
                raise ValueError(
                    f"cell codims must strictly increase, got {prev.codim} then {cur.codim}"
                )
        dim = _violation([c.base for c in cells])
        if dim is None:
            values = [c.codim + c.rank + c.base._dim for c in cells]
            dim = values[0] if len(set(values)) == 1 else EquidimensionalityViolation(
                f"cells of {name or 'space'} give dimensions {values}")
        return cls._new(cells, name, expr_form, dim, hash(cells))

    def parts(self) -> tuple[SpaceExpr, ...]:
        return tuple(c.base for c in self.cells)

    def __repr__(self):
        label = self.expr_form or self.name or f"{len(self.cells)} cells"
        return f"Cellular<{label}>"


class DisjointUnion(SpaceExpr):
    """Two components side by side; both must have the same dimension."""

    __slots__ = ("left", "right", "_dim", "_hash")

    def __new__(cls, left: SpaceExpr, right: SpaceExpr):
        dim = _violation((left, right))
        if dim is None:
            dim = left._dim if left._dim == right._dim else EquidimensionalityViolation(
                f"union components have dimensions {left._dim} and {right._dim}")
        return cls._new(left, right, dim, hash((left, right)))

    def parts(self) -> tuple[SpaceExpr, ...]:
        return (self.left, self.right)

    def __repr__(self):
        # one level only: a shared union tower's full form doubles per level
        left, right = (
            "DisjointUnion(...)" if isinstance(p, DisjointUnion) else repr(p) for p in self.parts()
        )
        return f"DisjointUnion({left}, {right})"


# -- builders ---------------------------------------------------------------


def _check_cells(name: str, count: int) -> None:
    """Refuse a built-in space of more than MAX_CELLS cells before building it."""
    if count > MAX_CELLS:
        raise ValueError(f"{name} has {count} cells, more than the {MAX_CELLS} it may have")


def projective_space(n: int) -> SpaceExpr:
    """Cells i = 0..n over a point with rank n-i and codim i."""
    if n < 0:
        raise ValueError("projective space dimension must be >= 0")
    _check_cells(f"P({n})", n + 1)
    cells = [Cell(POINT, n - i, i) for i in range(n + 1)]
    return Cellular(cells, name=f"P({n})", expr_form=f"P({n})")


def quadric(d: int) -> SpaceExpr:
    """The split 2d-dimensional quadric: two projective-space cells.

    The middle-dimensional projective space appears once as the base of a
    rank-d bundle at codim 0 and once as the codim-d closed stratum.  At
    d = 0 the space degenerates to two disjoint points.
    """
    if d < 0:
        raise ValueError("quadric parameter must be >= 0")
    if d == 0:
        return DisjointUnion(POINT, POINT)
    _check_cells(f"quadric({d})", d + 3)  # its own two and those of P(d)
    base = projective_space(d)
    return Cellular(
        [Cell(base, d, 0), Cell(base, 0, d)],
        name=f"quadric({d})",
        expr_form=f"quadric({d})",
    )


def normalize(space: SpaceExpr) -> SpaceExpr:
    """Collapse cells that add nothing: a single cell of rank 0 and codim 0
    over some base is that base.  Shared nodes stay shared."""

    def visit(node, parts):
        if isinstance(node, DisjointUnion):
            return DisjointUnion(*parts)
        if isinstance(node, Point):
            return node
        cells = tuple(Cell(base, c.rank, c.codim) for c, base in zip(node.cells, parts))
        if len(cells) == 1 and cells[0].rank == 0 and cells[0].codim == 0:
            return cells[0].base
        return Cellular(cells, name=node.name, expr_form=node.expr_form)

    return walk_dag(space, visit)


@lru_cache(maxsize=None, typed=True)
def grassmannian(d: int, n: int) -> SpaceExpr:
    """d-planes in n-space, by the recursive hyperplane filtration.

    Cell i sits over Gr(d-1, n-1-i) with rank (n-i)-d and codim d*i; the
    recursion grounds out at a point when d is 0 or n.  Its distinct nodes
    hold (n-d+1) + (d-1)(n-d)(n-d+3)/2 cells in all.  They are built bottom
    up, one d at a time, so no call recurses, whatever d is.
    """
    if d < 0 or n < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if d == 0 or d == n:
        return POINT
    _check_cells(f"Gr({d},{n})", (n - d + 1) + (d - 1) * (n - d) * (n - d + 3) // 2)
    k = n - d
    row = [POINT] * (k + 1)  # row[j] is Gr(e, e + j), from e = 0 up
    for e in range(1, d + 1):
        # the top level needs only Gr(d, n); the ones below need every j
        row = [POINT] + [
            Cellular([Cell(row[j - i], j - i, e * i) for i in range(j + 1)],
                     name=f"Gr({e},{e + j})", expr_form=f"Gr({e},{e + j})")
            for j in range(1 if e < d else k, k + 1)
        ]
    return row[-1]


# the built-in families: head -> (builder, argument names), the one list that
# the command line (P:n) and the text format (P(n)) read them from
BUILTINS = {
    "P": (projective_space, ("n",)),
    "quadric": (quadric, ("d",)),
    "Gr": (grassmannian, ("d", "n")),
}
