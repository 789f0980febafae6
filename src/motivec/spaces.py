"""The recursive data model of relative cellular spaces.

A space is a point, a binary disjoint union, or a filtered space given by
an ordered list of cells; each cell carries a base space, the rank of the
affine bundle over that base, and the codimension of the filtration step.
Codimensions strictly increase from 0.  Equality between spaces is
structural and ignores display names.

Spaces are immutable DAGs whose sub-spaces are often shared (the
Grassmannian recursion, references in the text format).  Walks over
them go through :func:`walk_dag`, which visits each shared node once and
keeps its own stack, so deep chains do not hit the recursion limit; the
dimension of each node is computed once and cached on it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache


class EquidimensionalityViolation(ValueError):
    """The per-cell dimensions codim + rank + dim(base) disagree."""


class SpaceExpr:
    """Base class for space expressions."""

    _dim: int | None = None  # cached once known; see _settle_dims

    def dim(self) -> int:
        raise NotImplementedError

    def parts(self) -> tuple["SpaceExpr", ...]:
        """The sub-spaces this node is built from, in order."""
        raise NotImplementedError


def walk_dag(space: SpaceExpr, settled, visit) -> None:
    """Visit every unsettled node under `space` once, its parts first.

    `settled(node)` says whether a node's value is already known; a
    settled node is neither visited nor descended into.  `visit(node)`
    runs once all the node's parts are settled and must settle it.  The
    walk keeps an explicit stack, so its depth is not bounded by Python's
    recursion limit, and takes parts left to right, so errors surface in
    the order a recursive walk would meet them.
    """
    stack = [space]
    while stack:
        node = stack[-1]
        if not isinstance(node, SpaceExpr):
            raise TypeError(f"not a space expression: {node!r}")
        if settled(node):
            stack.pop()
            continue
        pending = [p for p in node.parts() if not settled(p)]
        if pending:
            stack.extend(reversed(pending))
        else:
            stack.pop()
            visit(node)


def _settle_dims(space: SpaceExpr) -> int:
    walk_dag(
        space,
        lambda node: node._dim is not None,
        lambda node: object.__setattr__(node, "_dim", node._own_dim()),
    )
    return space._dim


class Point(SpaceExpr):
    _dim = 0

    def dim(self) -> int:
        return 0

    def parts(self) -> tuple:
        return ()

    def __eq__(self, other):
        return isinstance(other, Point)

    def __hash__(self):
        return hash("point")

    def __repr__(self):
        return "Point()"


POINT = Point()


class Cell(namedtuple("Cell", "base rank codim")):
    __slots__ = ()

    def __new__(cls, base, rank, codim):
        if not isinstance(rank, int) or rank < 0:
            raise ValueError(f"cell rank must be a nonnegative integer, got {rank}")
        if not isinstance(codim, int) or codim < 0:
            raise ValueError(f"cell codim must be a nonnegative integer, got {codim}")
        return super().__new__(cls, base, rank, codim)


class Cellular(SpaceExpr):
    """A filtered space: nonempty cells with codims strictly increasing from 0."""

    __slots__ = ("cells", "name", "expr_form", "_dim")

    def __init__(self, cells, name: str | None = None, expr_form: str | None = None):
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
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "expr_form", expr_form)
        object.__setattr__(self, "_dim", None)

    def __setattr__(self, name, value):
        raise AttributeError("Cellular is immutable")

    def dim(self) -> int:
        return self._dim if self._dim is not None else _settle_dims(self)

    def parts(self) -> tuple[SpaceExpr, ...]:
        return tuple(c.base for c in self.cells)

    def _own_dim(self) -> int:
        values = [c.codim + c.rank + c.base._dim for c in self.cells]
        if len(set(values)) != 1:
            raise EquidimensionalityViolation(
                f"cells of {self.name or 'space'} give dimensions {values}"
            )
        return values[0]

    def __eq__(self, other):
        if not isinstance(other, Cellular):
            return NotImplemented
        return self.cells == other.cells

    def __hash__(self):
        return hash(self.cells)

    def __repr__(self):
        label = self.expr_form or self.name or f"{len(self.cells)} cells"
        return f"Cellular<{label}>"


class DisjointUnion(SpaceExpr):
    """Two components side by side; both must have the same dimension."""

    __slots__ = ("left", "right", "_dim")

    def __init__(self, left: SpaceExpr, right: SpaceExpr):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "_dim", None)

    def __setattr__(self, name, value):
        raise AttributeError("DisjointUnion is immutable")

    def dim(self) -> int:
        return self._dim if self._dim is not None else _settle_dims(self)

    def parts(self) -> tuple[SpaceExpr, ...]:
        return (self.left, self.right)

    def _own_dim(self) -> int:
        dl, dr = self.left._dim, self.right._dim
        if dl != dr:
            raise EquidimensionalityViolation(
                f"union components have dimensions {dl} and {dr}"
            )
        return dl

    def __eq__(self, other):
        if not isinstance(other, DisjointUnion):
            return NotImplemented
        return self.left == other.left and self.right == other.right

    def __hash__(self):
        return hash((self.left, self.right))

    def __repr__(self):
        return f"DisjointUnion({self.left!r}, {self.right!r})"


# -- builders ---------------------------------------------------------------


def projective_space(n: int) -> SpaceExpr:
    """Cells i = 0..n over a point with rank n-i and codim i."""
    if n < 0:
        raise ValueError("projective space dimension must be >= 0")
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
    base = projective_space(d)
    return Cellular(
        [Cell(base, d, 0), Cell(base, 0, d)],
        name=f"quadric({d})",
        expr_form=f"quadric({d})",
    )


def normalize(space: SpaceExpr) -> SpaceExpr:
    """Collapse cells that add nothing: a single cell of rank 0 and codim 0
    over some base is that base."""
    if isinstance(space, DisjointUnion):
        return DisjointUnion(normalize(space.left), normalize(space.right))
    if isinstance(space, Cellular):
        cells = tuple(Cell(normalize(c.base), c.rank, c.codim) for c in space.cells)
        if len(cells) == 1 and cells[0].rank == 0 and cells[0].codim == 0:
            return cells[0].base
        return Cellular(cells, name=space.name, expr_form=space.expr_form)
    return space


@lru_cache(maxsize=None)
def grassmannian(d: int, n: int) -> SpaceExpr:
    """d-planes in n-space, by the recursive hyperplane filtration.

    Cell i sits over grassmannian(d-1, n-1-i) with rank (n-i)-d and
    codim d*i; the recursion grounds out at a point when d is 0 or n.
    """
    if d < 0 or n < 0 or d > n:
        raise ValueError(f"need 0 <= d <= n, got d={d}, n={n}")
    if d == 0 or d == n:
        return POINT
    cells = [
        Cell(grassmannian(d - 1, n - 1 - i), (n - i) - d, d * i)
        for i in range(n - d + 1)
    ]
    return Cellular(cells, name=f"Gr({d},{n})", expr_form=f"Gr({d},{n})")
