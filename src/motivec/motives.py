"""Twist multisets and graded matrix morphisms between them.

A motive here is a finite multiset of nonnegative twist integers, stored
only as its histogram: sorted (twist, multiplicity) pairs.  A morphism of
degree c between two motives, over a theory's coefficient ring, sends
twist s to twist t through the one ring component of degree c + s - t, so
it is stored only by twist blocks: one scalar matrix per monomial of that
component.  The positional views, the expanded twist tuple and the dense
entry matrix, are built each time they are read.
Composition sums block products over the middle twist, duality reflects
the blocks through the ambient dimensions, and the tensor product takes
Kronecker products of blocks over the sums of twists; the projectors of
the projective bundle theorem are tensor products with an identity.

The module also carries the two decomposition routes for cellular spaces
(accumulating bundle ranks or stratum codimensions, by one fold over the
space DAG), projector splitting, and realization of motives as graded
modules over the coefficient ring, with their ranks also counted from the
ring's Hilbert series without listing a basis.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, chain, product
from math import lcm

from .gring import (
    Frozen,
    GradedRingElement,
    ModuleDescription,
    RingMismatchError,
    _checked,
    _element,
    _encode,
    _normalize_scalar,
    check_enumerable,
    component_rank,
)
from .spaces import DisjointUnion, Point, SpaceExpr, walk_dag
from .theory import OrientedTheory

MAX_TWISTS = 1 << 24  # the largest motive whose twist tuple may be expanded


class NotIdempotentError(ValueError):
    """The given endomorphism does not square to itself."""


class NonSplittableError(ValueError):
    """The degree-0 part is not a scalar-field matrix; refusing to guess."""


class TateMotive(Frozen):
    """A finite multiset of nonnegative twists, stored as a histogram.

    `histogram` holds sorted (twist, multiplicity) pairs with positive
    multiplicities and `size` their total; nothing else is stored.
    """

    __slots__ = ("histogram", "size")

    def __new__(cls, twists=()):
        return cls.from_histogram((t, 1) for t in twists)

    @classmethod
    def from_histogram(cls, pairs) -> "TateMotive":
        """The motive with the given (twist, multiplicity) pairs, in any
        order; repeated twists add up and zero multiplicities drop out.
        A twist or multiplicity that is not an int, or is a bool, raises a TypeError."""
        counts: dict[int, int] = {}
        for t, m in pairs:
            if not (isinstance(t, int) and isinstance(m, int)) or bool in (type(t), type(m)):
                raise TypeError(f"twist and multiplicity must be integers, got ({t!r}, {m!r})")
            if m < 0:
                raise ValueError(f"negative multiplicity {m} of twist {t}")
            if m:
                counts[int(t)] = counts.get(int(t), 0) + int(m)
        return cls._of(tuple(sorted(counts.items())))

    @classmethod
    def _of(cls, histogram) -> "TateMotive":
        """Wrap a histogram that is already sorted, merged and positive."""
        if histogram and histogram[0][0] < 0:
            raise ValueError(f"negative twist {histogram[0][0]}")
        return cls._new(histogram, sum(m for _, m in histogram))

    @property
    def twists(self) -> tuple:
        """The sorted twists, one per generator, expanded from the histogram
        on each read; refused with a ValueError past MAX_TWISTS."""
        require_listable(self)
        return tuple(t for t, m in self.histogram for _ in range(m))

    def __len__(self):
        return self.size

    def __iter__(self):
        return iter(self.twists)

    def __eq__(self, other):
        if not isinstance(other, TateMotive):
            return NotImplemented
        return self.histogram == other.histogram

    def __hash__(self):
        return hash(self.histogram)

    def __repr__(self):
        # the histogram, not the twists: a motive can have astronomically many
        return f"TateMotive.from_histogram({self.histogram})"

    def shifted(self, k: int) -> "TateMotive":
        return TateMotive._of(tuple((t + k, m) for t, m in self.histogram))

    def dual(self, dim: int) -> "TateMotive":
        if self.histogram and self.histogram[-1][0] > dim:
            raise ValueError(
                f"ambient dimension {dim} is below the twist {self.histogram[-1][0]}"
            )
        return TateMotive._of(tuple((dim - t, m) for t, m in reversed(self.histogram)))

    def as_json(self) -> list[int]:
        return list(self.twists)


def _refuse_past(count: int, whole: str, items: str) -> None:
    """Refuse, with a ValueError, to list a `whole` of more than MAX_TWISTS `items`."""
    if count > MAX_TWISTS:
        raise ValueError(f"{whole} has {count} {items}, more than the {MAX_TWISTS} it may list")


def require_listable(*motives: TateMotive) -> None:
    """Refuse, with a ValueError, a motive of more than MAX_TWISTS twists."""
    for m in motives:
        _refuse_past(m.size, "motive", "twists")


class Correspondence(Frozen):
    """A graded matrix morphism between twist multisets over a theory.

    Its (j, i) entry lies in A^(degree + s - t), s and t the twists of
    source generator i and target generator j, so it is kept by twist:
    `blocks[(t, s)]` maps each packed monomial of that component (see
    `gring.RingDescriptor`) to a scalar matrix, one row per generator of twist t
    and one column per generator of twist s, as lists never changed once
    built.  Zero matrices and blocks are absent.  Only the blocks are
    stored: the dense constructor cuts its rows into them, and `entries`,
    the dense matrix over the expanded twist tuples, is rebuilt on each read.
    """

    __slots__ = ("theory", "source", "target", "degree", "blocks")

    def __new__(cls, theory: OrientedTheory, source: TateMotive, target: TateMotive,
                degree: int, entries):
        entries = tuple(map(tuple, entries))
        if len(entries) != target.size:
            raise ValueError(f"expected {target.size} rows, got {len(entries)}")
        ring, blocks, columns = theory.ring, {}, None
        for j, row in enumerate(entries):
            if len(row) != source.size:
                raise ValueError(f"row {j} has {len(row)} columns, expected {source.size}")
            if row and columns is None:  # the twist lists are read once an entry needs them
                columns, rows, cols_at, rows_at = (source.twists, target.twists,
                                                   _spans(source), _spans(target))
            for i, (e, s) in enumerate(zip(row, columns or ())):
                if not isinstance(e, GradedRingElement):
                    raise TypeError("entries must be graded ring elements")
                if e.ring is not ring and e.ring != ring:
                    raise RingMismatchError("entry over the wrong coefficient ring")
                degs, t = e._degrees(), rows[j]
                if not degs:
                    continue
                if degs != (degree + s - t,):  # the degree of block (t, s)
                    raise ValueError(f"entry ({j},{i}) must be homogeneous of degree "
                                     f"{degree + s - t}, got degrees {list(degs)}")
                block, height, width = blocks.setdefault((t, s), {}), rows_at[t], cols_at[s]
                for k, v in e._mono.items():
                    m = block.get(k) or block.setdefault(k, [[0] * len(width) for _ in height])
                    m[j - height.start][i - width.start] = v
        return cls._new(theory, source, target, degree, blocks)  # a nonempty row listed both twists

    @property
    def entries(self) -> tuple:
        """The dense matrix of ring elements, one row per target generator,
        built entry by entry from the blocks on each read."""
        return tuple(tuple(self.entry(j, i) for i in range(self.source.size))
                     for j in range(self.target.size))

    def _shape(self) -> tuple:
        return self.theory, self.source, self.target, self.degree

    def __eq__(self, other):
        if not isinstance(other, Correspondence):
            return NotImplemented
        return self._shape() == other._shape() and self.blocks == other.blocks

    def __hash__(self):
        return hash((self._shape(), frozenset(self.blocks)))

    def __repr__(self):
        return (f"<corr {self.source.histogram} -> {self.target.histogram} "
                f"deg {self.degree} over {self.theory.name}>")

    def entry(self, j: int, i: int) -> GradedRingElement:
        """Entry (j, i), built from its one block alone."""
        (t, r), (s, c) = _position(self.target, j), _position(self.source, i)
        return _block_element(self.theory.ring, self.blocks.get((t, s), {}), r, c,
                              self.degree + s - t)

    def is_zero(self) -> bool:
        return not self.blocks

    def __add__(self, other, sign=1):
        if not isinstance(other, Correspondence):
            return NotImplemented
        if self._shape() != other._shape():
            raise ValueError("can only add morphisms of identical shape and degree")
        blocks = {ts: dict(b) for ts, b in self.blocks.items()}
        for ts, b in other.blocks.items():
            block = blocks.setdefault(ts, {})
            for k, m in b.items():
                mine = block.get(k) or [[0] * len(m[0])] * len(m)
                block[k] = [[x + sign * y for x, y in zip(u, v)] for u, v in zip(mine, m)]
        return _make(*self._shape(), _pruned(self.theory.ring, blocks))

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __matmul__(self, other):
        return compose(self, other)


def _make(theory, source: TateMotive, target: TateMotive, degree: int, blocks) -> Correspondence:
    """A morphism holding blocks that already lie in their components."""
    if source.size and target.size and max(source.size, target.size) > MAX_TWISTS:
        require_listable(source, target)
    return Correspondence._new(theory, source, target, degree, blocks)


def _spans(motive: TateMotive) -> dict[int, range]:
    """The positions of each twist's generators in the expanded twist tuple."""
    starts = accumulate((m for _, m in motive.histogram), initial=0)
    return {t: range(a, a + m) for (t, m), a in zip(motive.histogram, starts)}


def _position(motive: TateMotive, j: int) -> tuple:
    """The twist of generator j and j's place among that twist's generators."""
    j = range(motive.size)[j]  # an IndexError past the end, as for a tuple
    return next((t, j - span.start) for t, span in _spans(motive).items() if j in span)


def _block_element(ring, block, r: int, c: int, degree: int) -> GradedRingElement:
    """The ring element at (r, c) of a twist block whose component has the given degree."""
    terms = {k: m[r][c] for k, m in block.items() if m[r][c]}
    return _element(ring, terms, (degree,)) if terms else GradedRingElement.zero(ring)


def _pruned(ring, blocks) -> dict:
    """The blocks less zero matrices and empty blocks; a kept monomial with an
    exponent out of its packed field raises the product's ValueError."""
    out = {}
    for ts, block in blocks.items():
        kept = _checked(ring, {k: m for k, m in block.items() if any(map(any, m))})
        if kept:
            out[ts] = kept
    return out


def zero_correspondence(theory, source: TateMotive, target: TateMotive, degree: int = 0):
    return _make(theory, source, target, degree, {})


def identity_correspondence(theory, motive: TateMotive) -> Correspondence:
    blocks = {(t, t): {theory.ring._unit: [[int(r == c) for c in range(m)] for r in range(m)]}
              for t, m in motive.histogram}
    return _make(theory, motive, motive, 0, blocks)


def _matmul_into(block, key, a, b):
    """block[key] += a b, for matrices given as rows."""
    acc = block.get(key) or block.setdefault(key, [[0] * len(b[0]) for _ in a])
    for row, arow in zip(acc, a):
        for x, brow in zip(arow, b):
            if x:
                for c, y in enumerate(brow):
                    if y:  # into a zero slot, the product alone: 0 + Fraction is slow
                        row[c] = row[c] + x * y if row[c] else x * y


def _kron_into(block, key, a, b, r, c, height, width):
    """block[key] (height x width) += the Kronecker product of a and b at (r, c)."""
    acc = block.get(key) or block.setdefault(key, [[0] * width for _ in range(height)])
    for r, (arow, brow) in enumerate(product(a, b), r):
        row = acc[r]
        for i, v in enumerate([x * y for x in arow for y in brow], c):
            row[i] = row[i] + v if row[i] else v  # as in _matmul_into


def compose(alpha: Correspondence, beta: Correspondence) -> Correspondence:
    """alpha after beta: matrix product, degrees add.  Block (t, s) sums the
    present blocks (t, u) of alpha times (u, s) of beta over middle twists u."""
    if alpha.theory is not beta.theory and alpha.theory != beta.theory:
        raise RingMismatchError("morphisms over different theories")
    if beta.target is not alpha.source and beta.target != alpha.source:
        raise ValueError(f"shapes do not compose: {beta.target.histogram} then {alpha.source.histogram}")
    ring = alpha.theory.ring
    bias, bound, degree = ring._unit, ring.truncation, alpha.degree + beta.degree
    after, out = {}, {}  # beta's blocks by their target twist; the product's blocks
    for (u, s), b in beta.blocks.items():
        after.setdefault(u, []).append((s, b))
    for (t, u), a in alpha.blocks.items():
        for s, b in after.get(u, ()):
            if bound is None or abs(degree + s - t) <= bound:
                block = out.setdefault((t, s), {})
                for ka, ma in a.items():
                    for kb, mb in b.items():
                        _matmul_into(block, ka + kb - bias, ma, mb)
    return _make(alpha.theory, beta.source, alpha.target, degree, _pruned(ring, out))


def transpose(alpha: Correspondence, dim_source: int, dim_target: int) -> Correspondence:
    """Dualize through the ambient dimensions of source and target.

    The result runs from the reflected target to the reflected source and
    has degree dim_source + degree - dim_target.  Block (t, s) moves to
    (dim_source - s, dim_target - t), its matrix transposed and reversed.
    """
    new_source = alpha.target.dual(dim_target)
    new_target = alpha.source.dual(dim_source)
    blocks = {(dim_source - s, dim_target - t): {k: [list(r) for r in zip(*m[::-1])][::-1]
                                                 for k, m in b.items()}
              for (t, s), b in alpha.blocks.items()}
    return _make(alpha.theory, new_source, new_target, dim_source + alpha.degree - dim_target,
                 blocks)


def tensor_product(alpha: Correspondence, beta: Correspondence) -> Correspondence:
    """Kronecker product with twist addition, re-sorted canonically (by
    alpha's generator, then beta's, within one twist sum): blocks (t1, s1)
    and (t2, s2) fill one window of block (t1 + t2, s1 + s2)."""
    if alpha.theory is not beta.theory and alpha.theory != beta.theory:
        raise RingMismatchError("morphisms over different theories")
    ring = alpha.theory.ring
    bias, bound, degree = ring._unit, ring.truncation, alpha.degree + beta.degree
    source, col_at = _pair_sums(alpha.source, beta.source)
    target, row_at = _pair_sums(alpha.target, beta.target)
    height, width, out = dict(target.histogram), dict(source.histogram), {}
    for (t1, s1), a in alpha.blocks.items():
        for (t2, s2), b in beta.blocks.items():
            t, s = t1 + t2, s1 + s2
            if bound is None or abs(degree + s - t) <= bound:
                block, r, c = out.setdefault((t, s), {}), row_at[t1, t2], col_at[s1, s2]
                for ka, ma in a.items():
                    for kb, mb in b.items():
                        _kron_into(block, ka + kb - bias, ma, mb, r, c, height[t], width[s])
    return _make(alpha.theory, source, target, degree, _pruned(ring, out))


def _pair_sums(m1: TateMotive, m2: TateMotive):
    """The motive of the twist sums a + b, and where each pair (a, b) starts
    among the generators of a + b, pairs in order of a."""
    counts, start = {}, {}
    for a, p in m1.histogram:
        for b, q in m2.histogram:
            start[a, b] = counts.get(a + b, 0)
            counts[a + b] = start[a, b] + p * q
    return TateMotive._of(tuple(sorted(counts.items()))), start


# -- idempotents -------------------------------------------------------------


def is_idempotent(p: Correspondence) -> bool:
    return p.source == p.target and p.degree == 0 and compose(p, p) == p


class SplitCertificate(namedtuple("SplitCertificate", "motive section retraction integral")):
    """An image motive with section/retraction certificates.

    retraction o section is the identity of the image and
    section o retraction is the projector that was split; `integral`
    records whether the certificates use integer scalars only.
    """

    __slots__ = ()


def split_idempotent(p: Correspondence) -> SplitCertificate:
    """Split a degree-0 projector whose entries reduce to scalars.

    Entries between twists a_i and a_j must be zero or a scalar multiple of
    the unique unit monomial of degree a_i - a_j, read block by block (over
    rings without Laurent units this forces a twist-blocked matrix).  The
    scalar matrix is block-diagonal over the classes of twists that present
    blocks link.  Scaled by the lcm of its denominators to integers, each
    class's matrix factors in one elimination as C * R: C, an integer column
    basis, gives the section, and R / scale the retraction.

    Within a class the rows ascend in twist and each column's leading row
    lies below the one before, so that row holds the column's image twist,
    in order.  Unit monomials link the twists of a class, so each block of
    the certificates has a unit.
    """
    from .linalg import integer_column_basis

    if p.source != p.target or p.degree != 0:
        raise NotIdempotentError("splitting needs a degree-0 endomorphism")
    if compose(p, p) != p:
        raise NotIdempotentError("morphism does not square to itself")
    theory, ring, at = p.theory, p.theory.ring, _spans(p.source)
    scale = lcm(*(c.denominator for block in p.blocks.values() for m in block.values()
                  for row in m for c in row))  # ints and Fractions
    scaled, linked = {}, {}  # the blocks' scaled matrices; each twist's class
    for (t, s), block in p.blocks.items():
        unit = _unit_key(ring, s - t)
        if block.keys() != {unit}:
            r, c = next((r, c) for r in range(len(at[t])) for c in range(len(at[s]))
                        if any(m[r][c] for k, m in block.items() if k != unit))
            entry = _block_element(ring, block, r, c, s - t)
            raise NonSplittableError(f"entry {entry} is not a scalar multiple of a unit "
                                     f"monomial of degree {s - t}")
        scaled[t, s] = [[c.numerator * (scale // c.denominator) for c in row] for row in block[unit]]
        joined = linked.get(t, {t}) | linked.get(s, {s})  # one set, shared by a class's twists
        linked.update(dict.fromkeys(joined, joined))
    image, section, retraction = [], {}, {}
    for twists in {id(c): c for c in linked.values()}.values():
        part = TateMotive._of(tuple((t, len(at[t])) for t in sorted(twists)))
        spans, matrix = _spans(part), [[0] * part.size for _ in range(part.size)]
        for (t, rows), (s, cols) in product(spans.items(), repeat=2):
            for j, row in zip(rows, scaled.get((t, s), ())):
                matrix[j][cols.start:cols.stop] = row
        c_mat, r_mat = integer_column_basis(matrix)
        heads = TateMotive(part.twists[next(j for j, row in enumerate(c_mat) if row[i])]
                           for i in range(len(r_mat)))  # r_mat has one row per column
        image += heads.histogram
        for (t, rows), (s, cols) in product(spans.items(), _spans(heads).items()):
            section[t, s] = [row[cols.start:cols.stop] for row in c_mat[rows.start:rows.stop]]
            retraction[s, t] = [row[rows.start:rows.stop] for row in r_mat[cols.start:cols.stop]]
    image = TateMotive.from_histogram(image)
    section = _units(theory, image, p.source, section)
    retraction = _units(theory, p.source, image, retraction, scale)
    if compose(retraction, section) != identity_correspondence(theory, image):
        raise AssertionError("retraction o section is not the identity")
    if compose(section, retraction) != p:
        raise AssertionError("section o retraction does not rebuild the projector")
    integral = scale == 1  # C spans scale times the columns' lattice, which holds them only then
    return SplitCertificate(image, section, retraction, integral)


def _unit_key(ring, degree: int):
    """The packed key of the unique unit monomial of a given degree, or None."""
    if not degree:
        return ring._unit  # the key of the empty monomial
    units = ring._laurent
    if len(units) != 1 or not units[0] or degree % units[0]:  # no power of a degree-0 unit has one
        return None
    return _encode(ring, tuple(degree // units[0] if o else 0 for o in ring._offsets))


def _units(theory, source: TateMotive, target: TateMotive, scalars, scale=1) -> Correspondence:
    """The degree-0 morphism whose block (t, s) is scalars[t, s] / scale times
    the unit monomial of degree s - t; zero matrices are dropped."""
    if scale != 1:
        from fractions import Fraction
        scalars = {ts: [[Fraction(x, scale) for x in row] for row in m] for ts, m in scalars.items()}
    ring, blocks = theory.ring, {}
    for (t, s), m in scalars.items():
        m = [[_normalize_scalar(x, ring.field) for x in row] for row in m]
        if any(map(any, m)):
            blocks[t, s] = {_unit_key(ring, s - t): m}
    return _make(theory, source, target, 0, blocks)


def projective_bundle_projectors(theory, base: TateMotive, bundle_rank: int):
    """The projectors of the projective bundle theorem: a rank-r bundle over
    the base has the motive of P^(r-1) tensor the base's, and the i-th
    projector is the one onto twist i of P^(r-1), tensor the identity.
    They are orthogonal, sum to the identity, and split to the shifted
    copies of the base.  Within one twist the copies come in order.
    """
    if bundle_rank < 1:
        raise ValueError("bundle rank must be >= 1")
    fibre, identity = TateMotive(range(bundle_rank)), identity_correspondence(theory, base)
    return [tensor_product(_units(theory, fibre, fibre, {(i, i): [[1]]}), identity)
            for i in range(bundle_rank)]


# -- decomposition of cellular spaces ----------------------------------------


def decompose_by_rank(space: SpaceExpr) -> TateMotive:
    """Twists accumulate the affine-bundle ranks down the filtration."""
    return TateMotive.from_histogram(_fold(space, "rank").items())


def decompose_by_codim(space: SpaceExpr) -> TateMotive:
    """Twists accumulate the stratum codimensions down the filtration.

    Requires the space to be equidimensional (checked at every node).
    """
    space.dim()
    return TateMotive.from_histogram(_fold(space, "codim").items())


def _fold(space: SpaceExpr, field: str) -> dict[int, int]:
    """The twist histogram of a space, adding up the cell `field` ("rank"
    or "codim") down the filtration.  Each shared node is folded once, as
    one `visit` of :func:`walk_dag`, from its parts' histograms."""

    def visit(node, parts):
        if isinstance(node, Point):
            return {0: 1}
        shifts = (0, 0) if isinstance(node, DisjointUnion) else (getattr(c, field) for c in node.cells)
        hist: dict[int, int] = {}
        for shift, part in zip(shifts, parts):
            for t, m in part.items():
                hist[t + shift] = hist.get(t + shift, 0) + m
        return hist

    return walk_dag(space, visit)


def poincare_polynomial(motive: TateMotive) -> list[int]:
    """Coefficient k is the multiplicity of twist k; refused past MAX_TWISTS of them."""
    hist = dict(motive.histogram)
    size = max(hist, default=-1) + 1
    _refuse_past(size, "poincare polynomial", "coefficients")
    return [hist.get(k, 0) for k in range(size)]


def duality_holds(space: SpaceExpr) -> bool:
    """The codim-route twists are the dim-reflection of the rank-route twists."""
    return decompose_by_codim(space) == decompose_by_rank(space).dual(space.dim())


# -- realization --------------------------------------------------------------


class GradedModuleTable(namedtuple("GradedModuleTable", "entries periodic", defaults=(False,))):
    """Degree-indexed module descriptions; K-theory style tables are
    periodic and carry one description valid in every degree."""

    __slots__ = ()

    def rank(self, k: int) -> int:
        return self.total_rank() if self.periodic else self.ranks().get(k, 0)

    def ranks(self) -> dict[int, int]:
        return {degree: desc.rank for degree, desc in self.entries}

    def total_rank(self) -> int:
        if self.periodic:
            return self.entries[0][1].rank if self.entries else 0
        return sum(desc.rank for _, desc in self.entries)


def realize(motive: TateMotive, theory: OrientedTheory, k: int) -> ModuleDescription:
    """The degree-k module of the motive: one ring component per twist,
    computed once per distinct twist and repeated by its multiplicity.
    A module of more than MAX_TWISTS basis elements is refused with a
    ValueError before it is listed."""
    ring = theory.ring
    components = [(component_rank(ring, k - t).monomials, m) for t, m in motive.histogram]
    size = sum(len(monomials) * m for monomials, m in components)
    _refuse_past(size, f"degree {k} module", "basis elements")
    basis = chain.from_iterable(monomials * m for monomials, m in components)
    return ModuleDescription(ring.field, ring, tuple(basis))


def realize_table(motive: TateMotive, theory: OrientedTheory) -> GradedModuleTable:
    """All computable degrees at once.

    Integer-graded rings concentrated in degree 0 give entries exactly at
    the twist values; a Laurent unit of degree 1 or -1 makes the table
    periodic, and one of another degree is refused; truncated rings cover
    the window [max_twist - truncation, max_twist].
    """
    periodic, window = _table_plan(motive.histogram, theory.ring)
    descs = ((k, realize(motive, theory, k)) for k in window)
    return GradedModuleTable(tuple((k, desc) for k, desc in descs if desc.rank or periodic), periodic)


def _table_plan(hist, ring) -> tuple[bool, range]:
    """The periodic flag and the degrees of a table of `hist` over `ring`, or
    its refusal (NotImplementedError): a Laurent unit of degree other than 1
    or -1, whose table would repeat with a longer period, then, once `hist`
    has a twist, a ring whose components are not listed."""
    for d in ring._laurent:
        if abs(d) != 1:
            raise NotImplementedError(f"a periodic table needs a Laurent unit of degree 1 or -1, not {d}")
    if hist:
        check_enumerable(ring)
    if ring._laurent or not hist:  # a periodic table's one degree is 0
        return bool(ring._laurent), range(bool(ring._laurent))
    high = hist[-1][0]
    return False, range(hist[0][0] if ring.truncation is None else high - ring.truncation, high + 1)


def group_ranks(motive: TateMotive, theory: OrientedTheory) -> tuple[dict[int, int], bool]:
    """The ranks `realize_table(motive, theory)` lists, and its periodic
    flag, counted without a basis.

    A^*(X) is the sum over twists t of A^(*-t)(pt), so the degree-k rank
    is sum_t m_t * h(t - k), where h(d) counts the ring's monomials of
    degree -d.  A ring with a Laurent unit of degree 1 or -1 has one
    monomial in each degree, so its table is periodic and its one rank the
    motive's size; a unit of another degree is refused.  Otherwise h is the
    series prod_i 1/(1 - q^s_i), one factor per generator of degree -s_i,
    and multiplying the histogram by it is one coin-change pass per
    generator over the degree window of `realize_table`.
    """
    ring, hist = theory.ring, motive.histogram
    periodic, window = _table_plan(hist, ring)
    if periodic or not hist:
        return ({0: motive.size} if periodic else {}), periodic
    ranks = {t: m for t, m in hist if t in window}
    if ring.generators:  # stays: with none, `window` spans every degree between the twists
        counts = [ranks.get(k, 0) for k in window]
        for g in ring.generators:
            step = -g.degree
            for i in range(len(counts) - 1 - step, -1, -1):
                counts[i] += counts[i + step]
        ranks = {k: c for k, c in enumerate(counts, window.start) if c}
    return ranks, False
