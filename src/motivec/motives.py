"""Twist multisets and graded matrix morphisms between them.

A motive here is a finite multiset of nonnegative twist integers, stored
as its histogram: sorted (twist, multiplicity) pairs.  The expanded,
sorted twist tuple is built on first use and kept.  A morphism of degree
c between two motives, over a theory's coefficient ring, is a matrix
whose (j, i) entry is homogeneous of ring degree
c + source_twist(i) - target_twist(j).  Composition is matrix product,
duality is matrix transposition with twists reflected through the ambient
dimensions, and the tensor product is a twist-sorted Kronecker product.

The module also carries the two decomposition routes for cellular spaces
(accumulating bundle ranks or stratum codimensions, by one fold over the
space DAG), projector splitting, and realization of motives as graded
modules over the coefficient ring, with their ranks also counted from the
ring's Hilbert series without listing a basis.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import groupby

from .gring import (
    GradedRingElement,
    ModuleDescription,
    RingMismatchError,
    check_enumerable,
    component_rank,
)
from .spaces import Cellular, DisjointUnion, Point, SpaceExpr, walk_dag
from .theory import OrientedTheory

MAX_TWISTS = 1 << 24  # the largest motive whose twist tuple may be expanded


class NotIdempotentError(ValueError):
    """The given endomorphism does not square to itself."""


class NonSplittableError(ValueError):
    """The degree-0 part is not a scalar-field matrix; refusing to guess."""


class TateMotive:
    """A finite multiset of nonnegative twists, stored as a histogram.

    `histogram` holds sorted (twist, multiplicity) pairs with positive
    multiplicities and `size` their total; `twists`, the sorted tuple with
    one entry per generator, is expanded on first access and then stored,
    and refused with a ValueError when `size` exceeds MAX_TWISTS.
    """

    __slots__ = ("histogram", "size", "twists")

    def __init__(self, twists=()):
        tw = tuple(sorted(int(t) for t in twists))
        self._fill(tuple((t, len(list(run))) for t, run in groupby(tw)))
        object.__setattr__(self, "twists", tw)

    @classmethod
    def from_histogram(cls, pairs) -> "TateMotive":
        """The motive with the given (twist, multiplicity) pairs, in any
        order; repeated twists add up and zero multiplicities drop out."""
        counts: dict[int, int] = {}
        for t, m in pairs:
            if m < 0:
                raise ValueError(f"negative multiplicity {m} of twist {t}")
            if m:
                counts[int(t)] = counts.get(int(t), 0) + int(m)
        return cls._of(tuple(sorted(counts.items())))

    @classmethod
    def _of(cls, histogram) -> "TateMotive":
        """Wrap a histogram that is already sorted, merged and positive."""
        motive = object.__new__(cls)
        motive._fill(histogram)
        return motive

    def _fill(self, histogram):
        if histogram and histogram[0][0] < 0:
            raise ValueError(f"negative twist {histogram[0][0]}")
        object.__setattr__(self, "histogram", histogram)
        object.__setattr__(self, "size", sum(m for _, m in histogram))

    def __getattr__(self, name):
        # only reached while the `twists` slot is still empty
        if name != "twists":
            raise AttributeError(name)
        if self.size > MAX_TWISTS:
            raise ValueError(f"motive has {self.size} twists, more than the {MAX_TWISTS} it may list")
        tw = tuple(t for t, m in self.histogram for _ in range(m))
        object.__setattr__(self, "twists", tw)
        return tw

    def __setattr__(self, name, value):
        raise AttributeError("TateMotive is immutable")

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


def assemble(blocks: list[TateMotive]) -> tuple[TateMotive, list[list[int]]]:
    """Direct sum with bookkeeping: positions[b][i] is where generator i of
    block b lands in the sorted combined motive."""
    tagged = []
    for b, m in enumerate(blocks):
        for i, t in enumerate(m.twists):
            tagged.append((t, b, i))
    tagged.sort()
    combined = TateMotive(t for t, _, _ in tagged)
    positions = [[0] * m.size for m in blocks]
    for pos, (_, b, i) in enumerate(tagged):
        positions[b][i] = pos
    return combined, positions


class Correspondence:
    """A graded matrix morphism between twist multisets over a theory."""

    __slots__ = ("theory", "source", "target", "degree", "entries")

    def __init__(self, theory: OrientedTheory, source: TateMotive, target: TateMotive,
                 degree: int, entries):
        entries = tuple(tuple(row) for row in entries)
        if len(entries) != target.size:
            raise ValueError(f"expected {target.size} rows, got {len(entries)}")
        for j, row in enumerate(entries):
            if len(row) != source.size:
                raise ValueError(f"row {j} has {len(row)} columns, expected {source.size}")
            for i, e in enumerate(row):
                if not isinstance(e, GradedRingElement):
                    raise TypeError("entries must be graded ring elements")
                if e.ring != theory.ring:
                    raise RingMismatchError("entry over the wrong coefficient ring")
                want = degree + source.twists[i] - target.twists[j]
                if not e.is_homogeneous(want):
                    raise ValueError(
                        f"entry ({j},{i}) must be homogeneous of degree {want}, "
                        f"got degrees {e.degrees()}"
                    )
        object.__setattr__(self, "theory", theory)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Correspondence is immutable")

    def __eq__(self, other):
        if not isinstance(other, Correspondence):
            return NotImplemented
        return (
            self.theory == other.theory
            and self.source == other.source
            and self.target == other.target
            and self.degree == other.degree
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.theory, self.source, self.target, self.degree, self.entries))

    def __repr__(self):
        return (
            f"<corr {self.source.twists} -> {self.target.twists} "
            f"deg {self.degree} over {self.theory.name}>"
        )

    def entry(self, j: int, i: int) -> GradedRingElement:
        return self.entries[j][i]

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.entries for e in row)

    def __add__(self, other):
        if not isinstance(other, Correspondence):
            return NotImplemented
        if (self.theory, self.source, self.target, self.degree) != (
            other.theory, other.source, other.target, other.degree
        ):
            raise ValueError("can only add morphisms of identical shape and degree")
        rows = [
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)
        ]
        return Correspondence(self.theory, self.source, self.target, self.degree, rows)

    def __sub__(self, other):
        if not isinstance(other, Correspondence):
            return NotImplemented
        rows = [[-e for e in row] for row in other.entries]
        negated = Correspondence(other.theory, other.source, other.target, other.degree, rows)
        return self + negated

    def __matmul__(self, other):
        return compose(self, other)


def zero_correspondence(theory, source: TateMotive, target: TateMotive, degree: int = 0):
    z = GradedRingElement.zero(theory.ring)
    rows = [[z] * source.size for _ in range(target.size)]
    return Correspondence(theory, source, target, degree, rows)


def identity_correspondence(theory, motive: TateMotive) -> Correspondence:
    one = GradedRingElement.one(theory.ring)
    z = GradedRingElement.zero(theory.ring)
    rows = [
        [one if i == j else z for i in range(motive.size)] for j in range(motive.size)
    ]
    return Correspondence(theory, motive, motive, 0, rows)


def compose(alpha: Correspondence, beta: Correspondence) -> Correspondence:
    """alpha after beta: matrix product, degrees add."""
    if alpha.theory != beta.theory:
        raise RingMismatchError("morphisms over different theories")
    if beta.target != alpha.source:
        raise ValueError(
            f"shapes do not compose: {beta.target.twists} then {alpha.source.twists}"
        )
    zero = GradedRingElement.zero(alpha.theory.ring)
    rows = []
    for j in range(alpha.target.size):
        row = []
        for i in range(beta.source.size):
            acc = zero
            for k in range(alpha.source.size):
                a = alpha.entries[j][k]
                b = beta.entries[k][i]
                if a.is_zero() or b.is_zero():
                    continue
                acc = acc + a * b
            row.append(acc)
        rows.append(row)
    return Correspondence(
        alpha.theory, beta.source, alpha.target, alpha.degree + beta.degree, rows
    )


def transpose(alpha: Correspondence, dim_source: int, dim_target: int) -> Correspondence:
    """Dualize through the ambient dimensions of source and target.

    The result runs from the reflected target to the reflected source and
    has degree dim_source + degree - dim_target.
    """
    new_source = alpha.target.dual(dim_target)
    new_target = alpha.source.dual(dim_source)
    p, q = alpha.source.size, alpha.target.size
    rows = [
        [alpha.entries[q - 1 - jj][p - 1 - ii] for jj in range(q)] for ii in range(p)
    ]
    return Correspondence(
        alpha.theory,
        new_source,
        new_target,
        dim_source + alpha.degree - dim_target,
        rows,
    )


def tensor_product(alpha: Correspondence, beta: Correspondence) -> Correspondence:
    """Kronecker product with twist addition, re-sorted canonically."""
    if alpha.theory != beta.theory:
        raise RingMismatchError("morphisms over different theories")
    src, src_order = _sorted_pairs(alpha.source, beta.source)
    tgt, tgt_order = _sorted_pairs(alpha.target, beta.target)
    p2 = beta.source.size
    q2 = beta.target.size
    rows = []
    for jj in range(tgt.size):
        j1, j2 = divmod(tgt_order[jj], q2)
        row = []
        for ii in range(src.size):
            i1, i2 = divmod(src_order[ii], p2)
            row.append(alpha.entries[j1][i1] * beta.entries[j2][i2])
        rows.append(row)
    return Correspondence(alpha.theory, src, tgt, alpha.degree + beta.degree, rows)


def _sorted_pairs(m1: TateMotive, m2: TateMotive):
    sums = [a + b for a in m1.twists for b in m2.twists]
    order = sorted(range(len(sums)), key=lambda t: (sums[t], t))
    return TateMotive(sums[t] for t in order), order


# -- idempotents -------------------------------------------------------------


def is_idempotent(p: Correspondence) -> bool:
    return (
        p.source == p.target
        and p.degree == 0
        and compose(p, p) == p
    )


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
    the unique unit monomial of degree a_i - a_j (over rings without Laurent
    units this forces a twist-blocked matrix).  Over integer scalars the
    factorization is found in the image lattice, hence integral; otherwise
    an exact rational factorization is returned and flagged.
    """
    from fractions import Fraction

    from .linalg import column_space_factorization, integer_column_basis, solve_columns

    if p.source != p.target or p.degree != 0:
        raise NotIdempotentError("splitting needs a degree-0 endomorphism")
    if compose(p, p) != p:
        raise NotIdempotentError("morphism does not square to itself")
    theory = p.theory
    twists = p.source.twists
    n = p.source.size
    scalar = [
        [_unit_scalar(p.entries[j][i], twists[i] - twists[j]) for i in range(n)]
        for j in range(n)
    ]
    all_integer = all(
        isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1)
        for row in scalar for c in row
    )
    if all_integer and n:
        c_mat = integer_column_basis(scalar)
        r_mat = solve_columns(c_mat, scalar) if c_mat and c_mat[0] else []
        if any(x.denominator != 1 for row in r_mat for x in row):
            raise AssertionError("image lattice retraction must be integral")
        integral = True
    else:
        c_mat, r_mat = column_space_factorization(scalar)
        integral = all(x.denominator == 1 for row in c_mat for x in row) and all(
            x.denominator == 1 for row in r_mat for x in row
        )
    rank = len(c_mat[0]) if c_mat and c_mat[0] else 0
    column_twists = []
    for t in range(rank):
        support = [j for j in range(n) if c_mat[j][t] != 0]
        candidates = {twists[j] for j in support}
        if _has_laurent_unit(theory.ring):
            column_twists.append(twists[support[0]])
        else:
            if len(candidates) > 1:
                raise NonSplittableError(
                    "image column mixes twists over a ring without Laurent units"
                )
            column_twists.append(candidates.pop())
    order = sorted(range(rank), key=lambda t: (column_twists[t], t))
    image = TateMotive(column_twists[t] for t in order)
    section_rows = [
        [
            _scale_unit(theory, c_mat[j][order[t]], image.twists[t] - twists[j])
            for t in range(rank)
        ]
        for j in range(n)
    ]
    retraction_rows = [
        [
            _scale_unit(theory, r_mat[order[t]][j], twists[j] - image.twists[t])
            for j in range(n)
        ]
        for t in range(rank)
    ]
    section = Correspondence(theory, image, p.source, 0, section_rows)
    retraction = Correspondence(theory, p.source, image, 0, retraction_rows)
    if compose(retraction, section) != identity_correspondence(theory, image):
        raise AssertionError("retraction o section is not the identity")
    if compose(section, retraction) != p:
        raise AssertionError("section o retraction does not rebuild the projector")
    return SplitCertificate(image, section, retraction, integral)


def _has_laurent_unit(ring) -> bool:
    return any(g.invertible for g in ring.generators)


def _unit_monomial(ring, degree: int):
    """The exponent vector of the unique unit monomial of a given degree."""
    if degree == 0:
        return (0,) * len(ring.generators)
    units = [(i, g) for i, g in enumerate(ring.generators) if g.invertible]
    if len(units) == 1:
        i, g = units[0]
        if degree % g.degree == 0:
            return tuple(
                degree // g.degree if k == i else 0 for k in range(len(ring.generators))
            )
    return None


def _unit_scalar(entry: GradedRingElement, degree: int):
    """Extract c from c * (unit monomial of the given degree), else refuse."""
    if entry.is_zero():
        return 0
    mono = _unit_monomial(entry.ring, degree)
    if mono is None or set(entry.terms) != {mono}:
        raise NonSplittableError(
            f"entry {entry} is not a scalar multiple of a unit monomial "
            f"of degree {degree}"
        )
    return entry.terms[mono]


def _scale_unit(theory, coefficient, degree: int) -> GradedRingElement:
    if coefficient == 0:
        return GradedRingElement.zero(theory.ring)
    mono = _unit_monomial(theory.ring, degree)
    if mono is None:
        raise NonSplittableError(f"no unit monomial of degree {degree} in {theory.ring.name}")
    return GradedRingElement.from_terms(theory.ring, {mono: coefficient})


def projective_bundle_projectors(theory, base: TateMotive, bundle_rank: int):
    """The diagonal block projectors of the free bundle model.

    On the sum of `bundle_rank` copies of the base, shifted by 0..rank-1,
    the i-th projector fixes the i-shifted copy and kills the others.
    They are orthogonal, sum to the identity, and split to the shifted
    copies.
    """
    if bundle_rank < 1:
        raise ValueError("bundle rank must be >= 1")
    blocks = [base.shifted(i) for i in range(bundle_rank)]
    total, positions = assemble(blocks)
    one = GradedRingElement.one(theory.ring)
    zero = GradedRingElement.zero(theory.ring)
    projectors = []
    for i in range(bundle_rank):
        inside = set(positions[i])
        rows = [
            [one if (r == c and r in inside) else zero for c in range(total.size)]
            for r in range(total.size)
        ]
        projectors.append(Correspondence(theory, total, total, 0, rows))
    return projectors


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
    or "codim") down the filtration.  Each shared node is folded once:
    results are memoized by node identity for the length of one walk,
    while the root keeps every node alive."""
    memo: dict[int, dict[int, int]] = {}

    def visit(node):
        if isinstance(node, Point):
            memo[id(node)] = {0: 1}
            return
        if isinstance(node, DisjointUnion):
            pieces = ((0, node.left), (0, node.right))
        elif isinstance(node, Cellular):
            pieces = ((getattr(cell, field), cell.base) for cell in node.cells)
        else:
            raise TypeError(f"not a space expression: {node!r}")
        hist: dict[int, int] = {}
        for shift, base in pieces:
            for t, m in memo[id(base)].items():
                hist[t + shift] = hist.get(t + shift, 0) + m
        memo[id(node)] = hist

    walk_dag(space, lambda node: id(node) in memo, visit)
    return memo[id(space)]


def poincare_polynomial(motive: TateMotive) -> list[int]:
    """Coefficient k is the multiplicity of twist k."""
    if not motive.histogram:
        return []
    out = [0] * (motive.histogram[-1][0] + 1)
    for t, m in motive.histogram:
        out[t] = m
    return out


def duality_holds(space: SpaceExpr) -> bool:
    """The codim-route twists are the dim-reflection of the rank-route twists."""
    d = space.dim()
    by_rank = decompose_by_rank(space)
    by_codim = decompose_by_codim(space)
    return by_codim == by_rank.dual(d)


# -- realization --------------------------------------------------------------


class GradedModuleTable(namedtuple("GradedModuleTable", "entries periodic", defaults=(False,))):
    """Degree-indexed module descriptions; K-theory style tables are
    periodic and carry one description valid in every degree."""

    __slots__ = ()

    def rank(self, k: int) -> int:
        if self.periodic:
            return self.entries[0][1].rank if self.entries else 0
        for degree, desc in self.entries:
            if degree == k:
                return desc.rank
        return 0

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
    if size > MAX_TWISTS:
        raise ValueError(
            f"degree {k} module has {size} basis elements, more than the {MAX_TWISTS} it may list"
        )
    basis = []
    for monomials, m in components:
        basis.extend(monomials * m)
    return ModuleDescription(ring.field, ring, tuple(basis))


def realize_table(motive: TateMotive, theory: OrientedTheory) -> GradedModuleTable:
    """All computable degrees at once.

    Integer-graded rings concentrated in degree 0 give entries exactly at
    the twist values; a Laurent unit makes the table periodic; truncated
    rings cover the window [max_twist - truncation, max_twist].
    """
    ring = theory.ring
    if _has_laurent_unit(ring):
        desc = realize(motive, theory, 0)
        return GradedModuleTable(entries=((0, desc),), periodic=True)
    if not motive.histogram:
        return GradedModuleTable(entries=())
    low, high = motive.histogram[0][0], motive.histogram[-1][0]
    if ring.truncation is not None:
        degrees = range(high - ring.truncation, high + 1)
    else:
        degrees = range(low, high + 1)
    entries = []
    for k in degrees:
        desc = realize(motive, theory, k)
        if desc.rank:
            entries.append((k, desc))
    return GradedModuleTable(entries=tuple(entries))


def group_ranks(motive: TateMotive, theory: OrientedTheory) -> tuple[dict[int, int], bool]:
    """The ranks `realize_table(motive, theory)` lists, and its periodic
    flag, counted without a basis.

    A^*(X) is the sum over twists t of A^(*-t)(pt), so the degree-k rank
    is sum_t m_t * h(t - k), where h(d) counts the ring's monomials of
    degree -d.  A ring with a Laurent unit of degree g has one monomial in
    each degree g divides, so its table is periodic.  Otherwise h is the
    series prod_i 1/(1 - q^s_i), one factor per generator of degree -s_i,
    and multiplying the histogram by it is one coin-change pass per
    generator over the degree window of `realize_table`.
    """
    ring = theory.ring
    hist = motive.histogram
    periodic = _has_laurent_unit(ring)
    if not hist:
        return ({0: 0} if periodic else {}), periodic
    check_enumerable(ring)
    if periodic:
        (g,) = ring.generators
        return {0: sum(m for t, m in hist if t % g.degree == 0)}, True
    high = hist[-1][0]
    low = hist[0][0] if ring.truncation is None else high - ring.truncation
    ranks = {t: m for t, m in hist if t >= low}
    if ring.generators:
        counts = [ranks.get(k, 0) for k in range(low, high + 1)]
        for g in ring.generators:
            step = -g.degree
            for i in range(len(counts) - 1 - step, -1, -1):
                counts[i] += counts[i + step]
        ranks = {k: c for k, c in enumerate(counts, low) if c}
    return ranks, False
