"""The histogram fold and realization against the per-cell reference loops.

The reference functions below are the straightforward versions: one list
entry per cell path, collected by plain recursion, and one ring component
per twist in every degree.  They are kept here, independent of the
package's fold, so that the histogram code must agree with them exactly:
same twists, same Poincare coefficients, same module tables down to the
basis strings.
"""

import random

import pytest

from motivec.cli import RunConfig, run
from motivec.gring import ModuleDescription, component_rank
from motivec.motives import (
    GradedModuleTable,
    TateMotive,
    decompose_by_codim,
    decompose_by_rank,
    duality_holds,
    poincare_polynomial,
    realize_table,
)
from motivec.selfcheck import random_motive
from motivec.spaces import (
    POINT,
    Cell,
    Cellular,
    DisjointUnion,
    Point,
    grassmannian,
    projective_space,
    quadric,
)
from motivec.theory import chow, k0, universal

THEORIES = (chow(), k0(), universal(6))


# -- reference loops -----------------------------------------------------------


def ref_collect(space, field):
    """One twist per cell path, adding up the cell field down the filtration."""
    if isinstance(space, Point):
        return [0]
    if isinstance(space, DisjointUnion):
        return ref_collect(space.left, field) + ref_collect(space.right, field)
    out = []
    for cell in space.cells:
        out.extend(getattr(cell, field) + t for t in ref_collect(cell.base, field))
    return out


def ref_dim(space):
    if isinstance(space, Point):
        return 0
    if isinstance(space, DisjointUnion):
        return ref_dim(space.left)
    cell = space.cells[0]
    return cell.codim + cell.rank + ref_dim(cell.base)


def ref_poincare(twists):
    if not twists:
        return []
    out = [0] * (max(twists) + 1)
    for t in twists:
        out[t] += 1
    return out


def ref_realize(twists, theory, k):
    ring = theory.ring
    monomials = []
    for t in twists:
        monomials.extend(component_rank(ring, k - t).monomials)
    return ModuleDescription(ring.field, ring, tuple(monomials))


def ref_realize_table(twists, theory):
    twists = sorted(twists)
    ring = theory.ring
    if any(g.invertible for g in ring.generators):
        return GradedModuleTable(entries=((0, ref_realize(twists, theory, 0)),), periodic=True)
    if not twists:
        return GradedModuleTable(entries=())
    low, high = twists[0], twists[-1]
    if ring.truncation is not None:
        degrees = range(high - ring.truncation, high + 1)
    else:
        degrees = range(low, high + 1)
    entries = []
    for k in degrees:
        desc = ref_realize(twists, theory, k)
        if desc.rank:
            entries.append((k, desc))
    return GradedModuleTable(entries=tuple(entries))


def assert_same_table(motive, twists, theory):
    got = realize_table(motive, theory)
    want = ref_realize_table(twists, theory)
    assert got == want
    assert got.ranks() == want.ranks()
    assert [d.basis_strings() for _, d in got.entries] == [
        d.basis_strings() for _, d in want.entries
    ]


def assert_matches_reference(space, theories=THEORIES):
    dim = ref_dim(space)
    assert space.dim() == dim
    by_rank = decompose_by_rank(space)
    want = tuple(sorted(ref_collect(space, "rank")))
    assert by_rank.twists == want
    assert by_rank.size == len(want)
    assert poincare_polynomial(by_rank) == ref_poincare(want)
    by_codim = decompose_by_codim(space)
    assert by_codim.twists == tuple(sorted(ref_collect(space, "codim")))
    assert duality_holds(space) == (by_codim.twists == tuple(sorted(dim - t for t in want)))
    for theory in theories:
        assert_same_table(by_rank, want, theory)


# -- equivalence ----------------------------------------------------------------


def test_builtins_match_reference():
    spaces = [projective_space(n) for n in range(0, 11)]
    spaces += [quadric(d) for d in range(0, 6)]
    spaces += [grassmannian(d, n) for n in range(0, 11) for d in range(0, n + 1)]
    for space in spaces:
        assert_matches_reference(space)


def _random_space(rng, pool):
    """An equidimensional space over bases drawn from the pool, or a union
    of two pool members of equal dimension."""
    if rng.random() < 0.25:
        left = rng.choice(pool)
        same = [s for s in pool if ref_dim(s) == ref_dim(left)]
        return DisjointUnion(left, rng.choice(same))
    ncells = rng.randint(1, 3)
    bases = [rng.choice(pool) for _ in range(ncells)]
    codims = sorted(rng.sample(range(1, 8), ncells - 1))
    codims = [0] + codims
    total = max(c + ref_dim(b) for c, b in zip(codims, bases)) + rng.randint(0, 2)
    return Cellular(Cell(b, total - c - ref_dim(b), c) for c, b in zip(codims, bases))


def test_random_spaces_match_reference():
    rng = random.Random(4077)
    seeds = [POINT, Point(), projective_space(2), quadric(1), grassmannian(2, 4)]
    pool = list(seeds)
    for _ in range(200):
        space = _random_space(rng, pool)
        assert_matches_reference(space)
        # keep bases small so the reference loops stay cheap
        if len(ref_collect(space, "rank")) <= 40:
            pool.append(space)


def test_random_motives_realize_like_reference():
    rng = random.Random(11)
    for _ in range(200):
        motive = random_motive(rng, max_size=6, max_twist=5)
        assert TateMotive.from_histogram(motive.histogram) == motive
        for theory in THEORIES:
            assert_same_table(motive, motive.twists, theory)


def test_union_tower_matches_reference():
    space = projective_space(1)
    for _ in range(12):
        space = DisjointUnion(space, space)
    # universal:6 is covered above; here the reference loop would take seconds
    assert_matches_reference(space, theories=(chow(), k0()))


def test_deep_union_tower_folds_each_shared_node_once():
    space = grassmannian(2, 4)
    for _ in range(200):
        space = DisjointUnion(space, space)
    assert space.dim() == 4
    motive = decompose_by_rank(space)
    shape = ((0, 1), (1, 1), (2, 2), (3, 1), (4, 1))
    assert motive.histogram == tuple((t, m * 2**200) for t, m in shape)
    assert duality_holds(space)
    assert poincare_polynomial(motive) == [2**200, 2**200, 2 * 2**200, 2**200, 2**200]
    assert "2, 3213876088517980551083924184682325205044405987565585670602752" in repr(motive)


# -- the histogram motive --------------------------------------------------------


def test_histogram_and_twists_agree():
    m = TateMotive((3, 1, 1, 0))
    assert m.histogram == ((0, 1), (1, 2), (3, 1))
    assert len(m) == m.size == 4
    lazy = TateMotive.from_histogram([(3, 1), (1, 1), (0, 1), (1, 1), (7, 0)])
    assert lazy == m and hash(lazy) == hash(m)
    assert lazy.twists == (0, 1, 1, 3) and list(lazy) == [0, 1, 1, 3]
    assert lazy.dual(5).twists == (2, 4, 4, 5)
    assert lazy.shifted(2) == TateMotive((5, 3, 3, 2))
    assert TateMotive.from_histogram([]) == TateMotive(())
    with pytest.raises(ValueError):
        TateMotive.from_histogram([(-1, 1)])
    with pytest.raises(ValueError):
        TateMotive.from_histogram([(1, -1)])
    for pairs in ([(1, 0.5)], [(1.0, 1)], [(1, "2")], [(2, True)], [(1, False)]):
        with pytest.raises(TypeError, match="must be integers"):
            TateMotive.from_histogram(pairs)
    for twists in ([1.7], [True, 0]):  # a bool is an int to isinstance, but no twist
        with pytest.raises(TypeError, match="must be integers"):
            TateMotive(twists)
    with pytest.raises(ValueError):
        lazy.dual(2)
    with pytest.raises(AttributeError):
        lazy.histogram = ()


# -- deep chains ----------------------------------------------------------------

CHAIN = 1500


def test_deep_declaration_chain_answers(tmp_path):
    lines = []
    base = "point"
    for i in range(1, CHAIN + 1):
        lines.append(f"space c{i} {{ cell {{ base = {base}; rank = 1; codim = 0 }} }}")
        base = f"c{i}"
    path = tmp_path / "chain.txt"
    path.write_text("\n".join(lines) + "\n")
    out, code = run(RunConfig(space=f"c{CHAIN}", theory="chow", file=str(path)))
    assert (out, code) == (f"{CHAIN}\n", 0)
    out, code = run(RunConfig(space=f"c{CHAIN}", theory="chow", mode="dual", file=str(path)))
    assert (out, code) == ("0\n0: 1\nduality_ok: true\n", 0)


def test_deep_chain_built_with_the_api_answers():
    space = POINT
    for _ in range(CHAIN):
        space = Cellular([Cell(space, 1, 0)])
    assert space.dim() == CHAIN
    assert decompose_by_rank(space).twists == (CHAIN,)
    assert decompose_by_codim(space).twists == (0,)
    assert duality_holds(space)
