import os
import random
import subprocess
import sys
from math import comb

import pytest

from motivec import motives
from motivec.gring import GradedRingElement
from motivec.motives import (
    Correspondence,
    GradedModuleTable,
    NonSplittableError,
    NotIdempotentError,
    TateMotive,
    compose,
    decompose_by_codim,
    decompose_by_rank,
    identity_correspondence,
    is_idempotent,
    poincare_polynomial,
    projective_bundle_projectors,
    realize,
    realize_table,
    split_idempotent,
    tensor_product,
    transpose,
    zero_correspondence,
)
from motivec.selfcheck import (
    random_block_idempotent,
    random_correspondence,
    random_motive,
)
from motivec.spaces import (
    POINT,
    Cell,
    Cellular,
    EquidimensionalityViolation,
    grassmannian,
    projective_space,
    quadric,
)
from motivec.theory import chow, k0, universal

from oracles import box_partitions, gaussian_coefficients


def sc(theory, v):
    return GradedRingElement.scalar(theory.ring, v)


def diag(theory, motive, values):
    z = GradedRingElement.zero(theory.ring)
    rows = [
        [sc(theory, values[j]) if i == j else z for i in range(motive.size)]
        for j in range(motive.size)
    ]
    return Correspondence(theory, motive, motive, 0, rows)


# -- motives ------------------------------------------------------------------


def test_twists_are_sorted_and_nonnegative():
    assert TateMotive((3, 1, 1)).twists == (1, 1, 3)
    with pytest.raises(ValueError):
        TateMotive((-1, 2))


def test_entry_degree_invariant_enforced():
    theory = chow()
    m = TateMotive((0, 1))
    one = GradedRingElement.one(theory.ring)
    z = GradedRingElement.zero(theory.ring)
    with pytest.raises(ValueError, match="homogeneous"):
        Correspondence(theory, m, m, 0, [[one, one], [z, one]])


def test_k0_cross_twist_entries():
    theory = k0()
    b = GradedRingElement.generator(theory.ring, "b")
    binv = GradedRingElement.generator(theory.ring, "b", -1)
    l0, l1 = TateMotive((0,)), TateMotive((1,))
    e = Correspondence(theory, l0, l1, 0, [[b]])
    f = Correspondence(theory, l1, l0, 0, [[binv]])
    assert compose(f, e) == identity_correspondence(theory, l0)
    assert compose(e, f) == identity_correspondence(theory, l1)


def test_identity_is_a_unit():
    rng = random.Random(0)
    theory = chow()
    src, tgt = random_motive(rng), random_motive(rng)
    alpha = random_correspondence(rng, theory, src, tgt, 1)
    assert compose(identity_correspondence(theory, tgt), alpha) == alpha
    assert compose(alpha, identity_correspondence(theory, src)) == alpha


def test_diagonal_composition():
    theory = chow()
    m = TateMotive((0, 1))
    assert compose(diag(theory, m, [1, 1]), diag(theory, m, [2, 3])) == diag(
        theory, m, [2, 3]
    )


def test_compose_shape_mismatch():
    theory = chow()
    a = identity_correspondence(theory, TateMotive((0,)))
    b = identity_correspondence(theory, TateMotive((1,)))
    with pytest.raises(ValueError):
        compose(a, b)


# -- transpose ----------------------------------------------------------------


def test_transpose_involution_randomized():
    rng = random.Random(5)
    for theory in (chow(), k0(), universal(6)):
        for _ in range(25):
            src, tgt = random_motive(rng), random_motive(rng)
            c = rng.randint(-1, 2)
            alpha = random_correspondence(rng, theory, src, tgt, c)
            ds = max(src.twists, default=0) + rng.randint(0, 2)
            dt = max(tgt.twists, default=0) + rng.randint(0, 2)
            t = transpose(alpha, ds, dt)
            assert t.degree == ds + c - dt
            assert transpose(t, dt, ds) == alpha


def test_transpose_contravariance_randomized():
    rng = random.Random(6)
    for theory in (chow(), k0(), universal(6)):
        for _ in range(25):
            a, b, c = (random_motive(rng) for _ in range(3))
            f = random_correspondence(rng, theory, a, b, rng.randint(-1, 1))
            g = random_correspondence(rng, theory, b, c, rng.randint(-1, 1))
            da = max(a.twists, default=0)
            db = max(b.twists, default=0)
            dc = max(c.twists, default=0)
            assert transpose(compose(g, f), da, dc) == compose(
                transpose(f, da, db), transpose(g, db, dc)
            )


def test_transpose_of_quadric_identity():
    theory = chow()
    m = decompose_by_rank(quadric(1))
    ident = identity_correspondence(theory, m)
    t = transpose(ident, 2, 2)
    assert t.source == TateMotive(2 - n for n in m.twists)
    assert t == identity_correspondence(theory, t.source)


def test_transpose_rejects_small_ambient_dimension():
    theory = chow()
    ident = identity_correspondence(theory, TateMotive((3,)))
    with pytest.raises(ValueError):
        transpose(ident, 2, 2)


# -- tensor product -------------------------------------------------------------


def test_tensor_of_identities():
    theory = chow()
    m, n = TateMotive((0, 2)), TateMotive((1,))
    got = tensor_product(
        identity_correspondence(theory, m), identity_correspondence(theory, n)
    )
    assert got == identity_correspondence(theory, TateMotive((1, 3)))


def test_tensor_with_empty_motive():
    theory = chow()
    empty = TateMotive(())
    alpha = identity_correspondence(theory, TateMotive((0, 1)))
    got = tensor_product(alpha, identity_correspondence(theory, empty))
    assert got.source == empty and got.target == empty


def test_tensor_interchange_randomized():
    rng = random.Random(7)
    for theory in (chow(), k0()):
        for _ in range(30):
            a, b, c = (random_motive(rng) for _ in range(3))
            a2, b2, c2 = (random_motive(rng) for _ in range(3))
            f = random_correspondence(rng, theory, a, b, 0)
            g = random_correspondence(rng, theory, b, c, 0)
            f2 = random_correspondence(rng, theory, a2, b2, 0)
            g2 = random_correspondence(rng, theory, b2, c2, 0)
            assert compose(tensor_product(g, g2), tensor_product(f, f2)) == tensor_product(
                compose(g, f), compose(g2, f2)
            )


# -- idempotent splitting --------------------------------------------------------


def test_split_identity():
    theory = chow()
    m = TateMotive((0, 2, 2))
    cert = split_idempotent(identity_correspondence(theory, m))
    assert cert.motive == m
    assert cert.section == identity_correspondence(theory, m)
    assert cert.retraction == identity_correspondence(theory, m)
    assert cert.integral


def test_split_diagonal_projector():
    theory = chow()
    m = TateMotive((2, 5))
    cert = split_idempotent(diag(theory, m, [1, 0]))
    assert cert.motive == TateMotive((2,))
    co = split_idempotent(diag(theory, m, [0, 1]))
    assert co.motive == TateMotive((5,))


def test_split_rank_one_chow_example():
    theory = chow()
    m = TateMotive((3, 3))
    one = GradedRingElement.one(theory.ring)
    z = GradedRingElement.zero(theory.ring)
    p = Correspondence(theory, m, m, 0, [[one, one], [z, z]])
    assert is_idempotent(p)
    cert = split_idempotent(p)
    assert cert.motive == TateMotive((3,))
    assert compose(cert.retraction, cert.section) == identity_correspondence(
        theory, cert.motive
    )
    assert compose(cert.section, cert.retraction) == p
    assert cert.integral


def test_split_rejects_non_idempotents():
    theory = chow()
    m = TateMotive((0,))
    two = diag(theory, m, [2])
    with pytest.raises(NotIdempotentError):
        split_idempotent(two)
    shift = random_correspondence(random.Random(1), theory, m, m, 1)
    with pytest.raises(NotIdempotentError):
        split_idempotent(shift)


def test_split_refuses_non_scalar_projector():
    theory = universal(4)
    m1 = GradedRingElement.generator(theory.ring, "m_1")
    one = GradedRingElement.one(theory.ring)
    z = GradedRingElement.zero(theory.ring)
    m = TateMotive((0, 1))
    p = Correspondence(theory, m, m, 0, [[one, z], [m1, z]])
    assert is_idempotent(p)
    with pytest.raises(NonSplittableError):
        split_idempotent(p)


@pytest.mark.parametrize("case", ["universal", "laurent-and-plain"])
def test_split_names_the_first_non_scalar_entry(case):
    from motivec.gring import Generator, RingDescriptor
    from motivec.theory import OrientedTheory

    if case == "universal":
        theory = universal(4)
        gen = lambda symbol: GradedRingElement.generator(theory.ring, symbol)  # noqa: E731
        first, m = gen("m_2") + gen("m_1") ** 2, TateMotive((0, 2))
        rows, message = [[1, 0], [first, 0]], "entry m_2 + m_1^2 is not a scalar multiple"
        degree = -2
    else:
        # a unit monomial beside a plain one of the same degree: only the
        # second entry of the block has a term off the unit
        ring = RingDescriptor("mixed", (Generator("u", -1, True), Generator("v", -1)), "Z")
        theory = OrientedTheory("mixed", ring, 2, None)
        u, v = (GradedRingElement.generator(ring, g) for g in "uv")
        m = TateMotive((0, 1, 1))
        rows, message = [[1, 0, 0], [u, 0, 0], [u + v, 0, 0]], "entry v + u is not a scalar multiple"
        degree = -1
    rows = [[e if isinstance(e, GradedRingElement) else sc(theory, e) for e in row] for row in rows]
    p = Correspondence(theory, m, m, 0, rows)
    assert is_idempotent(p)
    with pytest.raises(NonSplittableError) as err:
        split_idempotent(p)
    assert str(err.value) == f"{message} of a unit monomial of degree {degree}"


def test_split_randomized_blocks_reassemble():
    rng = random.Random(8)
    for _ in range(40):
        theory = (chow(), k0())[rng.randrange(2)]
        motive = random_motive(rng, max_size=4, max_twist=3)
        p = random_block_idempotent(rng, theory, motive)
        cert = split_idempotent(p)
        co = split_idempotent(identity_correspondence(theory, motive) - p)
        assert tuple(sorted(cert.motive.twists + co.motive.twists)) == motive.twists
        assert compose(cert.section, cert.retraction) == p
        assert cert.integral and co.integral


def test_split_k0_cross_twist_projector():
    theory = k0()
    ring = theory.ring
    binv = GradedRingElement.generator(ring, "b", -1)
    one = GradedRingElement.one(ring)
    z = GradedRingElement.zero(ring)
    m = TateMotive((0, 1))
    # all twists are unit-isomorphic over this ring, so projectors may mix them
    p = Correspondence(theory, m, m, 0, [[z, binv], [z, one]])
    assert is_idempotent(p)
    cert = split_idempotent(p)
    assert cert.motive.size == 1
    assert compose(cert.retraction, cert.section) == identity_correspondence(
        theory, cert.motive
    )
    assert compose(cert.section, cert.retraction) == p
    co = split_idempotent(identity_correspondence(theory, m) - p)
    assert co.motive.size == 1


def test_split_rational_universal_blocks():
    from fractions import Fraction

    theory = universal(3)
    m = TateMotive((1, 1))
    h = GradedRingElement.scalar(theory.ring, Fraction(1, 2))
    p = Correspondence(theory, m, m, 0, [[h, h], [h, h]])
    assert is_idempotent(p)
    cert = split_idempotent(p)
    assert cert.motive == TateMotive((1,))
    assert not cert.integral
    assert compose(cert.section, cert.retraction) == p


def rational_inverse(a):
    """The inverse of a square integer matrix over Q, or None when singular."""
    from fractions import Fraction

    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c]), None)
        if pivot is None:
            return None
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                m[r] = [x - m[r][c] * y for x, y in zip(m[r], m[c])]
    return [row[n:] for row in m]


def random_rational_projector(rng, theory, motive):
    """A twist-blocked projector A D A^-1 per block, A a random integer matrix."""
    n, entries, offset = motive.size, {}, 0
    for _, size in motive.histogram:
        inverse = None
        while inverse is None:
            a = [[rng.randint(-2, 2) for _ in range(size)] for _ in range(size)]
            inverse = rational_inverse(a)
        d = [rng.random() < 0.5 for _ in range(size)]
        for i in range(size):
            for j in range(size):
                entries[offset + i, offset + j] = sum(a[i][k] * inverse[k][j] for k in range(size) if d[k])
        offset += size
    rows = [[sc(theory, entries.get((j, i), 0)) for i in range(n)] for j in range(n)]
    return Correspondence(theory, motive, motive, 0, rows)


def test_split_random_rational_projectors():
    rng = random.Random(5)
    theory = universal(3)
    rational = 0
    for _ in range(30):
        motive = TateMotive(rng.randrange(2) for _ in range(rng.randint(2, 5)))
        p = random_rational_projector(rng, theory, motive)
        assert is_idempotent(p)
        integral = all(c.denominator == 1 for block in p.blocks.values()
                       for m in block.values() for row in m for c in row)
        rational += not integral
        for q in (p, identity_correspondence(theory, motive) - p):
            cert = split_idempotent(q)
            assert compose(cert.retraction, cert.section) == identity_correspondence(theory, cert.motive)
            assert compose(cert.section, cert.retraction) == q
            assert cert.integral == integral
    assert rational >= 10


def test_splitting_integral_projectors_loads_no_fractions():
    probe = (
        "import sys\n"
        "from motivec.motives import decompose_by_rank, projective_bundle_projectors, split_idempotent\n"
        "from motivec.spaces import grassmannian\n"
        "from motivec.theory import chow, k0\n"
        "base = decompose_by_rank(grassmannian(2, 4))\n"
        "for theory in (chow(), k0()):\n"
        "    for i, p in enumerate(projective_bundle_projectors(theory, base, 3)):\n"
        "        cert = split_idempotent(p)\n"
        "        print(cert.integral and cert.motive == base.shifted(i))\n"
        "print('fractions' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(motives.__file__)))
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.stdout.split() == ["True"] * 6 + ["False"], proc.stderr


# -- bundle projectors ------------------------------------------------------------


def test_bundle_projectors_on_a_point():
    theory = chow()
    projectors = projective_bundle_projectors(theory, TateMotive((0,)), 3)
    total = projectors[0].source
    assert total == TateMotive((0, 1, 2))
    for i, p in enumerate(projectors):
        assert is_idempotent(p)
        assert split_idempotent(p).motive == TateMotive((i,))
        for j, q in enumerate(projectors):
            if i != j:
                assert compose(p, q).is_zero()
    acc = zero_correspondence(theory, total, total, 0)
    for p in projectors:
        acc = acc + p
    assert acc == identity_correspondence(theory, total)


def test_bundle_projectors_nontrivial_base():
    theory = k0()
    base = TateMotive((0, 1))
    projectors = projective_bundle_projectors(theory, base, 2)
    assert projectors[0].source == TateMotive((0, 1, 1, 2))
    images = [split_idempotent(p).motive for p in projectors]
    assert images == [base, base.shifted(1)]


@pytest.mark.parametrize("theory", [chow(), k0()], ids=["chow", "k0"])
@pytest.mark.parametrize("space", [projective_space(3), quadric(2), grassmannian(2, 4),
                                   grassmannian(4, 8)], ids=["P3", "Q2", "Gr24", "Gr48"])
def test_bundle_projectors_decompose_real_motives(space, theory):
    # the paper's bundle decomposition: the motive of a rank-r projective
    # bundle over the space is the sum of r shifted copies of the space's
    base = decompose_by_rank(space)
    for rank in (2, 3):
        projectors = projective_bundle_projectors(theory, base, rank)
        total = projectors[0].source
        acc = zero_correspondence(theory, total, total, 0)
        for i, p in enumerate(projectors):
            assert all(compose(p, q).is_zero() for j, q in enumerate(projectors) if j != i)
            cert = split_idempotent(p)
            assert cert.motive == base.shifted(i) and cert.integral
            acc = acc + p
        assert acc == identity_correspondence(theory, total)


# -- decomposition routes -----------------------------------------------------------


def test_projective_space_routes():
    for n in range(0, 8):
        m = decompose_by_rank(projective_space(n))
        assert m.twists == tuple(range(n + 1))
        assert decompose_by_codim(projective_space(n)).twists == tuple(range(n + 1))


def test_quadric_motive_shape():
    for d in range(0, 9):
        got = decompose_by_rank(quadric(d))
        want = sorted(list(range(0, d + 1)) + list(range(d, 2 * d + 1)))
        assert got.twists == tuple(want)


def test_quadric_twists_palindromic():
    for d in range(0, 7):
        q = quadric(d)
        assert decompose_by_codim(q) == decompose_by_rank(q)


def test_codim_route_needs_equidimensionality():
    bad = Cellular([Cell(POINT, 2, 0), Cell(POINT, 0, 1)])
    assert decompose_by_rank(bad).twists == (0, 2)
    with pytest.raises(EquidimensionalityViolation):
        decompose_by_codim(bad)


def test_route_duality_on_builtins():
    spaces = [projective_space(n) for n in range(0, 10)]
    spaces += [quadric(d) for d in range(0, 6)]
    spaces += [grassmannian(d, n) for n in range(0, 9) for d in range(0, n + 1)]
    for s in spaces:
        dim = s.dim()
        by_rank = decompose_by_rank(s)
        by_codim = decompose_by_codim(s)
        assert by_codim.twists == tuple(sorted(dim - t for t in by_rank.twists))


def test_grassmannian_poincare_is_gaussian():
    for n in range(0, 9):
        for d in range(0, n + 1):
            coeffs = poincare_polynomial(decompose_by_rank(grassmannian(d, n)))
            want = gaussian_coefficients(d, n - d)
            while len(want) < len(coeffs):
                want.append(0)
            assert coeffs == want[: len(coeffs)]
            assert sum(coeffs) == comb(n, d)


def test_poincare_examples():
    assert poincare_polynomial(decompose_by_rank(projective_space(3))) == [1, 1, 1, 1]
    assert poincare_polynomial(decompose_by_rank(quadric(3))) == [1, 1, 1, 2, 1, 1, 1]
    assert poincare_polynomial(decompose_by_rank(grassmannian(2, 5))) == [1, 1, 2, 2, 2, 1, 1]
    assert poincare_polynomial(TateMotive(())) == []


# -- realization ---------------------------------------------------------------------


def test_realize_chow_counts_twists():
    m = decompose_by_rank(quadric(2))
    assert realize(m, chow(), 2).rank == 2
    assert realize(m, chow(), 5).rank == 0
    table = realize_table(m, chow())
    assert table.ranks() == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}


def test_realize_k0_is_periodic():
    m = decompose_by_rank(quadric(3))
    table = realize_table(m, k0())
    assert table.periodic
    for k in (-2, 0, 7):
        assert realize(m, k0(), k).rank == 8
    assert table.total_rank() == 8


def test_realize_universal_window():
    theory = universal(3)
    m = decompose_by_rank(projective_space(2))
    table = realize_table(m, theory)
    assert set(table.ranks()) == set(range(-1, 3))
    # degree 2 sees only the twist-2 line: rank 1 with basis {1}
    assert realize(m, theory, 2).basis_strings() == ["1"]
    # degree 0: 1 from twist 0, m_1 from twist 1, m_2 and m_1^2 from twist 2
    assert realize(m, theory, 0).rank == 4


def test_realize_grassmannian_matches_partition_oracle():
    for n in range(0, 8):
        for d in range(0, n + 1):
            motive = decompose_by_rank(grassmannian(d, n))
            table = realize_table(motive, chow())
            for k in range(0, d * (n - d) + 1):
                assert table.rank(k) == box_partitions(k, d, n - d)


def test_realize_table_additivity():
    rng = random.Random(3)
    for _ in range(10):
        a, b = random_motive(rng), random_motive(rng)
        combined = TateMotive(a.twists + b.twists)
        ta = realize_table(a, chow()).ranks()
        tb = realize_table(b, chow()).ranks()
        tc = realize_table(combined, chow()).ranks()
        merged = {}
        for table in (ta, tb):
            for k, r in table.items():
                merged[k] = merged.get(k, 0) + r
        assert {k: r for k, r in merged.items() if r} == tc
        # truncated rings: additivity degreewise on the combined window
        theory = universal(4)
        for k in realize_table(combined, theory).ranks():
            assert (
                realize(a, theory, k).rank + realize(b, theory, k).rank
                == realize(combined, theory, k).rank
            )


def test_module_table_and_certificate_are_immutable_records():
    table = realize_table(decompose_by_rank(projective_space(1)), chow())
    assert GradedModuleTable(entries=table.entries) == table
    assert not table.periodic
    assert repr(GradedModuleTable(entries=())) == "GradedModuleTable(entries=(), periodic=False)"
    m = TateMotive([0, 1])
    cert = split_idempotent(identity_correspondence(chow(), m))
    for record, field in ((table, "periodic"), (cert, "integral")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = 1


def test_twist_expansion_is_refused_past_the_budget(monkeypatch):
    monkeypatch.setattr(motives, "MAX_TWISTS", 3)
    assert TateMotive.from_histogram([(0, 1), (2, 2)]).twists == (0, 2, 2)
    big = TateMotive.from_histogram([(0, 2), (2, 2)])
    with pytest.raises(ValueError, match="^motive has 4 twists, more than the 3 it may list$"):
        big.twists
    with pytest.raises(ValueError):
        list(big)
    assert big.size == 4 and poincare_polynomial(big) == [2, 0, 2]


def test_a_motive_is_its_histogram_and_a_morphism_its_blocks():
    assert TateMotive.__slots__ == ("histogram", "size")
    assert Correspondence.__slots__ == ("theory", "source", "target", "degree", "blocks")
    assert not any("__getattr__" in vars(cls) for cls in (TateMotive, Correspondence))
    m = TateMotive([2, 0, 2])
    assert m.histogram == ((0, 1), (2, 2)) and m.twists == (0, 2, 2) == tuple(m)
    theory = k0()
    b = GradedRingElement.generator(theory.ring, "b")
    rows = [[sc(theory, 1), sc(theory, 0), b ** -2],
            [sc(theory, 0), sc(theory, 3), sc(theory, -1)],
            [sc(theory, 0), sc(theory, 0), sc(theory, 1)]]
    p = Correspondence(theory, m, m, 0, rows)
    assert p.entries == tuple(map(tuple, rows))
    assert p.entry(0, 2) == b ** -2 and p.entry(1, 2) == -1 and p.entry(-2, -2) == 3
    with pytest.raises(IndexError):
        p.entry(0, 3)
    # an entry is built from its block alone, never through the dense matrix
    big = TateMotive.from_histogram([(0, 10 ** 6), (1, 10 ** 6)])
    eye = identity_correspondence(theory, TateMotive.from_histogram([(0, 2), (1, 1)]))
    assert zero_correspondence(theory, big, big).entry(10 ** 6 + 5, 7).is_zero()
    assert [eye.entry(j, 1) for j in range(3)] == [0, 1, 0]
    assert p.blocks == Correspondence(theory, m, m, 0, p.entries).blocks


def test_repr_and_shape_errors_print_histograms():
    huge = TateMotive.from_histogram([(0, 1 << 25)])
    assert repr(zero_correspondence(chow(), huge, TateMotive())) == (
        "<corr ((0, 33554432),) -> () deg 0 over chow>")
    a, b = (TateMotive.from_histogram([(0, n)]) for n in (3000, 2999))
    with pytest.raises(ValueError) as err:
        compose(zero_correspondence(chow(), b, b), zero_correspondence(chow(), a, a))
    assert str(err.value) == "shapes do not compose: ((0, 3000),) then ((0, 2999),)"


def dense_block_idempotent(rng, theory, motive):
    """`random_block_idempotent` as first written: the same draws, then n^2
    scalar ring elements through the dense constructor."""
    entries, offset = {}, 0
    for _, size in motive.histogram:
        diag = [[1 if (i == j and rng.random() < 0.6) else 0 for j in range(size)] for i in range(size)]
        identity = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
        basis, inverse = [row[:] for row in identity], [row[:] for row in identity]
        for _ in range(size):
            i, j = rng.randrange(size), rng.randrange(size)
            if i != j:
                sign = rng.choice((-1, 1))
                for k in range(size):
                    basis[i][k] += sign * basis[j][k]
                    inverse[k][j] -= sign * inverse[k][i]
        mul = lambda a, b: [[sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]  # noqa: E731
                            for i in range(size)]
        block = mul(mul(inverse, diag), basis)
        for i in range(size):
            for j in range(size):
                entries[(offset + i, offset + j)] = block[i][j]
        offset += size
    n = motive.size
    rows = [[sc(theory, entries.get((j, i), 0)) for i in range(n)] for j in range(n)]
    return Correspondence(theory, motive, motive, 0, rows)


def test_block_idempotent_is_built_from_blocks(monkeypatch):
    """The same blocks and the same draws as the dense construction, for
    seeds 0-3, without building a dense matrix of ring elements."""
    def draws(rng, build):
        out = []
        for _ in range(60):
            theory = (chow(), k0())[rng.randrange(2)]
            motive = random_motive(rng, max_size=4, max_twist=3)
            out.append(build(rng, theory, motive))
        return out

    for seed in range(4):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = draws(want_rng, dense_block_idempotent)
        with monkeypatch.context() as patch:
            patch.setattr(Correspondence, "__init__", None)  # no dense construction
            got = draws(got_rng, random_block_idempotent)
        assert [(p.theory, p.source, p.blocks) for p in got] == [
            (p.theory, p.source, p.blocks) for p in want]
        assert got_rng.getstate() == want_rng.getstate()
