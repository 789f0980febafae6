import os
import pickle
import random
import subprocess
import sys

import pytest

import motivec.fgl as fgl_module
from motivec.fgl import logarithm, multiplicative_law, projective_space_class, universal_law
from motivec.gring import GradedRingElement, RingMismatchError, random_homogeneous, universal_ring
from motivec.theory import (
    OrientedTheory,
    ProjectiveSpaceElement,
    chow,
    k0,
    projection_formula_holds,
    theory_from_selector,
    universal,
)

PSE = ProjectiveSpaceElement


def xi(theory, m, i):
    return PSE.hyperplane_power(theory, m, i)


def test_selector_strings():
    assert theory_from_selector("chow").name == "chow"
    assert theory_from_selector("k0").name == "k0"
    assert theory_from_selector("universal:4").ring.truncation == 4
    assert theory_from_selector("universal", truncation=3).ring.truncation == 3
    with pytest.raises(ValueError):
        theory_from_selector("universal")
    with pytest.raises(ValueError):
        theory_from_selector("motivic")


def test_truncation_relation_cuts_products():
    t = chow()
    for m in (1, 3):
        assert (xi(t, m, 1) * xi(t, m, m)).coords == PSE(t, m, [0] * (m + 1)).coords


def test_chow_difference_of_squares_on_p2():
    t = chow()
    one = PSE.hyperplane_power(t, 2, 0)
    assert one == PSE.pullback(t, 2, GradedRingElement.one(t.ring))
    u = one + xi(t, 2, 1)
    v = one - xi(t, 2, 1)
    assert u * v == one - xi(t, 2, 1) * xi(t, 2, 1)


def test_k0_square_survives_on_p2():
    t = k0()
    sq = xi(t, 2, 1) * xi(t, 2, 1)
    assert sq == xi(t, 2, 2)


def test_mixed_spaces_rejected():
    t = chow()
    with pytest.raises(RingMismatchError):
        xi(t, 2, 1) * xi(t, 3, 1)


def test_pushforward_chow_top_power_only():
    t = chow()
    assert xi(t, 3, 3).pushforward_to_point() == GradedRingElement.one(t.ring)
    assert xi(t, 3, 2).pushforward_to_point().is_zero()


def test_pushforward_k0_unit_gives_p2_class():
    t = k0()
    b = GradedRingElement.generator(t.ring, "b")
    assert PSE.hyperplane_power(t, 2, 0).pushforward_to_point() == b * b


def test_pushforward_on_a_point_is_identity():
    for t in (chow(), k0(), universal(5)):
        a = random_homogeneous(random.Random(1), t.ring, -1)
        elem = PSE(t, 0, [a])
        assert elem.pushforward_to_point() == a


def test_pushforward_is_linear():
    rng = random.Random(4)
    for t in (chow(), k0(), universal(6)):
        for _ in range(20):
            m = rng.randint(0, 5)
            deg_u = rng.randint(-2, m)
            u = _random_projective(rng, t, m, deg_u)
            v = _random_projective(rng, t, m, deg_u)
            c = random_homogeneous(rng, t.ring, -rng.randint(0, 2))
            lhs = (u + v.scale(c)).pushforward_to_point()
            rhs = u.pushforward_to_point() + v.pushforward_to_point() * c
            assert lhs == rhs


def _random_projective(rng, theory, m, degree):
    coords = [random_homogeneous(rng, theory.ring, degree - i) for i in range(m + 1)]
    return PSE(theory, m, coords)


def test_pushforward_degree_shift():
    rng = random.Random(9)
    for t in (chow(), k0(), universal(6)):
        for _ in range(15):
            m = rng.randint(0, 5)
            degree = rng.randint(-2, m if t.name == "chow" else 2)
            u = _random_projective(rng, t, m, degree)
            down = u.pushforward_to_point()
            assert u.is_homogeneous(degree)
            assert down.is_homogeneous(degree - m)


def test_projection_formula_examples():
    t = chow()
    assert projection_formula_holds(xi(t, 1, 1), GradedRingElement.one(t.ring))
    tk = k0()
    b = GradedRingElement.generator(tk.ring, "b")
    assert projection_formula_holds(xi(tk, 2, 2), b)


def test_projection_formula_randomized():
    rng = random.Random(17)
    for t in (chow(), k0(), universal(5)):
        for _ in range(40):
            m = rng.randint(0, 4)
            u = _random_projective(rng, t, m, rng.randint(-2, m))
            beta = random_homogeneous(rng, t.ring, -rng.randint(0, 2))
            assert projection_formula_holds(u, beta)


def test_theory_equality_and_cache():
    assert chow() is chow()
    assert universal(4) == universal(4)
    assert chow() != k0()
    assert isinstance(chow(), OrientedTheory)


@pytest.fixture
def built(monkeypatch):
    """Orders of the universal laws built while the test runs, with
    universal(n) made anew."""
    orders = []

    def counting(order):
        orders.append(order)
        return universal_law(order)

    monkeypatch.setattr(fgl_module, "universal_law", counting)
    universal.cache_clear()
    yield orders
    universal.cache_clear()


def test_equality_and_hash_build_no_law(built):
    a = universal(4)
    b = OrientedTheory("universal:4", universal_ring(4), 4, universal_law)
    assert a == b and hash(a) == hash(b) and a != universal(5)
    assert repr(a) == "<theory universal:4>" and {a: 1}[b] == 1
    assert a.ring.truncation == 4 and a.order == 4
    assert built == []


def test_law_is_built_once_and_kept(built):
    t = universal(4)
    assert t.law is t.law
    assert t.law.order == 4 and t.law.ring == t.ring
    assert built == [4]


def test_point_class_equals_projective_space_class():
    law = universal_law(6)
    for k in range(0, 6):
        assert universal(6).point_class(k) == projective_space_class(law, k)
    assert universal(0).point_class(0) == 1 == chow(0).point_class(0)


def test_point_class_is_read_from_the_theorys_own_law():
    from motivec.fgl import FormalGroupLaw, additive_law
    from motivec.gring import CHOW_RING
    from motivec.series import TruncatedSeries

    def shifted_law(order):  # x + y + xy: log(1 + x), so [P^1] = 2 * (-1/2)
        x, y = (TruncatedSeries.variable(CHOW_RING, ("x", "y"), v, order) for v in "xy")
        return FormalGroupLaw("x + y + xy", x + y + x * y)

    a = OrientedTheory("t", CHOW_RING, 4, additive_law)
    b = OrientedTheory("t", CHOW_RING, 4, shifted_law)
    assert a == b and hash(a) == hash(b)  # equality ignores the law builder
    refs = sys.getrefcount(a)
    assert a.point_class(1) == 0 and a.point_class(1) is a.point_class(1)
    assert b.point_class(1) == -1
    assert OrientedTheory("t", CHOW_RING, 4, shifted_law).point_class(1) == -1
    assert sys.getrefcount(a) == refs  # no process-wide cache holds the theory


def test_logarithm_is_computed_once_per_law(monkeypatch):
    calls = []

    def counting(law):
        calls.append(law)
        return logarithm(law)

    monkeypatch.setattr(fgl_module, "logarithm", counting)
    # a law built without a known logarithm computes it on first use
    law = multiplicative_law(6)
    for k in range(1, 6):
        projective_space_class(law, k)
    assert law.log is law.log
    assert calls == [law]
    assert law.log == logarithm(law)

    # the universal law is built with its known logarithm
    calls.clear()
    law = universal_law(6)
    for k in range(1, 6):
        projective_space_class(law, k)
    assert law.log is law.log
    assert calls == []
    assert law.log == logarithm(law)


def test_a_theory_pickles_into_a_fresh_process():
    theories = [chow(), k0(), universal(6)]
    probe = (
        "import pickle, sys\n"
        "from motivec.theory import chow, k0, universal\n"
        "for got, want in zip(pickle.loads(sys.stdin.buffer.read()), [chow(), k0(), universal(6)]):\n"
        "    print(got == want, hash(got) == hash(want), got.point_class(3))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(fgl_module.__file__)))
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"  # another string hash
    proc = subprocess.run([sys.executable, "-c", probe], input=pickle.dumps(theories),
                          capture_output=True, env={**os.environ, "PYTHONPATH": src,
                                                    "PYTHONHASHSEED": seed})
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode().splitlines() == [f"True True {t.point_class(3)}" for t in theories]
