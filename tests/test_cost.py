"""Multiplication counts of the group-law work, a cost guard without a clock.

Wall time on a shared machine swings too much to gate small regressions, but
the number of products the algorithms ask for repeats exactly.  These tests
count ``TruncatedSeries`` and ``GradedRingElement`` products, through both
``__mul__`` and ``__rmul__``, and hold them at today's counts plus a small
margin: ``selfcheck.suite_fgl(random.Random(0))`` asks for 64 series and 694
ring products, and ``universal_law(12)`` for none and 363.  Those are the
counts of the fused series product, the Horner substitution grouped by the
image with the most terms that builds each power only to the order it is
needed at, and the power-table solver shared by reversion, the inverse and
the logarithm.

Earlier counts: while the logarithm inverted the invariant differential by
its geometric series and integrated it, ``suite_fgl`` took 81 series and 891
ring products.  Before the fused series product, the powers built only to
the order they are needed at and the power-table reversion and inverse,
``suite_fgl`` took 641 series and 6 093 ring products, and
``universal_law(12)`` 178 and 5 758.  Before the degree-carrying product,
``suite_fgl`` took 1 698 series and 8 219 ring products, and
``universal_law(12)`` 312 and 7 253.  Grouping the substitution by the first
variable rather than by the image with the most terms, ``suite_fgl`` took
6 964 ring products.
"""

import random

import pytest

from motivec import linalg, motives, selfcheck
from motivec.fgl import universal_law
from motivec.gring import GradedRingElement
from motivec.series import TruncatedSeries
from motivec.spaces import grassmannian
from motivec.theory import chow, k0

MARGIN = 1.05


@pytest.fixture
def products(monkeypatch):
    counts = {TruncatedSeries: 0, GradedRingElement: 0}
    for cls in counts:
        for name in ("__mul__", "__rmul__"):
            original = vars(cls)[name]

            def counting(*args, _original=original, _cls=cls, **kwargs):
                counts[_cls] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cls, name, counting)
    return counts


def test_fgl_suite_product_counts(products):
    selfcheck.suite_fgl(random.Random(0))
    assert products[TruncatedSeries] <= 64 * MARGIN
    assert products[GradedRingElement] <= 694 * MARGIN


def test_universal_law_product_counts(products):
    universal_law(12)
    assert products[TruncatedSeries] == 0
    assert products[GradedRingElement] <= 363 * MARGIN


# An element of the theory on P^m is a series in t, so the products of P^m
# elements in the theory suite are series products: 90 of them on a warm
# run.  The fused series product multiplies homogeneous coefficients term
# by term without a ring product, so the suite asks for 533 ring products,
# those of the push-forwards and of the projection formula's right side;
# the element-by-element series product asked for 659.


def test_theory_suite_product_counts(products):
    selfcheck.suite_theory(random.Random(0))  # builds the laws and the point classes
    products.update(dict.fromkeys(products, 0))
    selfcheck.suite_theory(random.Random(0))
    assert products[TruncatedSeries] == 90
    assert products[GradedRingElement] == 533


# Twist blocks: `compose` and `tensor_product` multiply the scalar matrices of
# the blocks that are present, one product per pair of their monomials, and
# never a ring element.  The motive-category suite asks for 1 408 block
# products and 1 016 block Kronecker products; with dense matrices it asked
# for 5 660 ring products (9 257 before zero entries were skipped).  Package
# code reads the packed terms and never builds the `terms` view keyed by
# exponent tuples.


@pytest.fixture
def block_products(monkeypatch):
    counts = {"_matmul_into": 0, "_kron_into": 0}
    for name in counts:
        original = getattr(motives, name)

        def counting(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(motives, name, counting)
    return counts


def test_motive_category_product_counts(products, block_products):
    selfcheck.suite_motive_category(random.Random(0))
    assert products[GradedRingElement] == 0
    assert block_products["_matmul_into"] <= 1408 * MARGIN
    assert block_products["_kron_into"] <= 1016 * MARGIN


# Splitting: `split_idempotent` eliminates each class of twists that the
# projector's blocks link on its own, and `_units` normalizes the scalars of
# the certificates' blocks alone.  The rank-3 bundle projectors over Gr(4,8)
# have 210 generators in 19 twists, at most 22 of them in one twist, and only
# diagonal blocks.  Eliminating the whole motive at once took 210 rows, and
# scanning every twist pair of both certificates 88 200 normalizations.


@pytest.mark.parametrize("theory", [chow(), k0()], ids=["chow", "k0"])
def test_bundle_splits_eliminate_one_class_of_twists_at_a_time(theory, monkeypatch):
    base = motives.decompose_by_rank(grassmannian(4, 8))
    projectors = motives.projective_bundle_projectors(theory, base, 3)
    rows, normalized = [], []
    eliminate, normalize = linalg.integer_column_basis, motives._normalize_scalar

    def counting_elimination(matrix):
        rows.append(len(matrix))
        return eliminate(matrix)

    def counting_normalization(*args):
        normalized.append(1)
        return normalize(*args)

    monkeypatch.setattr(linalg, "integer_column_basis", counting_elimination)
    monkeypatch.setattr(motives, "_normalize_scalar", counting_normalization)
    for i, p in enumerate(projectors):
        assert motives.split_idempotent(p).motive == base.shifted(i)
    assert rows and max(rows) <= 22
    assert len(normalized) <= 6808


@pytest.fixture
def views(monkeypatch):
    built = []
    original = GradedRingElement.terms.fget

    def counting(self):
        built.append("terms")
        return original(self)

    monkeypatch.setattr(GradedRingElement, "terms", property(counting))
    return built


@pytest.mark.parametrize("work", [
    lambda: selfcheck.suite_fgl(random.Random(0)),
    lambda: universal_law(12),
], ids=["suite_fgl", "universal_law"])
def test_group_law_work_builds_no_terms_view(views, work):
    work()
    assert views == []
    GradedRingElement.one(universal_law(3).ring).terms  # the counter sees a view
    assert views == ["terms"]
