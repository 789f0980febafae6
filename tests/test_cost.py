"""Multiplication counts of the group-law work, a cost guard without a clock.

Wall time on a shared machine swings too much to gate small regressions, but
the number of products the algorithms ask for repeats exactly.  These tests
count ``TruncatedSeries`` and ``GradedRingElement`` products, through both
``__mul__`` and ``__rmul__``, and hold them at the counts of the Horner
substitution, the working-order reversion and inverse, and the degree-carrying
product, plus a small margin.

Counts before those changes: ``selfcheck.suite_fgl(random.Random(0))`` took
1 698 series and 8 219 ring products, and ``universal_law(12)`` took 312 and
7 253.
"""

import random

import pytest

from motivec import selfcheck
from motivec.fgl import universal_law
from motivec.gring import GradedRingElement
from motivec.series import TruncatedSeries

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
    assert products[TruncatedSeries] <= 641 * MARGIN
    assert products[GradedRingElement] <= 6970 * MARGIN


def test_universal_law_product_counts(products):
    universal_law(12)
    assert products[TruncatedSeries] <= 178 * MARGIN
    assert products[GradedRingElement] <= 5758 * MARGIN


# Packed monomials: the motive-category suite skips zero entries in `compose`
# and `tensor_product`, so it asks for 5 660 ring products where it asked for
# 9 257.  Package code reads the packed terms and never builds the `terms`
# view keyed by exponent tuples.


def test_motive_category_product_counts(products):
    selfcheck.suite_motive_category(random.Random(0))
    assert products[GradedRingElement] <= 5660 * MARGIN


@pytest.fixture
def views(monkeypatch):
    built = []
    original = GradedRingElement.__getattr__

    def counting(self, name):
        value = original(self, name)
        built.append(name)
        return value

    monkeypatch.setattr(GradedRingElement, "__getattr__", counting)
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
