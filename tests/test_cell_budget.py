"""Built-in spaces past the cell budget are refused before they are built.

P(n) has n + 1 cells, quadric(d) has d + 3 (its own two and those of
P(d)), and Gr(d, n) has (n - d + 1) + (d - 1)(n - d)(n - d + 3)/2 over its
distinct nodes.  A selector or a document naming a larger one gets one
line and exit 1, at once: these requests used to run for seconds to
minutes and hundreds of MB.
"""

import time

import pytest

from motivec import spaces
from motivec.cli import main
from motivec.dsl import ParseError, parse_document
from motivec.spaces import MAX_CELLS, grassmannian, projective_space, quadric, walk_dag
from oracles import gaussian_coefficients


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def cell_count(space) -> int:
    """Cells over the distinct nodes of a space, counted by walking it."""
    return sum(walk_dag(space, lambda node, _: len(getattr(node, "cells", ()))).values())


def gr_cells(d, n):
    return 0 if d in (0, n) else (n - d + 1) + (d - 1) * (n - d) * (n - d + 3) // 2


def test_cell_formulas_match_the_built_spaces():
    assert gr_cells(8, 16) == cell_count(grassmannian(8, 16)) == 317
    for n in range(0, 13):
        assert cell_count(projective_space(n)) == n + 1
        for d in range(0, n + 1):
            assert cell_count(grassmannian(d, n)) == gr_cells(d, n), (d, n)
    assert [cell_count(quadric(d)) for d in range(0, 5)] == [0, 4, 5, 6, 7]


@pytest.mark.parametrize("argv, name, cells", [
    (["--space", "P:99999999999"], "P(99999999999)", 10 ** 11),
    (["--space", "P:1000000"], "P(1000000)", 1000001),
    (["--space", "Gr:2,3000", "--mode", "poincare"], "Gr(2,3000)", gr_cells(2, 3000)),
    (["--space", "quadric:1000000", "--mode", "groups"], "quadric(1000000)", 1000003),
])
def test_large_selectors_are_refused_at_once(argv, name, cells, capsys):
    start = time.perf_counter()
    code, out, err = invoke(argv, capsys)
    assert time.perf_counter() - start < 0.5
    assert code == 1 and out == ""
    assert err == (f"motivec: bad space selector {argv[1]!r}: {name} has {cells} cells, "
                   f"more than the {MAX_CELLS} it may have\n")


@pytest.mark.parametrize("expr", ["P(1000000)", "quadric(99999999999)", "Gr(2, 3000)"])
def test_large_builtins_in_a_document_are_parse_errors(expr, tmp_path, capsys):
    text = f"space big {{\n  cell {{ base = {expr}; rank = 0; codim = 0 }}\n}}\n"
    with pytest.raises(ParseError, match=r"^line 2, col 17: .* cells, more than the "):
        parse_document(text)
    path = tmp_path / "big.txt"
    path.write_text(text, encoding="utf-8")
    code, out, err = invoke(["--file", str(path), "--space", "big"], capsys)
    assert code == 1 and out == ""
    assert err.startswith("motivec: line 2, col 17: ") and err.count("\n") == 1


def test_the_budget_is_inclusive(monkeypatch, capsys):
    grassmannian.cache_clear()  # a cached Grassmannian is not counted again
    try:
        monkeypatch.setattr(spaces, "MAX_CELLS", gr_cells(3, 7))
        assert invoke(["--space", "Gr:3,7", "--mode", "poincare"], capsys) == (
            0, "1 1 2 3 4 4 5 4 4 3 2 1 1\n", "")
        assert invoke(["--space", f"P:{gr_cells(3, 7) - 1}", "--mode", "poincare"],
                      capsys)[0] == 0
        assert invoke(["--space", f"quadric:{gr_cells(3, 7) - 3}", "--mode", "poincare"],
                      capsys)[0] == 0
        for selector, name in ((f"P:{gr_cells(3, 7)}", "P"), (f"quadric:{gr_cells(3, 7) - 2}",
                                                              "quadric"), ("Gr:3,8", "Gr")):
            code, out, err = invoke(["--space", selector, "--mode", "poincare"], capsys)
            assert code == 1 and out == "" and err.count("\n") == 1, selector
            assert f": {name}(" in err and f"more than the {gr_cells(3, 7)} it" in err
        monkeypatch.setattr(spaces, "MAX_CELLS", gr_cells(3, 7) - 1)
        grassmannian.cache_clear()
        code, _, err = invoke(["--space", "Gr:3,7"], capsys)
        assert code == 1 and "Gr(3,7) has 33 cells, more than the 32 it may have" in err
    finally:
        grassmannian.cache_clear()


def test_the_largest_builtins_of_the_benchmark_stay_inside():
    assert gr_cells(8, 16) <= MAX_CELLS and gr_cells(7, 13) <= MAX_CELLS


def test_long_thin_grassmannians_are_built_without_recursion(capsys):
    """Gr(d, n) is built one d at a time: Gr(600, 601) and Gr(330, 338), under
    the budget, used to end in a RecursionError, exit 2."""
    for d, n in ((330, 338), (600, 601)):
        space = grassmannian(d, n)
        assert space.dim() == d * (n - d)
        assert cell_count(space) == gr_cells(d, n)
    code, out, err = invoke(["--space", "Gr:600,601", "--mode", "poincare"], capsys)
    assert code == 0 and err == ""
    assert out == " ".join(map(str, gaussian_coefficients(1, 600))) + "\n"
