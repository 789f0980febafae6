"""Memory gate: a request's peak RSS over the `--space point` floor is at
most K * (input bytes + answer bytes) + C.

Each request runs as a fresh `python -m motivec.cli` process, forked by a
small `python -S` helper that reports the child's `ru_maxrss` from `wait4`.
The helper, not pytest, forks the request because Linux carries a
process's peak RSS across fork and exec, so a child of pytest would read
pytest's own size.  The input of a file request is the file; that of a
built-in is its distinct cells, CELL_BYTES each, about the text of one
`cell { ... }` line.  Memory is steady from run to run, so the gate reads
no clock.  A case joins the gate once it passes; none is skipped.
"""

import os
import subprocess
import sys

import pytest

import motivec
from motivec.spaces import grassmannian, walk_dag

K = 32  # bytes of peak per byte of input and answer
C = 4 << 20  # bytes of peak over the floor that any request may take
CELL_BYTES = 64

HELPER = r"""
import os, resource, sys
answer = os.open(sys.argv[1], os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
pid = os.fork()
if pid == 0:
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # a runaway request fails here
    os.dup2(answer, 1)
    os.execv(sys.executable, [sys.executable, "-m", "motivec.cli", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def peak(argv, tmp_path) -> tuple[int, int, int]:
    """(peak RSS in bytes, exit code, answer bytes) of one fresh request."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(motivec.__file__)))
    answer = tmp_path / "answer.txt"
    proc = subprocess.run([sys.executable, "-S", "-c", HELPER, str(answer), *argv],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": src}, cwd=tmp_path)
    kilobytes, code = map(int, proc.stdout.split())
    return kilobytes * 1024, code, answer.stat().st_size


def distinct_cells(space) -> int:
    seen, cells = set(), []

    def visit(node):
        seen.add(id(node))
        cells.extend(getattr(node, "cells", ()))

    walk_dag(space, lambda node: id(node) in seen, visit)
    return len(cells)


def union_document(depth: int) -> str:
    nest = "union(point, " * depth + "point" + ")" * depth
    return f"space u {{ cell {{ base = {nest}; rank = 0; codim = 0 }} }}\n"


def chain_document(length: int) -> str:
    lines, base = [], "point"
    for i in range(1, length + 1):
        lines.append(f"space c{i} {{ cell {{ base = {base}; rank = 1; codim = 0 }} }}")
        base = f"c{i}"
    return "\n".join(lines) + "\n"


CASES = {  # argv, and the document that --file names, or the built-in space
    "Gr-8-16-dual": (["--space", "Gr:8,16", "--mode", "dual"], grassmannian(8, 16)),
    "Gr-8-16-universal-4000-groups": (
        ["--space", "Gr:8,16", "--theory", "universal:4000", "--mode", "groups"],
        grassmannian(8, 16)),
    "union-100000": (["--file", "doc.txt", "--space", "u"], union_document(100_000)),
    "chain-600": (["--file", "doc.txt", "--space", "c600"], chain_document(600)),
}


@pytest.fixture(scope="module")
def floor(tmp_path_factory) -> int:
    rss, code, _ = peak(["--space", "point"], tmp_path_factory.mktemp("floor"))
    assert code == 0
    return rss


@pytest.mark.parametrize("argv, source", CASES.values(), ids=list(CASES))
def test_peak_over_the_floor_is_bounded_by_input_and_answer(argv, source, floor, tmp_path):
    if isinstance(source, str):
        (tmp_path / "doc.txt").write_text(source)
        inputs = len(source)  # ASCII
    else:
        inputs = CELL_BYTES * distinct_cells(source)
    rss, code, answer = peak(argv, tmp_path)
    assert code == 0 and answer > 0
    assert rss - floor <= K * (inputs + answer) + C, (rss, floor, inputs, answer)


def test_dev_zero_is_refused_within_the_constant(floor, tmp_path):
    # its input counts as 0 bytes: a read of the first character refuses it
    rss, code, answer = peak(["--file", "/dev/zero", "--space", "a"], tmp_path)
    assert code == 1 and answer == 0
    assert rss - floor <= C, (rss, floor)
