"""Check mode's one runner: `run_all` gives the same rows with its forked
worker, without `os.fork` and when `os.fork` fails, and a worker that ends
without reporting leaves FAIL rows, never a hang or a second answer."""

import errno
import os
import subprocess
import sys

import pytest

import motivec.selfcheck as selfcheck
from motivec.selfcheck import SUITES, _WORKER_GROUP, run_all
from test_cli import SRC, invoke

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def one_process(seed, monkeypatch):
    """`run_all(seed)` with `os.fork` removed, so every suite runs here."""
    with monkeypatch.context() as patch:
        patch.delattr(os, "fork", raising=False)
        return run_all(seed)


def test_the_groups_split_the_suites():
    names = {name for name, _ in SUITES}
    assert _WORKER_GROUP < names and len(names - _WORKER_GROUP) == 4


@needs_fork
@pytest.mark.parametrize("seed", range(4))
def test_forked_rows_are_the_rows_of_one_process(seed, monkeypatch):
    assert run_all(seed) == one_process(seed, monkeypatch)


@needs_fork
@pytest.mark.parametrize("name, patched", [
    ("cellular-model", "duality_holds"),  # in the worker's group
    ("theory", "projection_formula_holds"),  # in the parent's group
])
def test_a_failing_suite_fails_alike_in_either_group(name, patched, monkeypatch):
    monkeypatch.setattr(selfcheck, patched, lambda *args: False)
    rows = run_all(0)
    assert rows == one_process(0, monkeypatch)
    assert [row[0] for row in rows if not row[1]] == [name]


def expected_check_answer():
    return "".join(f"[PASS] {name}: {detail}\n" for name, _, detail in run_all())


def test_without_fork_check_mode_runs_in_one_process(capsys, monkeypatch):
    expected = expected_check_answer()
    monkeypatch.delattr(os, "fork", raising=False)
    code, out, err = invoke(["--mode", "check"], capsys)
    assert (code, out, err) == (0, expected, "")


def test_a_failed_fork_runs_the_check_in_one_process_and_closes_the_pipe(capsys, monkeypatch):
    expected = expected_check_answer()
    opened, closed = [], []
    pipe, close = os.pipe, os.close

    def recorded_pipe():
        opened.extend(pipe())
        return tuple(opened[-2:])

    def recorded_close(fd):
        closed.append(fd)
        close(fd)

    def fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    monkeypatch.setattr(os, "close", recorded_close)
    monkeypatch.setattr(os, "fork", fork, raising=False)
    code, out, err = invoke(["--mode", "check"], capsys)
    assert (code, out, err) == (0, expected, "")
    assert len(opened) == 2 and set(opened) <= set(closed)


# A check request through the process entry, with a suite of the worker's
# group (cellular-model calls `duality_holds`) ending its process.
ENDING = """
import os, signal, sys
import motivec.cli, motivec.selfcheck
motivec.selfcheck.duality_holds = lambda space: {end}
sys.argv[1:] = ["--mode", "check"]
motivec.cli._process()
"""


@pytest.mark.parametrize("end, ended", [
    ("os._exit(3)", "exited with status 3"),
    ("os.kill(os.getpid(), signal.SIGKILL)", "was killed by signal 9"),
    ("sys.exit(5)", "exited with status 1"),  # a SystemExit writes no second answer
])
@needs_fork
def test_a_worker_that_ends_leaves_one_fail_row_per_missing_suite(end, ended):
    proc = subprocess.run([sys.executable, "-c", ENDING.format(end=end)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    failed = f"the check worker {ended} before it reported"
    assert proc.stdout.splitlines() == [
        f"[FAIL] {name}: {failed}" if name in _WORKER_GROUP else f"[PASS] {name}: {detail}"
        for name, _, detail in run_all()
    ]
