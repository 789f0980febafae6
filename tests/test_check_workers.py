"""Check mode's two processes: the rows of `_run_forked` are those of
`run_all` run in one process, and a worker that ends without reporting
leaves FAIL rows, never a hang or a second answer."""

import os
import subprocess
import sys

import pytest

import motivec.selfcheck as selfcheck
from motivec.selfcheck import SUITES, _WORKER_GROUP, _run_forked, run_all
from test_cli import SRC, invoke

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")


def test_the_groups_split_the_suites():
    names = {name for name, _ in SUITES}
    assert _WORKER_GROUP < names and len(names - _WORKER_GROUP) == 4


@pytest.mark.parametrize("seed", range(4))
def test_forked_rows_are_the_rows_of_one_process(seed):
    assert _run_forked(seed) == run_all(seed)


@pytest.mark.parametrize("name, patched", [
    ("cellular-model", "duality_holds"),  # in the worker's group
    ("theory", "projection_formula_holds"),  # in the parent's group
])
def test_a_failing_suite_fails_alike_in_either_group(name, patched, monkeypatch):
    monkeypatch.setattr(selfcheck, patched, lambda *args: False)
    rows = _run_forked(0)
    assert rows == run_all(0)
    assert [row[0] for row in rows if not row[1]] == [name]


def test_without_fork_check_mode_runs_in_one_process(capsys, monkeypatch):
    monkeypatch.delattr(os, "fork")
    monkeypatch.setattr(selfcheck, "_run_forked", None)  # not called
    code, out, err = invoke(["--mode", "check"], capsys)
    assert (code, err) == (0, "")
    assert out == "".join(f"[PASS] {name}: {detail}\n" for name, _, detail in run_all())


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
def test_a_worker_that_ends_leaves_one_fail_row_per_missing_suite(end, ended):
    proc = subprocess.run([sys.executable, "-c", ENDING.format(end=end)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert (proc.returncode, proc.stderr) == (2, "")
    failed = f"the check worker {ended} before it reported"
    assert proc.stdout.splitlines() == [
        f"[FAIL] {name}: {failed}" if name in _WORKER_GROUP else f"[PASS] {name}: {detail}"
        for name, _, detail in run_all()
    ]
