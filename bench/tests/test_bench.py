"""Tests of the benchmark's own code: oracles, request generation, answer
checking and the tracer.

    python3 -m pytest bench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from math import comb
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import answers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_gaussian_binomial_gr_2_4():
    assert answers.gaussian_binomial(4, 2) == (1, 1, 2, 1, 1)
    assert answers.expand(answers.grassmannian_twists(2, 4)) == [0, 1, 2, 2, 3, 4]


def test_gaussian_binomial_counts_subsets():
    for n in range(0, 10):
        for k in range(0, n + 1):
            assert sum(answers.gaussian_binomial(n, k)) == comb(n, k)


def test_quadric_and_projective_twists():
    assert answers.expand(answers.quadric_twists(2)) == [0, 1, 2, 2, 3, 4]
    assert answers.quadric_twists(0) == Counter({0: 2})
    assert answers.expand(answers.projective_twists(3)) == [0, 1, 2, 3]


def test_partition_counts():
    assert answers.partition_counts(7) == (1, 1, 2, 3, 5, 7, 11, 15)


def test_group_ranks_for_each_theory():
    twists = answers.quadric_twists(2)
    assert answers.group_ranks(twists, "chow") == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    assert answers.group_ranks(twists, "k0") == 6
    # degree k sums p(t - k) over twists t >= k, on the window [4 - 4, 4]
    assert answers.group_ranks(twists, "universal:4") == {0: 14, 1: 8, 2: 5, 3: 2, 4: 1}


def test_expected_outputs_text_and_json():
    twists = answers.grassmannian_twists(2, 4)
    dual = answers.reflect(twists, 4)
    assert answers.expected_output("Gr:2,4", "chow", "poincare", "text", 4, twists, dual) == "1 1 2 1 1\n"
    assert answers.expected_output("Gr:2,4", "k0", "groups", "text", 4, twists, dual) == "rank 6\n"
    doc = answers.expected_output("Gr:2,4", "chow", "dual", "json", 4, twists, dual)
    assert doc == {"space": "Gr:2,4", "theory": "chow", "dim": 4, "twists": [0, 1, 2, 2, 3, 4],
                   "groups": {"0": 1, "1": 1, "2": 2, "3": 1, "4": 1}, "duality_ok": True}


def _listing(requests, out_dir):
    return [(tuple(a.replace(str(out_dir), "OUT") for a in r.argv), r.expect, r.fault)
            for r in requests]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_requests_and_files(name, tmp_path):
    first = workloads.build(name, 7, str(tmp_path / "a"))
    second = workloads.build(name, 7, str(tmp_path / "b"))
    assert _listing(first, tmp_path / "a") == _listing(second, tmp_path / "b")
    files_a = sorted((tmp_path / "a").rglob("*.txt"))
    files_b = sorted((tmp_path / "b").rglob("*.txt"))
    assert [p.name for p in files_a] == [p.name for p in files_b]
    assert all(a.read_bytes() == b.read_bytes() for a, b in zip(files_a, files_b))
    other = workloads.build(name, 8, str(tmp_path / "c"))
    assert _listing(first, tmp_path / "a") != _listing(other, tmp_path / "c")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_round_size_does_not_depend_on_seed(name, tmp_path):
    sizes = {len(workloads.build(name, seed, str(tmp_path))) for seed in range(5)}
    faults = {sum(r.fault is not None for r in workloads.build(name, seed, str(tmp_path)))
              for seed in range(5)}
    assert sizes == {50}
    assert faults == ({1} if name == "documents" else {0})


def test_chain_document_answer_by_construction():
    text = workloads.chain_document()
    assert text.count("space c") == workloads.CHAIN_LENGTH
    assert f"space c{workloads.CHAIN_LENGTH} {{ cell {{ base = c{workloads.CHAIN_LENGTH - 1};" in text


def _outcome(code, stdout, stderr=""):
    return run.Outcome(code, stdout, stderr, 0.1, 10.0)


def test_judge_separates_failed_from_wrong():
    request = workloads.Request(("--space", "point"), "0\n")
    assert run.judge(request, _outcome(0, "0\n")) == "ok"
    assert run.judge(request, _outcome(0, "1\n")) == "wrong"
    assert run.judge(request, _outcome(1, "", "Traceback\nRecursionError")) == "failed"
    check = workloads.Request(("--mode", "check"), None)
    assert run.judge(check, _outcome(0, "[PASS] a: x\n[PASS] b: y\n")) == "ok"
    assert run.judge(check, _outcome(2, "[PASS] a: x\n[FAIL] b: y\n")) == "wrong"
    as_json = workloads.Request(("--format", "json"), {"dim": 0})
    assert run.judge(as_json, _outcome(0, '{\n  "dim": 0\n}\n')) == "ok"
    assert run.judge(as_json, _outcome(0, "not json")) == "wrong"


def test_failed_request_is_counted_and_the_round_goes_on(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    client = run.Client(time.monotonic())
    try:
        requests = [
            workloads.Request(("--space", "no-such-space"), "0\n"),
            run.SETUP_REQUEST,
        ]
        result = run.serve(client, requests)
    finally:
        client.close()
    assert len(result.latencies) == 2
    assert [r for r, _ in result.failed] == [requests[0]]
    assert "no-such-space" in result.failed[0][1]
    assert result.wrong == []


@pytest.mark.parametrize("reference_first", (False, True))
def test_paired_round_times_the_reference_and_checks_it(tmp_path, monkeypatch, reference_first):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    poincare = workloads.Request(("--space", "Gr:2,4", "--mode", "poincare"), "1 1 2 1 1\n")
    misjudged = workloads.Request(("--space", "point"), "1\n")
    wrong_reference = []
    client = run.Client(time.monotonic())
    try:
        result = run.serve_paired(client, [poincare, misjudged], reference_first, wrong_reference)
    finally:
        client.close()
    assert len(result.latencies) == len(result.reference) == 2
    assert all(t > 0 for t in result.reference)
    assert [r for r, _ in result.wrong] == [misjudged]
    assert [r for r, _ in wrong_reference] == [misjudged]


def _trace(tmp_path, *argv):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(BENCH / "tracer.py"), str(out), *argv],
                          capture_output=True, text=True, cwd=ROOT, env=env, check=True)
    return proc.stdout, json.loads(out.read_text())


def test_tracer_counts_repeat_and_match_the_space(tmp_path):
    stdout, first = _trace(tmp_path, "--space", "Gr:2,4", "--mode", "groups")
    assert stdout == "0: 1\n1: 1\n2: 2\n3: 1\n4: 1\n"
    _, second = _trace(tmp_path, "--space", "Gr:2,4", "--mode", "groups")
    assert first["calls"] == second["calls"]
    assert first["counts"] == second["counts"]
    assert first["calls"]["motives.realize"] == 5  # degrees 0..4
    assert first["calls"]["gring.component_rank"] == 5 * 6  # every twist in every degree
    assert first["counts"]["motives.twists"] == 6
    assert first["counts"]["motives.twists_distinct"] == 5
    # Gr(2,4) over Gr(1,3) and Gr(1,2), all grounded in the one point
    assert first["counts"]["spaces.nodes_distinct"] == 4
    names = {span[2] for span in first["spans"]}
    assert {"cli.run", "motives.fold", "motives.realize"} <= names


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, _source, _key, unit in run.PER_LAYER
    ]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "families", "--seed", "1",
                           "--seconds", "1"], capture_output=True, text=True, cwd=tmp_path,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
