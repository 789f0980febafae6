"""Byte parity: every benchmark workload answer keeps its committed digest.

The 600 requests of the `families`, `universal` and `documents` workloads,
seeds 0-3, run in-process through `cli.main`; the sha256 of each one's
stdout, stderr and exit code, and of each request list, must equal
`golden_answers.json`.  So must those of the fresh-process slice, which
runs each of `make_golden.FRESH_REQUESTS`, refused ones included, as its
own process under each of two hash seeds.  That file is written by
`make_golden.py` from a tree, never by hand; a change that alters an
answer on purpose rewrites exactly the digests it changes.
"""

import json

import pytest

import make_golden

with open(make_golden.GOLDEN, encoding="utf-8") as _handle:
    GOLDEN = json.load(_handle)

ROUNDS = [f"{w}/{s}" for w in make_golden.WORKLOADS for s in make_golden.SEEDS]


def test_every_round_has_digests():
    assert sorted(GOLDEN) == sorted([*ROUNDS, make_golden.FRESH])


@pytest.mark.parametrize("name", ROUNDS)
def test_answers_keep_their_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("MOTIVEC_TRUNCATION", raising=False)
    workload, seed = name.split("/")
    got = make_golden.round_digests(workload, int(seed), str(tmp_path))
    want = GOLDEN[name]
    assert got["requests"] == want["requests"], "the request list changed"
    changed = [key for key, d in want["answers"].items() if got["answers"].get(key) != d]
    assert changed == []


@pytest.mark.parametrize("seed", make_golden.HASH_SEEDS)
def test_fresh_answers_keep_their_digests(seed, tmp_path):
    want = GOLDEN[make_golden.FRESH]
    assert make_golden.fresh_requests() == want["requests"], "the fresh requests changed"
    got = make_golden.fresh_digests(seed, str(tmp_path))
    changed = [key for key, d in got.items() if want["answers"].get(key) != d]
    assert changed == []
