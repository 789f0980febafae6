"""Write `golden_answers.json`: the sha256 of every benchmark workload answer.

Run from the root of a checkout::

    PYTHONPATH=src python tests/make_golden.py

It builds the request lists of the `families`, `universal` and `documents`
workloads (`bench/workloads.build`, seeds SEEDS), with the documents in a
temporary directory, and runs each request in-process through
`motivec.cli.main`.  A request's digest is the sha256 of its stdout, stderr
and exit code; the document directory is DIRECTORY in every key.  The file
also holds the digest of each request list, so that a change to the
workloads fails by name instead of comparing other requests.
`tests/test_golden.py` compares a tree's answers with this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_answers.json")
WORKLOADS = ("families", "universal", "documents")
SEEDS = range(4)
DIRECTORY = "<dir>"  # stands for the document directory in every argv


def requests(workload: str, seed: int, out_dir: str) -> list[tuple]:
    """The (argv, keyed argv) pairs of one round; the keyed argv names
    the document directory DIRECTORY."""
    if os.path.join(ROOT, "bench") not in sys.path:
        sys.path.insert(0, os.path.join(ROOT, "bench"))
    import workloads

    return [(req.argv, tuple(a.replace(out_dir, DIRECTORY) for a in req.argv))
            for req in workloads.build(workload, seed, out_dir)]


def digest(*parts) -> str:
    return hashlib.sha256(json.dumps(parts).encode()).hexdigest()


def answer(argv) -> str:
    """The digest of (stdout, stderr, exit code) of one in-process request."""
    from motivec.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return digest(out.getvalue(), err.getvalue(), code)


def round_digests(workload: str, seed: int, out_dir: str) -> dict:
    """{"requests": digest of the keyed argv list, "answers": {"i keyed argv": digest}},
    i the request's place in the round."""
    pairs = requests(workload, seed, out_dir)
    return {"requests": digest([keyed for _, keyed in pairs]),
            "answers": {f"{i} {' '.join(keyed)}": answer(argv)
                        for i, (argv, keyed) in enumerate(pairs)}}


def main() -> None:
    os.environ.pop("MOTIVEC_TRUNCATION", None)
    golden = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in WORKLOADS:
            for seed in SEEDS:
                golden[f"{workload}/{seed}"] = round_digests(workload, seed, out_dir)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
