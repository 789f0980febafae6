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

A second slice, under the key FRESH, runs FRESH_REQUESTS (each mode and
format on small built-ins, check mode, a document, and refused requests)
as fresh processes, each forked by the memory gate's `python -S` helper,
under every PYTHONHASHSEED of HASH_SEEDS and with COLUMNS=80, in a
directory that holds DOCUMENTS.  An in-process run shares warm caches and
skips the process entry; these runs do not.
`tests/test_golden.py` compares a tree's answers with this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden_answers.json")
WORKLOADS = ("families", "universal", "documents")
SEEDS = range(4)
DIRECTORY = "<dir>"  # stands for the document directory in every argv

FRESH = "fresh"
HASH_SEEDS = ("0", "1")
DOCUMENTS = {  # the files the fresh requests name, by their names there
    "doc.txt": b"# a shared union over a Grassmannian\n"
               b"space s { cell { base = Gr(2,4); rank = 1; codim = 0 } }\n"
               b"space u { cell { base = union(s, s); rank = 1; codim = 0 }\n"
               b"          cell { base = point; rank = 3; codim = 3 } }\n",
    "bad.txt": b"space a { cell { base = point; rank = ; codim = 0 } }\n",
    "bytes.txt": b"space a { cell { base = point; rank = 1 \xff } }\n",
}
FRESH_REQUESTS = (  # (argv, environment variables beyond PYTHONHASHSEED and COLUMNS)
    (("--space", "Gr:2,4"), {}),
    (("--space", "Gr:2,4", "--format", "json"), {}),
    (("--space", "quadric:3", "--mode", "groups", "--theory", "k0"), {}),
    (("--space", "quadric:3", "--mode", "groups", "--theory", "universal:3",
      "--format", "json"), {}),
    (("--space", "P:4", "--mode", "poincare"), {}),
    (("--space", "P:4", "--mode", "poincare", "--format", "json"), {}),
    (("--space", "Gr:2,5", "--mode", "dual"), {}),
    (("--space", "Gr:2,5", "--mode", "dual", "--theory", "k0", "--format", "json"), {}),
    (("--file", "doc.txt", "--space", "u", "--mode", "groups", "--theory", "universal"),
     {"MOTIVEC_TRUNCATION": "4"}),
    (("--mode", "check"), {}),
    # refused requests, then the help text, an answer argparse writes
    (("--space", "Gr:2"), {}),
    (("--space", "cone:2"), {}),
    (("--theory", "cobordism"), {}),
    (("--theory", "universal:4001"), {}),
    (("--file", "missing.txt", "--space", "a"), {}),
    (("--file", "bad.txt", "--space", "a"), {}),
    (("--file", "bytes.txt", "--space", "a"), {}),
    (("--theory", "universal"), {"MOTIVEC_TRUNCATION": "four"}),
    (("--mode", "bogus"), {}),
    (("--help",), {}),
)


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


def fresh_requests() -> str:
    """The digest of the fresh requests and of the documents they read."""
    return digest(FRESH_REQUESTS, {k: v.decode("latin-1") for k, v in DOCUMENTS.items()})


def fresh_digests(seed: str, cwd: str) -> dict:
    """{"PYTHONHASHSEED=seed i [VAR=value ...] argv": digest} of the fresh
    requests under one hash seed, run two at a time in `cwd` with DOCUMENTS
    written there."""
    from test_memory_gate import HELPER  # forks the request, as the memory gate does

    for name, data in DOCUMENTS.items():
        with open(os.path.join(cwd, name), "wb") as handle:
            handle.write(data)
    base = {k: v for k, v in os.environ.items() if k != "MOTIVEC_TRUNCATION"}
    base.update(PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED=seed, COLUMNS="80")

    def run(i: int) -> tuple:
        argv, env = FRESH_REQUESTS[i]
        answer = os.path.join(cwd, f"answer-{i}.txt")
        proc = subprocess.run([sys.executable, "-S", "-c", HELPER, answer, *argv],
                              capture_output=True, check=True, cwd=cwd, env={**base, **env})
        code = int(proc.stdout.split()[1])
        with open(answer, "rb") as handle:
            out = handle.read()
        key = " ".join([f"PYTHONHASHSEED={seed}", str(i), *(f"{k}={v}" for k, v in env.items()),
                        *argv])
        return key, digest(*(b.decode("utf-8", "surrogateescape") for b in (out, proc.stderr)),
                           code)

    with ThreadPoolExecutor(2) as pool:  # each thread waits on its own process
        return dict(pool.map(run, range(len(FRESH_REQUESTS))))


def main() -> None:
    os.environ.pop("MOTIVEC_TRUNCATION", None)
    golden = {}
    with tempfile.TemporaryDirectory() as out_dir:
        for workload in WORKLOADS:
            for seed in SEEDS:
                golden[f"{workload}/{seed}"] = round_digests(workload, seed, out_dir)
    with tempfile.TemporaryDirectory() as cwd:
        golden[FRESH] = {"requests": fresh_requests(),
                         "answers": {k: d for seed in HASH_SEEDS
                                     for k, d in fresh_digests(seed, cwd).items()}}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
