"""The same bytes as the frozen reference, on a seeded batch of small requests.

`bench/reference/motivec` is a frozen early copy of the package, the one
`bench/run.py` times against.  Every request of the batch runs through
`motivec.cli.main` twice, in one helper process per tree, and each helper
writes the exit code and a digest of stdout, stderr and exit code for each
request.  Where both trees answer with exit 0 the digests must be equal
(differential testing: McKeeman, "Differential Testing for Software",
Digital Technical Journal 10(1), 1998).  Refusals are counted, not
compared: budgets and refusal texts have changed on purpose since the copy
was frozen, and so have `--truncation`, `MOTIVEC_TRUNCATION` and check mode,
which the batch leaves out.
"""

import json
import os
import random
import re
import subprocess
import sys

import motivec
from test_dsl import _random_document

SRC = os.path.dirname(os.path.dirname(os.path.abspath(motivec.__file__)))
REFERENCE = os.path.join(os.path.dirname(SRC), "bench", "reference")

SELECTORS = ["point", *(f"P:{n}" for n in range(7)), *(f"quadric:{d}" for d in range(5)),
             *(f"Gr:{d},{n}" for n in range(7) for d in range(n + 1))]
MODES = ["motive", "groups", "poincare", "dual"]
FORMATS = ["text", "json"]
REQUESTS = 600
DOCUMENTS = 40
BOTH_ANSWER = 600  # requests of the seed-0 batch that both trees answer with exit 0
ONE_SIDED = 0  # requests that exactly one tree answers with exit 0

HELPER = r"""
import hashlib, io, json, sys
from contextlib import redirect_stderr, redirect_stdout
from motivec.cli import main
for line in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(json.loads(line))
    digest = hashlib.sha256(json.dumps([out.getvalue(), err.getvalue(), code]).encode())
    print(code, digest.hexdigest())
"""


def batch(tmp_path) -> list[list[str]]:
    """REQUESTS distinct argvs drawn at seed 0: half built-in selectors, half
    declared names of generated documents, each under `chow`, `k0` or
    `universal:N` with 1 <= N <= 14, in every answer mode and format."""
    rng = random.Random(0)
    files = []
    for i in range(DOCUMENTS):
        text = _random_document(rng)
        path = tmp_path / f"doc{i}.txt"
        path.write_text(text)
        files.append((str(path), re.findall(r"^space (\w+)", text, re.M)))
    requests = {}
    while len(requests) < REQUESTS:
        if rng.random() < 0.5:
            source = ("--space", rng.choice(SELECTORS))
        else:
            path, names = rng.choice(files)
            source = ("--file", path, "--space", rng.choice(names))
        theory = rng.choice(["chow", "k0", f"universal:{rng.randint(1, 14)}"])
        requests[(*source, "--theory", theory, "--mode", rng.choice(MODES),
                  "--format", rng.choice(FORMATS))] = None
    return [list(argv) for argv in requests]


def outcomes(tree: str, requests) -> list[tuple[str, str]]:
    """(exit code, digest) of each request, answered in one process of `tree`,
    which writes no bytecode."""
    env = {k: v for k, v in os.environ.items() if k != "MOTIVEC_TRUNCATION"}
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", HELPER],
                          input="".join(json.dumps(argv) + "\n" for argv in requests),
                          capture_output=True, text=True, timeout=120, check=True,
                          env={**env, "PYTHONPATH": tree})
    return [tuple(line.split()) for line in proc.stdout.splitlines()]


def test_answers_equal_the_reference_bytes(tmp_path):
    requests = batch(tmp_path)
    pairs = list(zip(requests, outcomes(SRC, requests), outcomes(REFERENCE, requests)))
    assert len(pairs) == len(requests)
    both = [(argv, ours, theirs) for argv, ours, theirs in pairs if ours[0] == theirs[0] == "0"]
    one_sided = [argv for argv, ours, theirs in pairs if (ours[0] == "0") != (theirs[0] == "0")]
    assert [argv for argv, ours, theirs in both if ours != theirs] == []
    assert (len(both), len(one_sided)) == (BOTH_ANSWER, ONE_SIDED)
