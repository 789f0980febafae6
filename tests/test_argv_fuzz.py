"""Seeded argv through the command line, in-process.

Each case draws some of the options, each with a valid, malformed or
extreme value, writes a few as ``--name=value``, sometimes adds a stray
argument, and sets or clears ``MOTIVEC_TRUNCATION``.  Every case must
answer (exit 0, empty stderr) or be refused with exactly one
``motivec: `` line and exit 1, within a second; no case may end in an
``internal error``.  ``--mode check`` runs the same suites whatever the
other options are, and `test_cli` runs it, so the fuzz leaves it out.
"""

import random
import time

from motivec.cli import ENV_TRUNCATION, main

HUGE = "9" * 5000  # more digits than int() converts
VALUES = {
    "--space": ("point", "P:3", "quadric:5", "Gr:2,4", "Gr:4,8", "Gr:600,601", "P:19999",
                "P:99999", "Gr:600,601,602", "Gr:5,3", "P:-1", "P:", "P:x", "P:\u0663",
                f"P:{HUGE}", f"Gr:2,{HUGE}", "quadric:20000", "nope", ""),
    "--theory": ("chow", "k0", "universal:3", "universal:14", "universal", "universal:0",
                 "universal:-2", "universal:4001", f"universal:{HUGE}", "universal:x",
                 "universalx", "K0", ""),
    "--mode": ("motive", "groups", "poincare", "dual", "nope", "", "GROUPS"),
    "--format": ("text", "json", "xml", "", "JSON"),
    "--truncation": ("3", "14", "007", "0", "-1", "4001", HUGE, "x", "\u0663", ""),
}
ENV = (None, "3", "14", "0", "-5", "4001", HUGE, "x", "")
STRAYS = ("extra", "--bogus", "-x", "--", "--space", "-h=1")


def random_case(rng: random.Random):
    """An argv and a MOTIVEC_TRUNCATION value (None for unset)."""
    argv = []
    for flag in rng.sample(sorted(VALUES), rng.randint(0, len(VALUES))):
        value = rng.choice(VALUES[flag])
        argv += [f"{flag}={value}"] if rng.random() < 0.2 else [flag, value]
    if rng.random() < 0.1:
        argv.insert(rng.randint(0, len(argv)), rng.choice(STRAYS))
    return argv, rng.choice(ENV)


def test_random_argv_answers_or_gives_one_line(capsys, monkeypatch):
    rng = random.Random(18)
    outcomes = set()
    for _ in range(400):
        argv, env = random_case(rng)
        if env is None:
            monkeypatch.delenv(ENV_TRUNCATION, raising=False)
        else:
            monkeypatch.setenv(ENV_TRUNCATION, env)
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        case = f"{argv} with {ENV_TRUNCATION}={env!r}"[:400]
        assert code in (0, 1), case
        assert seconds < 1.0, case
        if code == 0:
            assert err == "", case
        else:
            assert err.startswith("motivec: ") and err.count("\n") == 1 and err.endswith("\n"), case
            assert not err.startswith("motivec: internal error"), case
        outcomes.add(code)
    assert outcomes == {0, 1}  # the corpus holds both answers and refusals
