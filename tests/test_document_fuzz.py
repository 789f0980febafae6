"""Seeded malformed documents through the command line, in-process.

Each case mutates one of a few valid documents (inserted, deleted,
duplicated or replaced characters, or a cut) and runs it through
`cli.main` under a `--space` name that its base declares.  Every case
must answer (exit 0, empty stderr) or be refused with exactly one
``motivec: `` line and exit 1, within a second; no case may end in an
``internal error``.

Deep, shared and long documents are run the same way, in every mode:
``union(...)`` nested to the parser's limit and one level past it,
``union(s, s)`` towers whose motives have up to 3 * 2**100 twists (their
groups and Poincaré coefficients are counted, their twists refused past
``MAX_TWISTS``), a chain of 600 declarations, and one cell of rank 10**8,
whose Poincaré coefficients are refused past ``MAX_TWISTS``.
"""

import random
import re
import time

from motivec.cli import main
from motivec.dsl import MAX_UNION_NESTING
from motivec.motives import MAX_TWISTS
from test_dsl import tower_document

BASES = (  # each with the names it declares
    ("""# a quadric, cell by cell
space q2 {
  cell { base = P(1); rank = 1; codim = 0 }
  cell { base = P(1); rank = 0; codim = 1 }
}
space pair { cell { base = union(q2, quadric(1)); rank = 2; codim = 0 } }
""", ("q2", "pair")),
    (tower_document(4), ("s2", "s4")),
    ("union(P(1), quadric(1))  # a bare expression\n", ("_",)),
    ("""space g {cell{base=Gr(2,4);rank=0;codim=0}
  cell { base = point; rank = 3; codim = 1; }  # semicolon before the brace
}
space top { cell { base = g; rank = 0; codim = 0 } }  # no final newline""", ("g", "top")),
)
ALPHABET = " \t\r\n\f#{}()=;,_-0123456789aPGrudspacecellbaserankcodimunion٣é"
MODES = ("motive", "groups", "poincare", "dual")


def mutate(rng: random.Random, text: str) -> str:
    """`text` with one or two random edits."""
    for _ in range(rng.randint(1, 2)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 4))
        edit = rng.choice("iiddrrpc")  # insert, delete, repeat, replace, cut
        if edit == "i":
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif edit == "d":
            text = text[:i] + text[j:]
        elif edit == "r":
            text = text[:j] + text[i:j] + text[j:]
        elif edit == "p":
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        else:
            text = text[:i]
    return text


def mutated_documents(seed: int, count: int) -> list[tuple[str, str]]:
    """`count` mutated documents, each with a name its base declares."""
    rng = random.Random(seed)
    cases = []
    for k in range(count):
        text, names = BASES[k % len(BASES)]
        cases.append((mutate(rng, text), rng.choice(names)))
    return cases


def answer_or_refuse(argv, case, capsys) -> tuple[int, str, str]:
    """Run `argv` through `cli.main`, requiring an answer or one refusal line
    within a second; returns the exit code, stdout and stderr."""
    start = time.perf_counter()
    code = main(argv)
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code in (0, 1), case
    assert seconds < 1.0, case
    if code == 0:
        assert err == "", case
    else:
        assert err.startswith("motivec: ") and err.count("\n") == 1 and err.endswith("\n"), case
        assert not err.startswith("motivec: internal error"), case
    return code, out, err


def test_mutated_documents_answer_or_give_one_line(tmp_path, capsys):
    rng = random.Random(4)
    outcomes = set()
    for k, (text, name) in enumerate(mutated_documents(0, 320)):
        path = tmp_path / f"doc{k}.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["--file", str(path), "--space", name, "--mode", rng.choice(MODES)]
        code, _, _ = answer_or_refuse(argv, f"{argv} on {text!r}", capsys)
        outcomes.add(code)
    assert outcomes == {0, 1}  # the corpus holds both answers and refusals


def nested_union(rng: random.Random, depth: int) -> str:
    """A bare expression of `depth` nested union(...) levels over points."""
    text = "point"
    for _ in range(depth):
        leaf = rng.choice(("point", "P(0)"))
        text = f"union({text}, {leaf})" if rng.random() < 0.5 else f"union({leaf}, {text})"
    return text + "\n"


def chain_document(length: int) -> str:
    """`length` rank-1 cells, each over the declaration before it."""
    lines, base = [], "point"
    for i in range(1, length + 1):
        lines.append(f"space c{i} {{ cell {{ base = {base}; rank = 1; codim = 0 }} }}")
        base = f"c{i}"
    return "\n".join(lines) + "\n"


HIGH_CELL = "space high { cell { base = point; rank = 100000000; codim = 0 } }\n"


def deep_and_shared_cases(seed: int) -> list[tuple]:
    """(document, name, mode, refusal, floor) for deep, shared and long
    documents: `refusal` is a part of the one stderr line the case must give,
    or None if it must answer, and `floor` a number the largest integer of
    its answer must reach.  Towers that list their twists have at most 10
    levels or more than MAX_TWISTS twists."""
    rng = random.Random(seed)
    cases = []
    for mode in MODES:
        cases.append((nested_union(rng, MAX_UNION_NESTING), "_", mode, None, 0))
        cases.append((nested_union(rng, MAX_UNION_NESTING + 1), "_", mode,
                      f"nested more than {MAX_UNION_NESTING} levels deep", 0))
    levels = sorted(rng.sample(range(1, 11), 2) + rng.sample(range(23, 100), 3)) + [100]
    for level in levels:
        listed = 3 * 2**level <= MAX_TWISTS
        for mode in MODES:
            refusal = None if listed or mode in ("groups", "poincare") else (
                f"more than the {MAX_TWISTS} it may list")
            floor = 0 if mode == "motive" or refusal else 2**level
            cases.append((tower_document(level), f"s{level}", mode, refusal, floor))
    chain = chain_document(600)
    for name in ("c600", f"c{rng.randint(1, 599)}"):
        for mode in MODES:
            cases.append((chain, name, mode, None, 0))
    # one twist, but 10**8 + 1 Poincaré coefficients
    cases.append((HIGH_CELL, "high", "poincare",
                  f"has 100000001 coefficients, more than the {MAX_TWISTS} it may list", 0))
    return cases


def test_deep_shared_and_long_documents_answer_or_give_one_line(tmp_path, capsys):
    rng = random.Random(5)
    for k, (text, name, mode, refusal, floor) in enumerate(deep_and_shared_cases(0)):
        path = tmp_path / f"doc{k}.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["--file", str(path), "--space", name, "--mode", mode,
                "--theory", rng.choice(("chow", "k0", "universal:3")),
                "--format", rng.choice(("text", "json"))]
        case = f"{argv} on a document of {text.count(chr(10))} lines, {len(text)} characters"
        code, out, err = answer_or_refuse(argv, case, capsys)
        if refusal is None:
            assert code == 0 and max(map(int, re.findall(r"\d+", out))) >= floor, case
        else:
            assert code == 1 and out == "" and refusal in err, case
