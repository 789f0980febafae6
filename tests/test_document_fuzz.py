"""Seeded malformed documents through the command line, in-process.

Each case mutates one of a few valid documents (inserted, deleted,
duplicated or replaced characters, or a cut) and runs it through
`cli.main` under a `--space` name that its base declares.  Every case
must answer (exit 0, empty stderr) or be refused with exactly one
``motivec: `` line and exit 1, within a second; no case may end in an
``internal error``.
"""

import random
import time

from motivec.cli import main
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


def test_mutated_documents_answer_or_give_one_line(tmp_path, capsys):
    rng = random.Random(4)
    outcomes = set()
    for k, (text, name) in enumerate(mutated_documents(0, 320)):
        path = tmp_path / f"doc{k}.txt"
        path.write_text(text, encoding="utf-8")
        argv = ["--file", str(path), "--space", name, "--mode", rng.choice(MODES)]
        start = time.perf_counter()
        code = main(argv)
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        case = f"{argv} on {text!r}"
        assert code in (0, 1), case
        assert seconds < 1.0, case
        if code == 0:
            assert err == "", case
        else:
            assert err.startswith("motivec: ") and err.count("\n") == 1 and err.endswith("\n"), case
            assert not err.startswith("motivec: internal error"), case
        outcomes.add(code)
    assert outcomes == {0, 1}  # the corpus holds both answers and refusals
