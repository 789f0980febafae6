"""A document is read as it is lexed.

`dsl.Tokens` lexes one token each time the parser consumes one, and a
file is read `dsl._READ_SIZE` characters at a time, so a document is
refused at its first error in text order, and ``--file /dev/zero`` is
refused at its first character.  Reads as short as one character must
give the spaces and errors that the whole text gives.
"""

import io
import os
import random
import resource
import subprocess
import sys
import time

import pytest

from motivec import dsl
from motivec.dsl import ParseError, Tokens, parse_document

from test_document_fuzz import BASES, deep_and_shared_cases, mutated_documents
from test_dsl import Q1_TEXT, _random_document, nested_unions, tower_document
from test_tokens_reference import drain

ERROR_DOCUMENTS = (  # documents of tests/test_dsl.py that are refused
    "space s { cell { base = point; rank = -1; codim = 0 } }",
    "space s {\n  cell { base = point; rank = 1; codim = 0 }\n  cell { base = point; rank = 1; codim = 0 }\n}",
    "space s {\n cell { base = point; rank = 2; codim = 0 }\n cell { base = point; rank = 0; codim = 1 }\n}",
    "space s { cell { base = ghost; rank = 0; codim = 0 } }",
    "space a { cell { base = point; rank = 0; codim = 0 } }\n" * 2,
    "space cell { cell { base = point; rank = 0; codim = 0 } }",
    "space s {\n  cell { base = cell; rank = 0; codim = 0 }\n}\n",
    "union(point, rank)",
    nested_unions(40)[:-1],
    "space a { # no final newline",
    "space a { # a final newline\n",
    "point # tail",
    "space s { cell { base = P(" + "9" * 5000 + "); rank = 0; codim = 0 } }",
)


def documents() -> list[str]:
    rng = random.Random(7)
    texts = [Q1_TEXT, tower_document(6), nested_unions(40), *ERROR_DOCUMENTS]
    texts += [text for text, _ in BASES]
    texts += [_random_document(rng) for _ in range(20)]
    texts += [text for text, _ in mutated_documents(3, 120)]
    return texts


def outcome(source) -> tuple:
    """The declared names, reprs and spaces of a parse, or its error text."""
    try:
        doc = parse_document(source)
    except ParseError as exc:
        return ("refused", str(exc))
    return ("parsed", [(name, repr(space), space) for name, space in doc.items()])


@pytest.mark.parametrize("size", (1, 2, 3, 7))
def test_short_reads_give_the_whole_text_parse(size, monkeypatch):
    whole = [outcome(text) for text in documents()]
    monkeypatch.setattr(dsl, "_READ_SIZE", size)
    assert [outcome(io.StringIO(text)) for text in documents()] == whole


@pytest.mark.parametrize("size", (1, 3))
def test_short_reads_lex_the_same_tokens(size, monkeypatch):
    def lexed(source):
        try:
            return drain(Tokens(source, "{}()=;,", "#"))
        except ParseError as exc:
            return str(exc)

    texts = documents() + ["a  # cut\n# comment\nb", "#", "# only", "12345 abcde\n"]
    whole = [lexed(text) for text in texts]
    monkeypatch.setattr(dsl, "_READ_SIZE", size)
    assert [lexed(io.StringIO(text)) for text in texts] == whole


def test_deep_and_shared_documents_read_in_short_pieces(monkeypatch):
    texts = sorted({text for text, *_ in deep_and_shared_cases(1)}, key=len)[:-1]
    whole = [outcome(text) for text in texts]
    monkeypatch.setattr(dsl, "_READ_SIZE", 5)
    assert [outcome(io.StringIO(text)) for text in texts] == whole


def test_a_document_is_refused_at_its_first_error_in_text_order():
    with pytest.raises(ParseError, match=r"^line 1, col 11: expected 'cell', got 'cel'$"):
        parse_document("space a { cel }\x00")
    with pytest.raises(ParseError, match=r"^line 1, col 5: unexpected character '\\x00'$"):
        parse_document("spac\x00e a { cel }")
    # a declaration's dimensions are checked once its closing brace is read
    text = "space s { cell { base = point; rank = 1; codim = 0 } cell { base = P(1); rank = 1; codim = 1 } }"
    with pytest.raises(ParseError, match=r"^line 1, col 7: cells of s give dimensions \[1, 3\]$"):
        parse_document(text + " space")
    with pytest.raises(ParseError, match=rf"^line 1, col {len(text) + 1}: unexpected character '\\x00'$"):
        parse_document(text + "\x00")


def test_a_long_name_cut_by_many_reads_is_read_whole(monkeypatch):
    monkeypatch.setattr(dsl, "_READ_SIZE", 4)
    name = "n" * 10_000
    text = f"space {name} {{ cell {{ base = point; rank = 0; codim = 0 }} }}"
    assert list(parse_document(io.StringIO(text))) == [name]
    with pytest.raises(ParseError, match=r"^line 1, col 27: number of 5000 digits is too long$"):
        parse_document(io.StringIO("space s { cell { base = P(" + "7" * 5000 + ")"))


def test_dev_zero_is_refused_at_its_first_character():
    # a fresh process under a 1 GiB address-space cap, so that a whole-file read fails fast
    cap = lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # noqa: E731
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "motivec.cli", "--file", "/dev/zero", "--space", "a"],
                          capture_output=True, text=True, timeout=10, preexec_fn=cap,
                          env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(dsl.__file__))})
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "motivec: line 1, col 1: unexpected character '\\x00'\n"
