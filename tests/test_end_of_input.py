"""A document that stops early names the end of the input, not ``None``."""

import pytest

from motivec.cli import main
from motivec.dsl import ParseError, parse_document


@pytest.mark.parametrize("text, message", [
    ("", "line 1, col 1: expected a space expression, got end of input"),
    ("space", "line 1, col 6: expected a space name, got end of input"),
    ("space a {", "line 1, col 10: expected 'cell', got end of input"),
    ("space a { cell { base = point; rank = ",
     "line 1, col 39: expected a nonnegative integer, got end of input"),
    ("space a {\n  cell { base = point; rank = 0; codim = 0 }\n",
     "line 3, col 1: expected 'cell', got end of input"),
    ("union(point,", "line 1, col 13: expected a space expression, got end of input"),
    ("P(3", "line 1, col 4: expected ), got end of input"),
])
def test_early_end_is_named(text, message):
    with pytest.raises(ParseError) as info:
        parse_document(text)
    assert str(info.value) == message


def test_other_tokens_are_still_quoted():
    with pytest.raises(ParseError, match=r"^line 1, col 7: expected a space name, got '\{'$"):
        parse_document("space { }")


def test_empty_file_through_the_cli(capsys):
    assert main(["--file", "/dev/null", "--space", "a"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "motivec: line 1, col 1: expected a space expression, got end of input\n"
    )
