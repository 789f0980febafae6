"""The one tokenizer against the two lexers it replaced.

`document_reference` is the document lexer `dsl._tokenize` as it was, with
its token objects written as (kind, value, line, col) tuples.
`element_reference` is `gring._tokenize_element` as it was, with the
offset of each token and of the refused character recorded besides.  On
seeded mutated documents, and on rendered and mutated element texts,
`dsl.Tokens` must give the same kinds, values and positions, and refuse
the same texts at the same position.  Element text lost the blanks of
``\\s`` other than space, tab, carriage return and newline: it is fuzzed
without them here, and a form feed is pinned as refused.
"""

import random
import re

import pytest

from motivec.dsl import ParseError, Tokens, parse_document
from motivec.gring import parse_element, render_element, universal_ring

from test_document_fuzz import mutated_documents
from test_gring import random_element

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NAT_RE = re.compile(r"\d+")
_PUNCT = "{}()=;,"


def document_reference(text: str) -> list[tuple]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < len(text) and text[i] != "\n":
                i += 1
            continue
        if ch in _PUNCT:
            tokens.append((ch, ch, line, col))
            i += 1
            col += 1
            continue
        m = _NAT_RE.match(text, i)
        if m:
            tokens.append(("nat", int(m.group()), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(("name", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(("eof", None, line, col))
    return tokens


_TOKEN = r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|(\^|\*|/|\+|-|\(|\)))"


class ElementLexError(ValueError):
    def __init__(self, offset):
        super().__init__(f"bad character in element syntax at offset {offset}")
        self.offset = offset


def element_reference(text: str) -> list[tuple]:
    """(kind, value, offset) per token; a refusal carries the offset of its character."""
    match = re.compile(_TOKEN).match
    pos, out = 0, []
    while pos < len(text):
        m = match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ElementLexError(pos + len(text[pos:]) - len(text[pos:].lstrip()))
            break
        pos = m.end()
        if m.group(1):
            out.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2):
            out.append(("name", m.group(2), m.start(2)))
        else:
            out.append((m.group(3), None, m.start(3)))
    return out


def position(text: str, offset: int) -> tuple[int, int]:
    """The 1-based (line, col) of `offset` in `text`."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def drain(toks: Tokens) -> list[tuple]:
    """The (kind, value, line, col) of every token of a cursor, `eof` last."""
    tokens = [(toks.kind, toks.value, *toks.at)]
    while toks.kind != "eof":
        toks.advance()
        tokens.append((toks.kind, toks.value, *toks.at))
    return tokens


def outcome(lex, text):
    try:
        return lex(text)
    except ParseError as exc:
        return ("refused", exc.line, exc.col)


@pytest.mark.parametrize("seed", range(3))
def test_documents_lex_as_before(seed):
    for text, _ in mutated_documents(seed, 400):
        new = outcome(lambda t: drain(Tokens(t, "{}()=;,", "#")), text)
        assert new == outcome(document_reference, text), repr(text)


ELEMENT_ALPHABET = " \t\r\n+-*/^()_m123456789x0y#.é٣"


def element_texts(seed: int, count: int) -> list[str]:
    """Rendered random elements of universal(3), each with up to two edits."""
    rng = random.Random(seed)
    ring = universal_ring(3)
    texts = []
    for _ in range(count):
        text = render_element(random_element(rng, ring))
        for _ in range(rng.randint(0, 2)):
            i = rng.randrange(len(text) + 1)
            cut = rng.randint(0, 2)
            text = text[:i] + rng.choice(ELEMENT_ALPHABET) * rng.randint(0, 1) + text[i + cut:]
        texts.append(text)
    return texts


@pytest.mark.parametrize("seed", range(3))
def test_element_texts_lex_as_before(seed):
    for text in element_texts(seed, 400):
        try:
            old = [
                ("nat" if kind == "int" else kind, kind if value is None else value,
                 *position(text, offset))
                for kind, value, offset in element_reference(text)
            ]
        except ElementLexError as exc:
            old = ("refused", *position(text, exc.offset))
        new = outcome(lambda t: drain(Tokens(t, "^*/+-()"))[:-1], text)
        assert new == old, repr(text)


def test_end_after_a_trailing_comment_is_placed_at_the_comment():
    assert drain(Tokens("point # tail", "{}()=;,", "#"))[-1] == ("eof", None, 1, 7)
    with pytest.raises(ParseError, match=r"^line 1, col 11: expected 'cell', got end of input$"):
        parse_document("space a { # no final newline")
    with pytest.raises(ParseError, match=r"^line 2, col 1: expected 'cell', got end of input$"):
        parse_document("space a { # a final newline\n")


def test_a_form_feed_in_element_text_is_refused_at_its_position():
    # `\s` let the replaced lexer skip it; blanks are now " \t\r\n" in both syntaxes
    ring = universal_ring(3)
    with pytest.raises(ParseError, match=r"^line 2, col 5: unexpected character '\\x0c'$"):
        parse_element(ring, "m_1\n+ 2 \f* m_2")
    assert parse_element(ring, "m_1\r\n+\t2 * m_2") == parse_element(ring, "m_1 + 2*m_2")

