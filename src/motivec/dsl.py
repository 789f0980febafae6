"""Text format for describing cellular spaces, and the one tokenizer of the
package's text syntaxes.

A document is a sequence of declarations::

    # comment
    space NAME {
      cell { base = EXPR; rank = NAT; codim = NAT }
      ...
    }

where EXPR is ``point``, ``P(n)``, ``quadric(d)``, ``Gr(d,n)``,
``union(EXPR, EXPR)``, nested to any depth, or the NAME of an earlier
declaration.  Whitespace is free-form, ``#`` starts a line comment, and the
semicolon before a closing brace may be omitted.  A document consisting of a
single bare EXPR is also accepted by :func:`parse_space`.

:class:`Tokens` reads both this format and the element syntax of
:func:`motivec.gring.parse_element`, lexing a token when the parser asks
for it, from a str or from a file read as it is lexed, so a text is
refused at its first error.  Blanks are exactly space, tab, carriage
return and newline; anything else that is not a name, a natural number of
at most the digits ``int()`` converts, or a punctuation mark of the syntax
is refused.  An error in either syntax is a :class:`ParseError`, with a
1-based line and column.
"""

from __future__ import annotations

import re
from itertools import repeat

from .spaces import (
    BUILTINS,
    POINT,
    Cell,
    Cellular,
    DisjointUnion,
    Point,
    SpaceExpr,
    walk_dag,
)

_RESERVED = {"space", "cell", "base", "rank", "codim", "point", "union", *BUILTINS}

_WORD = re.compile(r"(\d+)|[A-Za-z_][A-Za-z_0-9]*")  # a natural number (group 1) or a name
_READ_SIZE = 1 << 16  # characters a file is read in


class ParseError(ValueError):
    """A syntax or validation error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Tokens:
    """A cursor that holds only the next token of `source`: its `kind`,
    `value` and `at`, the 1-based (line, col) where it starts.  A kind is
    ``nat`` (an int value), ``name`` (a str value), one of the `punct`
    characters (itself) or, from the end of input on, ``eof`` (None).
    `comment` starts a comment that runs to the end of its line; an end of
    input after it is placed at the comment."""

    def __init__(self, source, punct: str, comment: str | None = None):
        self._next = _lex(source, punct, comment).__next__
        self.kind, self.value, self.at = self._next()

    def advance(self):
        """Consume the next token and return its value."""
        value = self.value
        self.kind, self.value, self.at = self._next()
        return value

    def describe(self) -> str:
        """The next token as an error message names it."""
        return "end of input" if self.kind == "eof" else repr(self.value)

    def fail(self, message: str, at: tuple[int, int] | None = None):
        """Raise a ParseError at `at`, by default at the next token."""
        raise ParseError(message, *(at or self.at))

    def expect(self, kind: str, what: str | None = None):
        """Consume a token of `kind` and return its value."""
        if self.kind != kind:
            self.fail(f"expected {what or kind}, got {self.describe()}")
        return self.advance()


def _lex(source, punct: str, comment: str | None):
    """(kind, value, (line, col)) for each token of `source`, a str or a
    file open for reading text, then for ``eof`` forever.  A file is read
    _READ_SIZE characters at a time; a name or number that a read may have
    cut is finished from the next one, and a comment is not kept."""
    text, read = (source, None) if isinstance(source, str) else ("", source.read)
    line, start, i = 1, 0, 0  # `start` indexes the first character of the line
    while True:
        while i < len(text):
            ch = text[i]
            if ch in " \t\r":
                i += 1
            elif ch == "\n":
                i += 1
                line, start = line + 1, i
            elif ch == comment:
                newline = text.find("\n", i)
                if newline < 0:  # keep only its first character for the next read
                    text = text[:i + 1]
                    break
                i = newline
            elif ch in punct:
                yield ch, ch, (line, i - start + 1)
                i += 1
            else:
                m = _WORD.match(text, i)
                if m is None:
                    raise ParseError(f"unexpected character {ch!r}", line, i - start + 1)
                if read and m.end() == len(text):
                    break
                try:  # int() refuses more digits than the interpreter's limit
                    kind, value = ("nat", int(m.group())) if m.lastindex else ("name", m.group())
                except ValueError:
                    raise ParseError(f"number of {m.end() - i} digits is too long",
                                     line, i - start + 1) from None
                yield kind, value, (line, i - start + 1)
                i = m.end()
        if not read:
            yield from repeat(("eof", None, (line, i - start + 1)))
        chunk = read(max(_READ_SIZE, len(text) - i))  # a cut name doubles per read: linear time
        read = read if chunk else None
        text, start, i = text[i:] + chunk, start - i, 0


class _Parser(Tokens):
    def __init__(self, source):
        super().__init__(source, "{}()=;,", "#")
        self.env: dict[str, SpaceExpr] = {}

    def expect_keyword(self, word: str):
        if self.value != word:  # only a name's value can be a word
            self.fail(f"expected {word!r}, got {self.describe()}")
        self.advance()

    def checked(self, at: tuple[int, int], build, *args):
        """`build(*args)`, its ValueError raised as a ParseError at `at`."""
        try:
            return build(*args)
        except ValueError as exc:  # out of range, past the cell budget, or not equidimensional
            raise ParseError(str(exc), *at) from exc

    # -- grammar ----------------------------------------------------------

    def parse_document(self) -> dict[str, SpaceExpr]:
        if self.value == "space":
            while self.kind != "eof":
                self.parse_declaration()
            return dict(self.env)
        # a single bare expression is accepted as a document
        at = self.at
        expr = self.parse_expr()
        self.expect("eof", "end of input")
        self.checked(at, expr.dim)
        return {"_": expr}

    def parse_declaration(self):
        self.expect_keyword("space")
        at = self.at
        name = self.expect("name", "a space name")
        if name in _RESERVED:
            self.fail(f"{name!r} is a reserved word", at)
        if name in self.env:
            self.fail(f"space {name!r} is already declared", at)
        self.expect("{")
        first_cell = self.at
        cells = []
        while self.kind != "}":
            cells.append(self.parse_cell())
        self.advance()
        space = self.checked(first_cell, Cellular, cells, name)
        self.checked(at, space.dim)
        self.env[name] = space

    def parse_cell(self) -> Cell:
        at = self.at
        self.expect_keyword("cell")
        self.expect("{")
        fields = []
        for key in ("base", "rank", "codim"):
            self.expect_keyword(key)
            self.expect("=")
            fields.append(self.parse_expr() if key == "base" else self.expect("nat", "a nonnegative integer"))
            if key != "codim" or self.kind == ";":  # the last ";" is optional
                self.expect(";")
        self.expect("}")
        return self.checked(at, Cell, *fields)

    def parse_expr(self) -> SpaceExpr:
        lefts = []  # one slot per open union(: its left operand once read, else None
        while True:
            at = self.at
            if self.kind != "name":
                self.fail(f"expected a space expression, got {self.describe()}")
            word = self.advance()
            if word == "union":
                self.expect("(")
                lefts.append(None)
                continue
            if word == "point":
                expr = POINT
            elif word in BUILTINS:
                build, names = BUILTINS[word]
                self.expect("(")
                args = [self.expect("nat")]
                while len(args) < len(names):
                    self.expect(",")
                    args.append(self.expect("nat"))
                self.expect(")")
                expr = self.checked(at, build, *args)
            elif word in _RESERVED:
                self.fail(f"unexpected keyword {word!r} in expression", at)
            elif word not in self.env:
                self.fail(f"reference to undeclared space {word!r}", at)
            else:
                expr = self.env[word]
            while lefts and lefts[-1] is not None:  # `expr` is a right operand
                self.expect(")")
                expr = DisjointUnion(lefts.pop(), expr)
            if not lefts:
                return expr
            self.expect(",")
            lefts[-1] = expr


def parse_document(text) -> dict[str, SpaceExpr]:
    """Parse a document (a str or a text file); returns name -> space in file order."""
    return _Parser(text).parse_document()


def parse_space(text: str, name: str | None = None) -> SpaceExpr:
    """Parse a document and pick one space (default: the last declared)."""
    spaces = parse_document(text)
    if name is not None:
        if name not in spaces:
            raise KeyError(f"document declares no space named {name!r}")
        return spaces[name]
    return list(spaces.values())[-1]


# -- printing ---------------------------------------------------------------


def print_space(space: SpaceExpr) -> str:
    """Render a space back into the text format.

    Built-in spaces and unions of them come out as bare expressions;
    user-shaped cellular spaces come out as a document whose last
    declaration is the space itself.
    """
    text: dict[int, str | None] = {}  # node id -> "point", a declared name, or None for a union
    taken: set[str] = set()  # one declared name per declaration
    lines: list[str] = []

    def settled(s: SpaceExpr) -> bool:
        # built-ins print as themselves and are not walked into
        return getattr(s, "expr_form", None) is not None or id(s) in text

    def expr_str(s: SpaceExpr) -> str:
        """The text of a settled node; a union's is written here, once, from pieces."""
        pieces, stack = [], [s]
        while stack:
            s = stack.pop()
            if isinstance(s, DisjointUnion):
                stack += (")", s.right, ", ", s.left, "union(")
            else:
                pieces.append(s if isinstance(s, str) else text.get(id(s)) or s.expr_form)
        return "".join(pieces)

    def fresh_name(wanted: str | None) -> str:
        named = wanted and wanted.isascii() and wanted.isidentifier() and wanted not in _RESERVED
        base = wanted if named else f"s{len(taken)}"
        candidate, k = base, 1
        while candidate in taken:
            candidate = f"{base}_{k}"
            k += 1
        taken.add(candidate)
        return candidate

    def visit(s: SpaceExpr):
        if isinstance(s, Point):
            text[id(s)] = "point"
        elif isinstance(s, DisjointUnion):
            text[id(s)] = None
        else:  # a cellular space
            name = text[id(s)] = fresh_name(s.name)
            lines.append(f"space {name} {{")
            lines.extend(
                f"  cell {{ base = {expr_str(c.base)}; rank = {c.rank}; codim = {c.codim} }}"
                for c in s.cells
            )
            lines.append("}")

    walk_dag(space, settled, visit)
    if not isinstance(space, Cellular) or space.expr_form is not None:
        if lines:
            raise ValueError(
                "top-level expression mentions user-defined spaces; print those instead"
            )
        return expr_str(space)
    return "\n".join(lines) + "\n"
