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
:func:`motivec.gring.parse_element`.  Blanks are exactly space, tab,
carriage return and newline; anything else that is not a name, a natural
number of at most the digits ``int()`` converts, or a punctuation mark of
the syntax is refused.  An error in either syntax is a :class:`ParseError`,
with a 1-based line and column.
"""

from __future__ import annotations

import re

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


class ParseError(ValueError):
    """A syntax or validation error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class Tokens:
    """A cursor over the tokens of `text`.

    `tokens` holds (kind, value, line, col) tuples, the last of kind
    ``eof``.  A kind is ``nat`` (an int value), ``name`` (a str value) or
    one of the `punct` characters (itself).  `comment` starts a comment
    that runs to the end of its line; an end of input after it is placed
    at the comment.  `pos` indexes the next token.
    """

    def __init__(self, text: str, punct: str, comment: str | None = None):
        tokens = []
        line, start, i = 1, 0, 0  # `start` indexes the first character of the line
        while i < len(text):
            ch = text[i]
            if ch in " \t\r":
                i += 1
            elif ch == "\n":
                i += 1
                line, start = line + 1, i
            elif ch == comment:
                newline = text.find("\n", i)
                if newline < 0:
                    break
                i = newline
            elif ch in punct:
                tokens.append((ch, ch, line, i - start + 1))
                i += 1
            else:
                m = _WORD.match(text, i)
                if m is None:
                    raise ParseError(f"unexpected character {ch!r}", line, i - start + 1)
                try:  # int() refuses more digits than the interpreter's limit
                    kind, value = ("nat", int(m.group())) if m.lastindex else ("name", m.group())
                except ValueError:
                    raise ParseError(f"number of {m.end() - i} digits is too long",
                                     line, i - start + 1) from None
                tokens.append((kind, value, line, i - start + 1))
                i = m.end()
        tokens.append(("eof", None, line, i - start + 1))
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> str:
        """The kind of the next token."""
        return self.tokens[self.pos][0]

    def advance(self):
        """Consume the next token and return its value."""
        self.pos += 1
        return self.tokens[self.pos - 1][1]

    def describe(self) -> str:
        """The next token as an error message names it."""
        kind, value = self.tokens[self.pos][:2]
        return "end of input" if kind == "eof" else repr(value)

    def fail(self, message: str, index: int | None = None):
        """Raise a ParseError at token `index`, by default the next one."""
        raise ParseError(message, *self.tokens[self.pos if index is None else index][2:])

    def expect(self, kind: str, what: str | None = None):
        """Consume a token of `kind` and return its value."""
        if self.peek() != kind:
            self.fail(f"expected {what or kind}, got {self.describe()}")
        return self.advance()


class _Parser(Tokens):
    def __init__(self, text: str):
        super().__init__(text, "{}()=;,", "#")
        self.env: dict[str, SpaceExpr] = {}

    def expect_keyword(self, word: str):
        if self.tokens[self.pos][:2] != ("name", word):
            self.fail(f"expected {word!r}, got {self.describe()}")
        self.pos += 1

    def checked(self, index: int, build, *args):
        """`build(*args)`, its ValueError raised as a ParseError at token `index`."""
        try:
            return build(*args)
        except ValueError as exc:  # out of range, past the cell budget, or not equidimensional
            raise ParseError(str(exc), *self.tokens[index][2:]) from exc

    # -- grammar ----------------------------------------------------------

    def parse_document(self) -> dict[str, SpaceExpr]:
        if self.tokens[0][:2] == ("name", "space"):
            while self.peek() != "eof":
                self.parse_declaration()
            return dict(self.env)
        # a single bare expression is accepted as a document
        expr = self.parse_expr()
        self.expect("eof", "end of input")
        self.checked(0, expr.dim)
        return {"_": expr}

    def parse_declaration(self):
        self.expect_keyword("space")
        at = self.pos
        name = self.expect("name", "a space name")
        if name in _RESERVED:
            self.fail(f"{name!r} is a reserved word", at)
        if name in self.env:
            self.fail(f"space {name!r} is already declared", at)
        self.expect("{")
        first_cell = self.pos
        cells = []
        while self.peek() != "}":
            cells.append(self.parse_cell())
        self.advance()
        space = self.checked(first_cell, Cellular, cells, name)
        self.checked(at, space.dim)
        self.env[name] = space

    def parse_cell(self) -> Cell:
        at = self.pos
        self.expect_keyword("cell")
        self.expect("{")
        fields = []
        for key in ("base", "rank", "codim"):
            self.expect_keyword(key)
            self.expect("=")
            fields.append(self.parse_expr() if key == "base" else self.expect("nat", "a nonnegative integer"))
            if key != "codim" or self.peek() == ";":  # the last ";" is optional
                self.expect(";")
        self.expect("}")
        return self.checked(at, Cell, *fields)

    def parse_expr(self) -> SpaceExpr:
        lefts = []  # one slot per open union(: its left operand once read, else None
        while True:
            at = self.pos
            if self.peek() != "name":
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


def parse_document(text: str) -> dict[str, SpaceExpr]:
    """Parse a document of declarations; returns name -> space in file order."""
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
    text: dict[int, str] = {}  # node id -> its expression or declared name
    taken: set[str] = set()  # one declared name per declaration
    lines: list[str] = []

    def expr_str(s: SpaceExpr) -> str | None:
        # built-ins print as themselves and are not walked into
        form = getattr(s, "expr_form", None)
        return form if form is not None else text.get(id(s))

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
            text[id(s)] = f"union({expr_str(s.left)}, {expr_str(s.right)})"
        elif isinstance(s, Cellular):
            name = text[id(s)] = fresh_name(s.name)
            lines.append(f"space {name} {{")
            lines.extend(
                f"  cell {{ base = {expr_str(c.base)}; rank = {c.rank}; codim = {c.codim} }}"
                for c in s.cells
            )
            lines.append("}")
        else:
            raise TypeError(f"cannot print {type(s).__name__}")

    walk_dag(space, lambda s: expr_str(s) is not None, visit)
    if not isinstance(space, Cellular) or space.expr_form is not None:
        if lines:
            raise ValueError(
                "top-level expression mentions user-defined spaces; print those instead"
            )
        return expr_str(space)
    return "\n".join(lines) + "\n"
