"""Text format for describing cellular spaces.

A document is a sequence of declarations::

    # comment
    space NAME {
      cell { base = EXPR; rank = NAT; codim = NAT }
      ...
    }

where EXPR is ``point``, ``P(n)``, ``quadric(d)``, ``Gr(d,n)``,
``union(EXPR, EXPR)`` or the NAME of an earlier declaration.  Whitespace is
free-form, ``#`` starts a line comment, and the semicolon before a closing
brace may be omitted.  A document consisting of a single bare EXPR is also
accepted by :func:`parse_space`.
"""

from __future__ import annotations

import re

from .spaces import (
    BUILTINS,
    POINT,
    Cell,
    Cellular,
    DisjointUnion,
    EquidimensionalityViolation,
    Point,
    SpaceExpr,
    walk_dag,
)

MAX_UNION_NESTING = 256  # only the parser recurses over a space, once per union(...) level
_RESERVED = {"space", "cell", "base", "rank", "codim", "point", "union", *BUILTINS}

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_NAT_RE = re.compile(r"\d+")
_PUNCT = "{}()=;,"


class ParseError(ValueError):
    """A syntax or validation error, with a 1-based source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class _Token:
    __slots__ = ("kind", "value", "line", "col")

    def __init__(self, kind, value, line, col):
        self.kind = kind
        self.value = value
        self.line = line
        self.col = col

    def __repr__(self):
        return f"{self.kind}({self.value!r})@{self.line}:{self.col}"


def _tokenize(text: str) -> list[_Token]:
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
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
            continue
        m = _NAT_RE.match(text, i)
        if m:
            tokens.append(_Token("nat", int(m.group()), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _NAME_RE.match(text, i)
        if m:
            tokens.append(_Token("name", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", None, line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.env: dict[str, SpaceExpr] = {}

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    @staticmethod
    def describe(tok: _Token) -> str:
        return "end of input" if tok.kind == "eof" else repr(tok.value)

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what or kind}, got {self.describe(tok)}", tok)
        return self.advance()

    def expect_keyword(self, word: str):
        tok = self.peek()
        if tok.kind != "name" or tok.value != word:
            self.fail(f"expected {word!r}, got {self.describe(tok)}", tok)
        return self.advance()

    # -- grammar ----------------------------------------------------------

    def parse_document(self) -> dict[str, SpaceExpr]:
        if self.peek().kind == "name" and self.peek().value == "space":
            while self.peek().kind != "eof":
                self.parse_declaration()
            if not self.env:
                self.fail("empty document")
            return dict(self.env)
        # a single bare expression is accepted as a document
        start = self.peek()
        expr = self.parse_expr()
        self.expect("eof", "end of input")
        self._validate(expr, start)
        return {"_": expr}

    def parse_declaration(self):
        self.expect_keyword("space")
        name_tok = self.expect("name", "a space name")
        name = name_tok.value
        if name in _RESERVED:
            self.fail(f"{name!r} is a reserved word", name_tok)
        if name in self.env:
            self.fail(f"space {name!r} is already declared", name_tok)
        self.expect("{")
        cells = []
        first_cell_tok = self.peek()
        while not (self.peek().kind == "}"):
            cells.append(self.parse_cell())
        self.expect("}")
        try:
            space = Cellular(cells, name=name)
        except ValueError as exc:
            raise ParseError(str(exc), first_cell_tok.line, first_cell_tok.col) from exc
        self._validate(space, name_tok)
        self.env[name] = space

    def _validate(self, space: SpaceExpr, tok: _Token):
        try:
            space.dim()
        except EquidimensionalityViolation as exc:
            raise ParseError(str(exc), tok.line, tok.col) from exc

    def parse_cell(self) -> Cell:
        cell_tok = self.peek()
        self.expect_keyword("cell")
        self.expect("{")
        self.expect_keyword("base")
        self.expect("=")
        base = self.parse_expr()
        self.expect(";")
        self.expect_keyword("rank")
        self.expect("=")
        rank = self.expect("nat", "a nonnegative integer").value
        self.expect(";")
        self.expect_keyword("codim")
        self.expect("=")
        codim = self.expect("nat", "a nonnegative integer").value
        if self.peek().kind == ";":
            self.advance()
        self.expect("}")
        try:
            return Cell(base, rank, codim)
        except ValueError as exc:
            raise ParseError(str(exc), cell_tok.line, cell_tok.col) from exc

    def parse_expr(self, depth: int = 0) -> SpaceExpr:
        tok = self.peek()
        if tok.kind != "name":
            self.fail(f"expected a space expression, got {self.describe(tok)}", tok)
        word = tok.value
        if word == "point":
            self.advance()
            return POINT
        if word in BUILTINS:
            build, names = BUILTINS[word]
            self.advance()
            self.expect("(")
            args = [self.expect("nat").value]
            while len(args) < len(names):
                self.expect(",")
                args.append(self.expect("nat").value)
            self.expect(")")
            try:
                return build(*args)
            except ValueError as exc:  # out of range, or past the cell budget
                raise ParseError(str(exc), tok.line, tok.col) from exc
        if word == "union":
            if depth == MAX_UNION_NESTING:
                self.fail(f"union(...) nested more than {MAX_UNION_NESTING} levels deep", tok)
            self.advance()
            self.expect("(")
            left = self.parse_expr(depth + 1)
            self.expect(",")
            right = self.parse_expr(depth + 1)
            self.expect(")")
            return DisjointUnion(left, right)
        if word in _RESERVED:
            self.fail(f"unexpected keyword {word!r} in expression", tok)
        self.advance()
        if word not in self.env:
            self.fail(f"reference to undeclared space {word!r}", tok)
        return self.env[word]


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
        base = wanted if wanted and _NAME_RE.fullmatch(wanted) and wanted not in _RESERVED else None
        if base is None:
            base = f"s{len(taken)}"
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
