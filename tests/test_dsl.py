import random
import time

import pytest

from motivec.dsl import ParseError, parse_document, parse_space, print_space
from motivec.spaces import (
    POINT,
    Cell,
    Cellular,
    DisjointUnion,
    grassmannian,
    normalize,
    projective_space,
    quadric,
)
from test_fold import CHAIN

Q1_TEXT = """
space q2 {
  cell { base = P(1); rank = 1; codim = 0 }
  cell { base = P(1); rank = 0; codim = 1 }
}
"""


def test_direct_transcription_of_a_quadric():
    assert parse_space(Q1_TEXT) == quadric(1)


def test_bare_point():
    assert parse_space("point") == POINT


def test_bare_builtins_and_unions():
    assert parse_space("P(3)") == projective_space(3)
    assert parse_space("Gr(2,4)") == grassmannian(2, 4)
    assert parse_space("union(point, point)") == quadric(0)


def test_comments_and_loose_whitespace():
    text = "# heading\nspace s{cell{base=point;rank=0;codim=0;}}# tail comment\n"
    assert parse_space(text) == projective_space(0)


def test_references_resolve_in_order():
    text = """
    space layer {
      cell { base = point; rank = 1; codim = 0 }
      cell { base = point; rank = 0; codim = 1 }
    }
    space tower {
      cell { base = layer; rank = 1; codim = 0 }
      cell { base = layer; rank = 0; codim = 1 }
    }
    """
    doc = parse_document(text)
    assert list(doc) == ["layer", "tower"]
    assert doc["tower"].cells[0].base == projective_space(1)
    assert parse_space(text) == doc["tower"]  # default: last declaration
    assert parse_space(text, name="layer") == projective_space(1)
    with pytest.raises(KeyError):
        parse_space(text, name="basement")


def test_negative_rank_is_a_positioned_error():
    text = "space s { cell { base = point; rank = -1; codim = 0 } }"
    with pytest.raises(ParseError) as err:
        parse_space(text)
    assert err.value.line == 1
    assert err.value.col == text.index("-") + 1


def test_non_increasing_codim_positioned():
    text = "space s {\n  cell { base = point; rank = 1; codim = 0 }\n  cell { base = point; rank = 1; codim = 0 }\n}"
    with pytest.raises(ParseError) as err:
        parse_space(text)
    assert err.value.line == 2  # reported at the first cell of the block
    assert "strictly increase" in str(err.value)


def test_equidimensionality_positioned():
    text = "space s {\n cell { base = point; rank = 2; codim = 0 }\n cell { base = point; rank = 0; codim = 1 }\n}"
    with pytest.raises(ParseError) as err:
        parse_space(text)
    assert err.value.line == 1
    assert "dimensions" in str(err.value)


def test_unresolved_and_forward_references():
    with pytest.raises(ParseError, match="undeclared"):
        parse_space("space s { cell { base = ghost; rank = 0; codim = 0 } }")
    text = """
    space a { cell { base = b; rank = 0; codim = 0 } }
    space b { cell { base = point; rank = 0; codim = 0 } }
    """
    with pytest.raises(ParseError, match="undeclared"):
        parse_document(text)


def test_duplicate_and_reserved_names():
    text = "space a { cell { base = point; rank = 0; codim = 0 } }\n" * 2
    with pytest.raises(ParseError, match="already declared"):
        parse_document(text)
    for word in ("cell", "P", "quadric", "Gr"):
        with pytest.raises(ParseError, match=f"^line 1, col 7: '{word}' is a reserved word$"):
            parse_space(f"space {word} {{ cell {{ base = point; rank = 0; codim = 0 }} }}")


def test_print_builtins_compactly():
    assert print_space(POINT) == "point"
    assert print_space(projective_space(4)) == "P(4)"
    assert print_space(quadric(0)) == "union(point, point)"
    assert print_space(grassmannian(2, 5)) == "Gr(2,5)"


def test_print_user_space_emits_declarations():
    text = print_space(parse_space(Q1_TEXT))
    assert text.startswith("space q2 {")
    assert parse_space(text) == quadric(1)


def _random_document(rng: random.Random) -> str:
    lines = []
    names = []
    for k in range(rng.randint(1, 4)):
        name = f"s{k}"
        ncells = rng.randint(1, 3)
        bases = []
        for _ in range(ncells):
            kind = rng.randrange(5 if names else 4)
            if kind == 0:
                bases.append(("point", 0))
            elif kind == 1:
                n = rng.randint(0, 3)
                bases.append((f"P({n})", n))
            elif kind == 2:
                d = rng.randint(0, 2)
                bases.append((f"quadric({d})", 2 * d))
            elif kind == 3:
                n = rng.randint(0, 2)
                bases.append((f"union(P({n}), Gr(1,{n + 1}))", n))
            else:
                pick = rng.randrange(len(names))
                bases.append(names[pick])
        codims = sorted(rng.sample(range(0, 12), ncells))
        codims[0] = 0
        top = max(c + b[1] for c, b in zip(codims, bases))
        total = top + rng.randint(0, 2)
        cells = [
            f"  cell {{ base = {b[0]}; rank = {total - c - b[1]}; codim = {c} }}"
            for c, b in zip(codims, bases)
        ]
        lines.append(f"space {name} {{")
        lines.extend(cells)
        lines.append("}")
        names.append((name, total))
    return "\n".join(lines) + "\n"


def test_round_trip_on_generated_documents():
    rng = random.Random(20240)
    for _ in range(50):
        text = _random_document(rng)
        space = parse_space(text)
        assert parse_space(print_space(space)) == space


def test_manual_space_without_name_gets_one():
    inner = Cellular([Cell(POINT, 2, 0)])
    outer = Cellular([Cell(inner, 0, 0)])
    text = print_space(outer)
    assert parse_space(text) == outer


def test_top_level_union_of_user_spaces_is_unprintable():
    user = Cellular([Cell(POINT, 1, 0)])
    with pytest.raises(ValueError):
        print_space(DisjointUnion(user, user))


def test_distinct_declarations_of_one_name_print_under_distinct_names():
    first = Cellular([Cell(POINT, 1, 0)], name="a")
    second = Cellular([Cell(POINT, 1, 0), Cell(POINT, 0, 1)], name="a")
    outer = Cellular([Cell(first, 1, 0), Cell(second, 0, 1)])
    text = print_space(outer)
    assert "space a {" in text and "space a_1 {" in text
    assert "base = a;" in text and "base = a_1;" in text
    assert parse_space(text) == outer


def test_shared_subspace_prints_one_declaration():
    shared = Cellular([Cell(POINT, 1, 0)], name="rung")
    outer = Cellular([Cell(shared, 1, 0), Cell(shared, 0, 1)])
    text = print_space(outer)
    assert text.count("space rung") == 1
    assert parse_space(text) == outer


def test_union_of_user_spaces_as_a_base():
    text = """
    space a { cell { base = point; rank = 1; codim = 0 } }
    space b { cell { base = P(1); rank = 0; codim = 0 } }
    space both {
      cell { base = union(a, b); rank = 0; codim = 0 }
    }
    """
    both = parse_space(text)
    assert isinstance(both.cells[0].base, DisjointUnion)
    assert both.dim() == 1
    printed = print_space(both)
    assert "union(a, b)" in printed
    assert parse_space(printed) == both


def nested_unions(depth: int) -> str:
    text = "point"
    for _ in range(depth):
        text = f"union({text}, point)"
    return text


def test_union_nesting_at_the_limit_answers():
    text = nested_unions(256)
    space = parse_space(text)
    assert space.dim() == 0
    assert print_space(space) == text
    assert normalize(space) == space
    assert hash(normalize(space)) == hash(space)


def test_deep_union_nesting_answers_and_keeps_error_positions():
    left = nested_unions(1200)
    right = "union(point, " * 1200 + "point" + ")" * 1200
    for text in (left, right):
        space = parse_space(text)
        assert space.dim() == 0
        assert print_space(space) == text
        assert parse_space(print_space(space)) == space
    with pytest.raises(ParseError, match=r"expected \), got end of input") as exc:
        parse_space(left[:-1])
    assert (exc.value.line, exc.value.col) == (1, len(left))
    undeclared = right.replace("point)", "nowhere)", 1)
    with pytest.raises(ParseError, match="reference to undeclared space 'nowhere'") as exc:
        parse_space(f"space s {{\n  cell {{ base = {undeclared}; rank = 0; codim = 0 }}\n}}\n")
    assert (exc.value.line, exc.value.col) == (2, 17 + 13 * 1200)


def test_deep_unshared_nest_prints_in_linear_length_and_time():
    depth = 20_000
    space = POINT
    for _ in range(depth):
        space = DisjointUnion(POINT, space)
    start = time.perf_counter()
    text = print_space(space)
    assert time.perf_counter() - start < 1  # copying each operand's text took 1.4-1.8 s
    assert len(text) == 14 * depth + 5
    assert text == "union(point, " * depth + "point" + ")" * depth
    assert parse_space(text) == space


def test_reserved_words_are_refused_as_expressions():
    with pytest.raises(ParseError) as exc:
        parse_space("space s {\n  cell { base = cell; rank = 0; codim = 0 }\n}\n")
    assert str(exc.value) == "line 2, col 17: unexpected keyword 'cell' in expression"
    with pytest.raises(ParseError) as exc:
        parse_space("union(point, rank)")
    assert str(exc.value) == "line 1, col 14: unexpected keyword 'rank' in expression"


def tower_document(levels: int) -> str:
    """A union(s, s) tower over P(2): `levels` + 1 declarations, 3 * 2**levels twists."""
    lines = ["space s0 { cell { base = P(2); rank = 0; codim = 0 } }"]
    lines += [
        f"space s{i} {{ cell {{ base = union(s{i - 1}, s{i - 1}); rank = 0; codim = 0 }} }}"
        for i in range(1, levels + 1)
    ]
    return "\n".join(lines) + "\n"


def test_hundred_level_tower_walks_each_shared_node_once():
    start = time.perf_counter()
    space = parse_space(tower_document(100))
    again = parse_space(print_space(space))
    assert hash(again) == hash(space) and again == space
    flat = normalize(space)
    assert isinstance(flat, DisjointUnion) and flat.dim() == 2
    assert repr(flat) == "DisjointUnion(DisjointUnion(...), DisjointUnion(...))"
    assert flat == normalize(again)
    assert time.perf_counter() - start < 2


def test_deep_chain_built_with_the_api_walks_without_recursion():
    space = POINT
    for _ in range(CHAIN):
        space = Cellular([Cell(space, 1, 0)])
    text = print_space(space)
    assert text.count("space ") == CHAIN
    again = parse_space(text)
    assert hash(again) == hash(space) and again == space
    flat = normalize(space)
    assert flat is not space and flat == space
    assert hash(flat) == hash(space)
