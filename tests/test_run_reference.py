"""One document per request against the two builders it replaced.

`run_reference` is `cli.run` as it was for the four answer modes, when it
built the JSON document and the text side by side, with its two group
helpers `_groups_json` and `_groups_text`.  `selector_reference` is
`theory.theory_from_selector` as it was, when it tested the rest of the
selector after ``universal`` twice.  On a grid of built-in spaces, one
file declaration, four theories, every answer mode and both formats,
`cli.run` must write the same bytes and exit code, also when the
codimension route is forced to disagree; and the selector must give the
same theory or the same refusal on every selector and truncation below.
"""

import pytest

from motivec import cli
from motivec.cli import RunConfig, _json, resolve_space, run
from motivec.motives import decompose_by_rank, group_ranks, poincare_polynomial, require_listable
from motivec.theory import MAX_TRUNCATION, chow, k0, theory_from_selector, universal


def selector_reference(selector, truncation=None):
    if selector in ("chow", "k0"):
        if truncation is not None:
            raise ValueError("truncation only applies to the universal theory")
        return chow() if selector == "chow" else k0()
    if selector.startswith("universal"):
        rest = selector[len("universal"):]
        if rest.startswith(":"):
            try:
                n = int(rest[1:])
            except ValueError:
                n = 0
            if n < 1:
                raise ValueError(
                    f"bad theory selector {selector!r}: N must be an integer >= 1"
                )
        elif rest == "":
            if truncation is None:
                raise ValueError("the universal theory needs a truncation bound "
                                 "(universal:N, --truncation, or MOTIVEC_TRUNCATION)")
            if truncation < 1:
                raise ValueError(
                    f"the universal theory needs a truncation bound >= 1, got {truncation}"
                )
            n = truncation
        else:
            raise ValueError(f"unknown theory selector {selector!r}")
        if truncation is not None and rest.startswith(":") and truncation != n:
            raise ValueError("conflicting truncation bounds for the universal theory")
        if n > MAX_TRUNCATION:
            raise ValueError(f"universal truncation {n} is more than the {MAX_TRUNCATION} allowed")
        return universal(n)
    raise ValueError(f"unknown theory selector {selector!r}")


def _groups_json(ranks, periodic):
    if periodic:
        return {"*": ranks[0]}
    return {str(k): r for k, r in ranks.items()}


def _groups_text(ranks, periodic):
    if periodic:
        return [f"rank {ranks[0]}"]
    return [f"{k}: {r}" for k, r in ranks.items()]


def run_reference(config):
    space = resolve_space(config)
    theory = selector_reference(config.theory, config.truncation)
    doc = {"space": config.space, "theory": theory.name, "dim": space.dim()}
    exit_code = 0

    if config.mode == "motive":
        doc["twists"] = decompose_by_rank(space).as_json()
        text = " ".join(str(t) for t in doc["twists"])
    elif config.mode == "poincare":
        doc["poincare"] = poincare_polynomial(decompose_by_rank(space))
        text = " ".join(str(c) for c in doc["poincare"])
    elif config.mode == "groups":
        ranks, periodic = group_ranks(decompose_by_rank(space), theory)
        doc["groups"] = _groups_json(ranks, periodic)
        text = "\n".join(_groups_text(ranks, periodic))
    else:  # dual
        by_rank = decompose_by_rank(space)
        require_listable(by_rank)
        by_codim = cli.decompose_by_codim(space)  # looked up here, so a test can replace it
        ok = by_codim == by_rank.dual(doc["dim"])
        ranks, periodic = group_ranks(by_codim, theory)
        doc["twists"] = by_codim.as_json()
        doc["groups"] = _groups_json(ranks, periodic)
        doc["duality_ok"] = ok
        text = "\n".join(
            [" ".join(str(t) for t in doc["twists"])]
            + _groups_text(ranks, periodic)
            + [f"duality_ok: {'true' if ok else 'false'}"]
        )
        if not ok:
            exit_code = 2

    if config.format == "json":
        return _json(doc) + "\n", exit_code
    return text + "\n", exit_code


SPACES = ("point", "P:0", "P:1", "P:2", "P:3", "quadric:0", "quadric:1", "quadric:2",
          "Gr:1,3", "Gr:2,4", "Gr:2,5")
THEORIES = ("chow", "k0", "universal:3", "universal:14")
MODES = ("motive", "groups", "poincare", "dual")
DOCUMENT = """space pair {
  cell { base = union(quadric(1), P(2)); rank = 2; codim = 0 }
  cell { base = P(1); rank = 1; codim = 2 }
}
"""


def configs(file):
    for theory in THEORIES:
        for mode in MODES:
            for fmt in ("text", "json"):
                for space in SPACES:
                    yield RunConfig(space=space, theory=theory, mode=mode, format=fmt)
                yield RunConfig(space="pair", theory=theory, mode=mode, format=fmt, file=file)


def test_run_writes_the_reference_bytes(tmp_path):
    path = tmp_path / "pair.txt"
    path.write_text(DOCUMENT, encoding="utf-8")
    outputs = set()
    for config in configs(str(path)):
        assert run(config) == run_reference(config), config
        outputs.add(run(config)[0].count("\n"))
    assert len(outputs) > 10  # one-line and many-line answers alike


@pytest.mark.parametrize("theory", THEORIES)
def test_a_forced_dual_mismatch_writes_the_reference_bytes(theory, monkeypatch):
    codim = cli.decompose_by_codim
    monkeypatch.setattr(cli, "decompose_by_codim", lambda space: codim(space).shifted(1))
    for space in ("point", "P:2", "quadric:1", "Gr:2,4"):
        for fmt in ("text", "json"):
            config = RunConfig(space=space, theory=theory, mode="dual", format=fmt)
            out, code = run(config)
            assert code == 2 and (out, code) == run_reference(config), config


SELECTORS = (
    "chow", "k0", "universal", "universal:3", "universal:1", "universal:0", "universal:-2",
    "universal: 5", "universal:+5", "universal:٣", "universal:1_0", "universal:3:4",
    "universal:", "universal:x", f"universal:{MAX_TRUNCATION}", f"universal:{MAX_TRUNCATION + 1}",
    "universal:" + "9" * 4000, "universal:" + "9" * 5000, "chow:", "k0:1", "universalx",
    "universalx:3", "Universal:3", "", ":", ":3", "chow ",
)
TRUNCATIONS = (None, 0, -1, 1, 3, 5, MAX_TRUNCATION, MAX_TRUNCATION + 1, 10**6)


def outcome(select, selector, truncation):
    try:
        return "theory", select(selector, truncation).name
    except ValueError as exc:
        return "refused", str(exc)


def test_the_selector_gives_the_reference_theory_or_refusal():
    assert len(SELECTORS) == 27 and len(TRUNCATIONS) == 9
    for selector in SELECTORS:
        for truncation in TRUNCATIONS:
            got = outcome(theory_from_selector, selector, truncation)
            assert got == outcome(selector_reference, selector, truncation), (selector, truncation)
    # int()'s leniency is kept, and a bound past int()'s digit limit is a bad selector
    for selector, name in (("universal: 5", "universal:5"), ("universal:+5", "universal:5"),
                           ("universal:٣", "universal:3"), ("universal:1_0", "universal:10")):
        assert outcome(theory_from_selector, selector, None) == ("theory", name)
    nines = "universal:" + "9" * 5000
    assert outcome(theory_from_selector, nines, None) == (
        "refused", f"bad theory selector {nines!r}: N must be an integer >= 1")
