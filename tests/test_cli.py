import ast
import json
import os
import subprocess
import sys
import time
from math import comb

import pytest

import motivec
from motivec.cli import ENV_TRUNCATION, RunConfig, main, run
from motivec.motives import MAX_TWISTS
from motivec.theory import MAX_TRUNCATION, universal
from test_dsl import tower_document


def invoke(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_quadric_poincare_line(capsys):
    code, out, err = invoke(
        ["--space", "quadric:3", "--theory", "chow", "--mode", "poincare"], capsys
    )
    assert code == 0 and err == ""
    assert out == "1 1 1 2 1 1 1\n"


def test_point_k0_groups(capsys):
    code, out, _ = invoke(["--space", "point", "--theory", "k0", "--mode", "groups"], capsys)
    assert code == 0
    assert out == "rank 1\n"


def test_grassmannian_groups_json(capsys):
    code, out, _ = invoke(
        ["--space", "Gr:2,4", "--theory", "chow", "--mode", "groups", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["groups"] == {"0": 1, "1": 1, "2": 2, "3": 1, "4": 1}
    assert doc["dim"] == 4
    assert doc["theory"] == "chow"


def test_motive_mode_lists_twists(capsys):
    code, out, _ = invoke(["--space", "quadric:2"], capsys)
    assert code == 0
    assert out == "0 1 2 2 3 4\n"


def test_dual_mode_reports_verdict(capsys):
    code, out, _ = invoke(["--space", "Gr:2,4", "--mode", "dual"], capsys)
    assert code == 0
    assert "duality_ok: true" in out


def test_json_output_is_byte_stable(capsys):
    argv = ["--space", "quadric:4", "--mode", "dual", "--format", "json"]
    _, first, _ = invoke(argv, capsys)
    _, second, _ = invoke(argv, capsys)
    assert first == second
    doc = json.loads(first)
    assert doc["duality_ok"] is True
    assert doc["twists"] == sorted(doc["twists"])


def test_universal_requires_truncation(capsys, monkeypatch):
    monkeypatch.delenv(ENV_TRUNCATION, raising=False)
    code, out, err = invoke(["--space", "P:2", "--theory", "universal"], capsys)
    assert code == 1
    assert "truncation" in err


def test_universal_truncation_from_env(capsys, monkeypatch):
    monkeypatch.setenv(ENV_TRUNCATION, "3")
    code, out, _ = invoke(
        ["--space", "P:2", "--theory", "universal", "--mode", "groups"], capsys
    )
    assert code == 0
    assert "2: 1" in out


def test_env_truncation_is_ignored_for_other_theories(capsys, monkeypatch):
    monkeypatch.setenv(ENV_TRUNCATION, "3")
    code, out, _ = invoke(["--space", "P:2", "--mode", "groups"], capsys)
    assert code == 0
    assert out == "0: 1\n1: 1\n2: 1\n"


def test_universal_selector_groups_json(capsys):
    code, out, _ = invoke(
        ["--space", "P:1", "--theory", "universal:2", "--mode", "groups", "--format", "json"],
        capsys,
    )
    assert code == 0
    doc = json.loads(out)
    # degree -1 collects {m_1} over the twist-0 line and {m_2, m_1^2} over twist 1
    assert doc["groups"] == {"-1": 3, "0": 2, "1": 1}


@pytest.mark.parametrize("argv, env", [
    (["--theory", "universal:99999999999999999999"], None),
    (["--theory", "universal", "--truncation", str(MAX_TRUNCATION + 1)], None),
    (["--theory", "universal"], "123456789"),
])
def test_universal_truncation_above_the_budget_is_refused(argv, env, capsys, monkeypatch):
    if env is not None:
        monkeypatch.setenv(ENV_TRUNCATION, env)
    start = time.perf_counter()
    code, out, err = invoke(["--space", "point", "--mode", "groups", *argv], capsys)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and f"the {MAX_TRUNCATION} allowed" in err


def test_universal_truncation_at_the_budget_answers():
    out, code = run(RunConfig(space="point", theory=f"universal:{MAX_TRUNCATION}", mode="poincare"))
    assert code == 0 and out == "1\n"


def test_truncation_rejected_for_chow(capsys):
    code, _, err = invoke(["--space", "P:1", "--truncation", "4"], capsys)
    assert code == 1
    assert "universal" in err


def test_bad_selector_is_exit_1(capsys):
    code, _, err = invoke(["--space", "sphere:7"], capsys)
    assert code == 1
    assert "selector" in err


def test_negative_builtin_parameters_exit_1(capsys):
    for selector in ("quadric:-1", "P:x", "Gr:3,2", "Gr:1"):
        code, _, err = invoke(["--space", selector], capsys)
        assert code == 1, selector
        assert "selector" in err or "d=" in err


@pytest.mark.parametrize(
    "selector, form",
    [
        ("P:", "P:n"),
        ("P:1.5", "P:n"),
        ("quadric:", "quadric:d"),
        ("Gr:2", "Gr:d,n"),
        ("Gr:2,4,5", "Gr:d,n"),
        ("Gr:a,b", "Gr:d,n"),
    ],
)
def test_malformed_builtin_selector_names_the_expected_form(selector, form, capsys):
    code, out, err = invoke(["--space", selector], capsys)
    assert code == 1 and out == ""
    assert err == (
        f"motivec: bad space selector {selector!r}: expected {form} with integer arguments\n"
    )


def test_file_spaces(tmp_path, capsys):
    doc = tmp_path / "spaces.txt"
    doc.write_text(
        "space fiber {\n"
        "  cell { base = point; rank = 1; codim = 0 }\n"
        "  cell { base = point; rank = 0; codim = 1 }\n"
        "}\n"
        "space total {\n"
        "  cell { base = fiber; rank = 1; codim = 0 }\n"
        "  cell { base = fiber; rank = 0; codim = 1 }\n"
        "}\n"
    )
    code, out, _ = invoke(["--file", str(doc), "--space", "total"], capsys)
    assert code == 0
    assert out == "0 1 1 2\n"
    code, _, err = invoke(["--file", str(doc), "--space", "missing"], capsys)
    assert code == 1
    assert "missing" in err


def test_file_parse_error_position(tmp_path, capsys):
    doc = tmp_path / "bad.txt"
    doc.write_text("space s {\n  cell { base = point; rank = -1; codim = 0 }\n}\n")
    code, _, err = invoke(["--file", str(doc), "--space", "s"], capsys)
    assert code == 1
    assert "line 2" in err


def test_a_number_past_the_digit_limit_is_a_parse_error_at_its_position(tmp_path, capsys):
    doc = tmp_path / "long.txt"
    doc.write_text("space s {\n  cell { base = P(" + "9" * 5000 + "); rank = 0; codim = 0 }\n}\n")
    code, out, err = invoke(["--file", str(doc), "--space", "s"], capsys)
    assert (code, out) == (1, "")
    assert err == "motivec: line 2, col 19: number of 5000 digits is too long\n"


@pytest.mark.parametrize("argv", [["--mode", "nope"], ["--format", "xml"], ["--spacex", "P:2"],
                                  ["--truncation", "x"], ["--space"], ["extra"]], ids=repr)
def test_a_usage_error_is_one_line(argv, capsys):
    code, out, err = invoke(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("motivec: error: ") and err.count("\n") == 1 and err.endswith("\n")


# the package writes these itself: argparse's own text lost the quotes in 3.13.13
@pytest.mark.parametrize("argv, message", [
    (["--mode", "nope"], "--mode: invalid choice: 'nope' "
                         "(choose from 'motive', 'groups', 'poincare', 'dual', 'check')"),
    (["--format=JSON"], "--format: invalid choice: 'JSON' (choose from 'text', 'json')"),
    (["--mo", "it's"], "--mode: invalid choice: \"it's\" "
                       "(choose from 'motive', 'groups', 'poincare', 'dual', 'check')"),
], ids=repr)
def test_a_choice_refusal_quotes_each_choice(argv, message, capsys):
    from motivec.cli import build_arg_parser

    assert invoke(argv, capsys) == (1, "", f"motivec: error: argument {message}\n")
    text = " ".join(build_arg_parser().format_help().split())
    assert "[--mode {motive,groups,poincare,dual,check}] [--format {text,json}]" in text


def test_check_mode_passes(capsys):
    code, out, _ = invoke(["--mode", "check"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l]
    assert len(lines) == 7
    assert all(l.startswith("[PASS]") for l in lines)


def test_run_config_validants():
    with pytest.raises(ValueError):
        RunConfig(space="point", theory="chow", mode="nope")
    with pytest.raises(ValueError):
        RunConfig(space="point", theory="universal:3", truncation=4)
    out, code = run(RunConfig(space="point", theory="universal:3"))
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize("selector", ["universal:0", "universal:-1", "universal:x"])
def test_bad_universal_bound_names_the_selector(selector, capsys):
    code, out, err = invoke(["--space", "P:1", "--theory", selector], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert repr(selector) in err and ">= 1" in err


def test_check_mode_fails_under_python_O():
    """The self-check suites must report a broken invariant even when the
    interpreter strips assert statements."""
    script = (
        "import sys\n"
        "import motivec.motives, motivec.selfcheck\n"
        "motivec.motives.duality_holds = lambda space: False\n"
        "motivec.selfcheck.duality_holds = motivec.motives.duality_holds\n"
        "from motivec.cli import main\n"
        "sys.exit(main(['--mode', 'check']))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(motivec.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 2, proc.stderr
    assert "[FAIL] cellular-model: AssertionError" in proc.stdout


def test_package_has_no_assert_statements():
    """`python -O` strips assert statements, so no check may be one."""
    package = os.path.dirname(os.path.abspath(motivec.__file__))
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), name)
            found += [f"{name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("selector", ["universal:x", "universal:0"])
def test_bad_universal_bound_with_truncation_names_the_selector(selector, capsys):
    with pytest.raises(ValueError, match=repr(selector)):
        RunConfig(space="P:1", theory=selector, truncation=3)
    code, out, err = invoke(["--space", "P:1", "--theory", selector, "--truncation", "3"], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert repr(selector) in err and ">= 1" in err


@pytest.mark.parametrize("mode, answer", [("motive", "0 1 2 2 3 4\n"), ("poincare", "1 1 2 1 1\n")])
def test_large_universal_bound_answers_without_a_law(mode, answer):
    start = time.perf_counter()
    out, code = run(RunConfig(space="Gr:2,4", theory="universal:40", mode=mode))
    assert time.perf_counter() - start < 2.0
    assert code == 0 and out == answer


@pytest.mark.parametrize("mode", ["motive", "groups", "poincare", "dual"])
def test_answers_never_build_the_law(mode, monkeypatch):
    def refuse(order):
        raise AssertionError(f"universal_law({order}) was built")

    monkeypatch.setattr(motivec.fgl, "universal_law", refuse)
    universal.cache_clear()
    try:
        out, code = run(RunConfig(space="quadric:3", theory="universal:5", mode=mode))
    finally:
        universal.cache_clear()
    assert code == 0 and out


def test_run_config_is_an_immutable_checked_record(capsys):
    config = RunConfig(space="P:3", theory="chow")
    assert repr(config) == (
        "RunConfig(space='P:3', theory='chow', mode='motive', format='text', "
        "file=None, truncation=None)"
    )
    assert config == RunConfig("P:3", "chow", "motive", "text", None, None)
    assert hash(config) == hash(("P:3", "chow", "motive", "text", None, None))
    with pytest.raises(AttributeError):
        config.mode = "groups"
    with pytest.raises(AttributeError):
        config.extra = 1
    with pytest.raises(ValueError, match="^unknown format 'xml'$"):
        RunConfig(space="point", theory="chow", format="xml")
    with pytest.raises(ValueError, match="^truncation only applies to the universal theory$"):
        RunConfig(space="point", theory="k0", truncation=2)
    with pytest.raises(ValueError, match="^the universal theory needs a truncation bound"):
        RunConfig(space="point", theory="universal")
    with pytest.raises(ValueError, match="^unknown theory selector 'bogus'$"):
        RunConfig(space="point", theory="bogus", truncation=3)
    for theory in ("k1", "universal:0"):  # check mode reads no space, but checks the theory
        code, out, err = invoke(["--mode", "check", "--theory", theory], capsys)
        assert (code, out) == (1, "") and err.startswith("motivec: ") and err.count("\n") == 1


# Runs the CLI as `python -m motivec.cli` would and reports, on stderr, the
# modules the request imported beyond those of the probe's own start-up.  The
# process entry ends the process, so the report is an `atexit` handler.
STARTUP_PROBE = """
import atexit, runpy, sys
before = set(sys.modules)
atexit.register(lambda: sys.stderr.write(" ".join(sorted(set(sys.modules) - before))))
sys.argv[0] = "motivec"
runpy.run_module("motivec.cli", run_name="__main__", alter_sys=True)
"""


def run_fresh(argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(motivec.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_PROBE, *argv], capture_output=True, text=True, env=env
    )
    return proc.returncode, proc.stdout, set(proc.stderr.split())


def test_a_request_imports_only_what_it_uses():
    code, out, imported = run_fresh(["--space", "P:3"])
    assert code == 0 and out == "0 1 2 3\n"
    assert "motivec.motives" in imported
    assert not imported & {"dataclasses", "inspect", "json", "motivec.selfcheck"}

    argv = ["--space", "P:3", "--mode", "groups", "--format", "json"]
    code, out, imported = run_fresh(argv)
    assert code == 0 and "json" not in imported  # the flat document is written without it
    assert out == run(RunConfig(space="P:3", theory="chow", mode="groups", format="json"))[0]
    assert json.loads(out)["groups"] == {"0": 1, "1": 1, "2": 1, "3": 1}

    code, out, imported = run_fresh(["--mode", "check"])
    assert code == 0 and "motivec.selfcheck" in imported
    lines = out.splitlines()
    assert len(lines) == 7 and all(l.startswith("[PASS]") for l in lines)


# modules a built-in Chow or K0 answer never needs
UNUSED_BY_BUILTINS = {
    "fractions", "decimal", "motivec.fgl", "motivec.series", "motivec.dsl", "motivec.linalg",
}


@pytest.mark.parametrize("theory", ["chow", "k0"])
@pytest.mark.parametrize("mode", ["motive", "groups", "poincare", "dual"])
def test_builtin_requests_load_no_law_series_parser_or_fractions(theory, mode):
    argv = ["--space", "Gr:2,4", "--theory", theory, "--mode", mode]
    code, out, imported = run_fresh(argv)
    assert code == 0
    assert out == run(RunConfig(space="Gr:2,4", theory=theory, mode=mode))[0]
    assert "motivec.motives" in imported
    assert not imported & UNUSED_BY_BUILTINS


def test_universal_groups_request_loads_no_group_law():
    argv = ["--space", "Gr:2,4", "--theory", "universal:6", "--mode", "groups"]
    code, out, imported = run_fresh(argv)
    assert code == 0
    assert out == run(RunConfig(space="Gr:2,4", theory="universal:6", mode="groups"))[0]
    assert "motivec.theory" in imported and "motivec.fgl" not in imported


def test_file_request_loads_the_parser(tmp_path):
    doc = tmp_path / "spaces.txt"
    doc.write_text("space line { cell { base = point; rank = 1; codim = 0 } }\n")
    code, out, imported = run_fresh(["--file", str(doc), "--space", "line"])
    assert code == 0 and out == "1\n"
    assert "motivec.dsl" in imported


def test_unexpected_errors_are_one_line_exit_2(tmp_path, capsys, monkeypatch):
    """A 100-level union(s, s) tower over P(2) folds to counts of 2**100;
    its groups are counted, not listed, so they answer too.  A fault inside
    the computation is one line with exit 2."""
    lines = ["space s0 { cell { base = P(2); rank = 0; codim = 0 } }"]
    lines += [
        f"space s{i} {{ cell {{ base = union(s{i - 1}, s{i - 1}); rank = 0; codim = 0 }} }}"
        for i in range(1, 101)
    ]
    doc = tmp_path / "tower.txt"
    doc.write_text("\n".join(lines) + "\n")
    argv = ["--file", str(doc), "--space", "s100"]
    code, out, err = invoke(argv + ["--mode", "poincare"], capsys)
    assert code == 0 and out == " ".join([str(2**100)] * 3) + "\n"
    code, out, err = invoke(argv + ["--mode", "groups"], capsys)
    assert code == 0 and err == ""
    assert out == "".join(f"{k}: {2**100}\n" for k in range(3))

    def fault(motive, theory):
        raise OverflowError("cannot fit 'int' into an index-sized integer")

    monkeypatch.setattr(motivec.cli, "group_ranks", fault)
    code, out, err = invoke(argv + ["--mode", "groups"], capsys)
    assert code == 2 and out == ""
    assert err == "motivec: internal error: OverflowError: cannot fit 'int' into an index-sized integer\n"


def test_a_key_error_inside_the_computation_is_an_internal_error(capsys, monkeypatch):
    """No request raises KeyError on purpose, so one is a fault: exit 2, one line."""
    def fault(space):
        raise KeyError(7)

    monkeypatch.setattr(motivec.cli, "decompose_by_rank", fault)
    code, out, err = invoke(["--space", "P:2"], capsys)
    assert code == 2 and out == ""
    assert err == "motivec: internal error: KeyError: 7\n"


def test_motive_mode_refuses_more_twists_than_the_budget(tmp_path, capsys):
    doc = tmp_path / "tower.txt"
    doc.write_text(tower_document(100))
    argv = ["--file", str(doc), "--space", "s100", "--mode", "motive"]
    code, out, err = invoke(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"motivec: motive has {3 * 2**100} twists, more than the {MAX_TWISTS} it may list\n"


def test_deeply_nested_union_answers(tmp_path, capsys):
    doc = tmp_path / "nested.txt"
    text = "point"
    for _ in range(1200):
        text = f"union({text}, point)"
    doc.write_text(text + "\n")
    code, out, err = invoke(["--file", str(doc), "--space", "_", "--mode", "groups"], capsys)
    assert (code, out, err) == (0, "0: 1201\n", "")


def dumped(out: str) -> str:
    """What json.dumps writes for the document an output reads back as."""
    return json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("theory", ["chow", "k0", "universal:4"])
@pytest.mark.parametrize("mode", ["motive", "groups", "poincare", "dual"])
def test_json_writer_matches_json_dumps(theory, mode):
    for space in ("point", "P:3", "quadric:2", "Gr:2,5"):
        out, code = run(RunConfig(space=space, theory=theory, mode=mode, format="json"))
        assert code == 0 and out == dumped(out)


def test_json_writer_matches_json_dumps_on_the_tower_and_odd_strings(tmp_path):
    doc = tmp_path / "tower.txt"
    doc.write_text(tower_document(100))
    for mode in ("groups", "poincare"):
        out, _ = run(RunConfig(space="s100", theory="chow", mode=mode, format="json",
                               file=str(doc)))
        assert out == dumped(out) and str(2**100) in out
    out, _ = run(RunConfig(space="Gr:8,16", theory="chow", mode="motive", format="json"))
    assert out == dumped(out) and out.count("\n") == comb(16, 8) + 7
    out, _ = run(RunConfig(space="P:\uff13", theory="chow", mode="poincare", format="json"))
    assert out == dumped(out) and '"space": "P:\\uff13"' in out
    from motivec.cli import _json

    for value in ({"twists": [], "groups": {}, "duality_ok": False, "dim": 0},
                  {"groups": {"*": 3}, "b": True, "n": -7, "big": [2**100, 0]},
                  {"s": 'q"uote', "t": "back\\slash", "u": "tab\tnew\nline", "v": "\x7f\x00",
                   "w": "\u00e9\u2028\U0001f600", "x": "", "y": " ~"}):
        assert _json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_dual_mode_refuses_a_long_motive_before_the_codim_fold(capsys, monkeypatch):
    argv = ["--space", "Gr:30,60"]
    invoke(argv + ["--mode", "poincare"], capsys)  # builds and caches the space
    start = time.perf_counter()
    assert invoke(argv + ["--mode", "poincare"], capsys)[0] == 0
    one_fold = time.perf_counter() - start

    def no_codim_fold(space):
        raise AssertionError("the codim route was folded")

    monkeypatch.setattr(motivec.cli, "decompose_by_codim", no_codim_fold)
    start = time.perf_counter()
    code, out, err = invoke(argv + ["--mode", "dual"], capsys)
    assert time.perf_counter() - start < 1.5 * one_fold + 0.05
    assert code == 1 and out == ""
    assert err == (f"motivec: motive has {comb(60, 30)} twists, more than the {MAX_TWISTS} "
                   "it may list\n")


def test_selector_forms_come_from_the_table_of_built_in_spaces(capsys):
    from motivec.cli import build_arg_parser
    from motivec.spaces import BUILTINS

    assert {head: names for head, (_, names) in BUILTINS.items()} == {
        "P": ("n",), "quadric": ("d",), "Gr": ("d", "n")}
    code, out, err = invoke(["--space", "cube:3"], capsys)
    assert code == 1 and out == ""
    assert err == ("motivec: unknown space selector 'cube:3' (use point, P:n, quadric:d, "
                   "Gr:d,n, or --file with a declared name)\n")
    text = " ".join(build_arg_parser().format_help().split())
    assert "--space SPACE point, P:n, quadric:d, Gr:d,n, or a name declared in --file" in text


@pytest.mark.parametrize("env", ["5", "abc", "0"])
def test_env_truncation_is_a_fallback_for_a_bare_universal_only(env, capsys, monkeypatch):
    monkeypatch.setenv(ENV_TRUNCATION, env)
    code, out, err = invoke(
        ["--space", "P:1", "--theory", "universal:3", "--mode", "poincare"], capsys
    )
    assert (code, out, err) == (0, "1 1\n", "")
    code, out, err = invoke(["--space", "P:1", "--theory", "universal", "--mode", "poincare"],
                            capsys)
    if env == "abc":
        assert (code, out, err) == (1, "", f"motivec: bad {ENV_TRUNCATION} value\n")
    elif env == "0":
        assert (code, out) == (1, "") and err.endswith("bound >= 1, got 0\n")
    else:
        assert (code, out, err) == (0, "1 1\n", "")


@pytest.mark.parametrize("theory, groups, text", [
    ("chow", {"1": 1, "2": 2, "3": 1}, "1: 1\n2: 2\n3: 1\n"),
    ("k0", {"*": 4}, "rank 4\n"),
])
def test_a_dual_mismatch_is_exit_2_in_both_formats(theory, groups, text, capsys, monkeypatch):
    """A codimension route that is not the rank route's mirror: both formats
    still write the whole document, and the verdict is false with exit 2."""
    codim = motivec.cli.decompose_by_codim
    monkeypatch.setattr(motivec.cli, "decompose_by_codim", lambda space: codim(space).shifted(1))
    argv = ["--space", "quadric:1", "--theory", theory, "--mode", "dual"]
    code, out, err = invoke(argv, capsys)
    assert (code, err) == (2, "")
    assert out == "1 2 2 3\n" + text + "duality_ok: false\n"
    code, out, err = invoke(argv + ["--format", "json"], capsys)
    assert (code, err) == (2, "")
    assert out == json.dumps({"dim": 2, "duality_ok": False, "groups": groups, "space": "quadric:1",
                              "theory": theory, "twists": [1, 2, 2, 3]},
                             sort_keys=True, indent=2) + "\n"


SRC = os.path.dirname(os.path.dirname(os.path.abspath(motivec.__file__)))

# Runs the CLI through its process entry, as `python -m motivec.cli` does, with
# an `atexit` handler registered before it that writes "atexit" to stderr.
ENTRY_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write("atexit"))
sys.argv[0] = "motivec"
runpy.run_module("motivec.cli", run_name="__main__", alter_sys=True)
"""

# Runs `main` in-process and reports what it returned after it returned.
MAIN_PROBE = """
import sys
from motivec.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(f"main returned {code}")
"""


def run_probe(probe, argv):
    return subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": SRC})


# The real process entry in development mode with warnings as errors: the
# check request, whose suites run in a forked worker; plain answers that write
# the text listing and the JSON number list; and two file requests in dual mode
# with JSON output, which run the parser, both folds and the JSON writer.  The
# second document repeats a declared base around a shared union, so each cell
# folds its own base.  A warning raised while the entry runs, such as 3.12's
# fork DeprecationWarning, fails the request.  The entry ends with os._exit, so
# no finalizer runs at its end; the in-process tests catch an unclosed file.
ENTRY_DOCUMENTS = {
    "spaces.txt": "space s { cell { base = union(P(1), P(1)); rank = 1; codim = 0 } }\n",
    "shared.txt": (
        "space b { cell { base = point; rank = 1; codim = 0 } cell { base = point; rank = 0; codim = 1 } }\n"
        "space s { cell { base = b; rank = 2; codim = 0 } cell { base = union(b, b); rank = 1; codim = 1 }"
        " cell { base = b; rank = 0; codim = 2 } }\n"),
}


@pytest.mark.parametrize("argv", [
    ["--mode", "check"],
    ["--space", "Gr:2,4", "--mode", "groups"],
    ["--space", "Gr:2,4", "--mode", "motive"],
    ["--space", "P:3", "--mode", "poincare", "--format", "json"],
    ["--file", "spaces.txt", "--space", "s", "--mode", "dual", "--format", "json"],
    ["--file", "shared.txt", "--space", "s", "--mode", "dual", "--format", "json"],
], ids=" ".join)
def test_the_process_entry_answers_in_dev_mode_with_warnings_as_errors(argv, tmp_path):
    for name, text in ENTRY_DOCUMENTS.items():
        (tmp_path / name).write_text(text)
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m", "motivec.cli", *argv],
                          capture_output=True, text=True, cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert (proc.returncode, proc.stderr) == (0, "") and proc.stdout, proc.stderr


@pytest.mark.parametrize("argv, code", [(["--space", "P:3"], 0), (["--space", "P:x"], 1),
                                        (["--mode", "check"], 0)], ids=["answer", "refusal", "check"])
def test_the_process_entry_runs_atexit_once_and_writes_what_main_writes(argv, code):
    """The entry ends the process itself: it runs each `atexit` handler once
    (a forked check worker runs none), and its bytes and exit code are those
    `main` writes and returns in-process, where it does not exit."""
    entry, inside = run_probe(ENTRY_PROBE, argv), run_probe(MAIN_PROBE, argv)
    returned = f"main returned {code}".encode()
    assert (entry.returncode, inside.returncode) == (code, 0)
    assert entry.stderr.count(b"atexit") == 1 and inside.stderr.endswith(returned)
    assert entry.stdout == inside.stdout
    assert entry.stderr.removesuffix(b"atexit") == inside.stderr.removesuffix(returned)


def test_one_process_entry_for_the_script_and_the_module():
    """The `motivec` script names the function the `__main__` block calls."""
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as handle:
        scripts = handle.read().split("[project.scripts]")[1].split("\n[")[0]
    command, equals, target = scripts.split()
    module, _, entry = target.strip('"').partition(":")
    assert (command, equals, module) == ("motivec", "=", "motivec.cli")
    with open(motivec.cli.__file__, encoding="utf-8") as handle:
        guard = ast.parse(handle.read()).body[-1]
    assert ast.unparse(guard.test) == "__name__ == '__main__'"
    assert [ast.unparse(line) for line in guard.body] == [f"{entry}()"]
    assert getattr(motivec.cli, entry) is not main  # `main` does not exit


def run_closing(argv, unbuffered, close=(), stdout=None):
    """`python -m motivec.cli argv`, with or without `PYTHONUNBUFFERED` and
    with the given file descriptors closed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env.update({"PYTHONPATH": SRC, **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})})
    return subprocess.run([sys.executable, "-m", "motivec.cli", *argv], stdout=stdout,
                          stderr=None if 2 in close else subprocess.PIPE, text=True, env=env,
                          preexec_fn=lambda: [os.close(fd) for fd in close])


WRITTEN = ["--space", "Gr:2,4", "--mode", "groups"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_an_answer_to_a_full_device_is_one_line_exit_1(unbuffered):
    with open("/dev/full", "w") as full:
        proc = run_closing(WRITTEN, unbuffered, stdout=full)
    assert (proc.returncode, proc.stderr) == (
        1, "motivec: cannot write the answer: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_an_answer_to_a_closed_stdout_is_one_line_exit_1(unbuffered):
    proc = run_closing(WRITTEN, unbuffered, close=(1,))
    assert (proc.returncode, proc.stderr) == (1, "motivec: cannot write the answer: stdout is closed\n")
    assert run_closing(WRITTEN, unbuffered, close=(1, 2)).returncode == 1  # and silent


# help is an answer: written once by the same write, and refused as an answer is
HELP = ["--help"]


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_is_written_whole_to_a_writable_stdout(unbuffered, monkeypatch):
    from motivec.cli import build_arg_parser

    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the same width in both processes
    proc = run_closing(HELP, unbuffered, stdout=subprocess.PIPE)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, build_arg_parser().format_help(), "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_to_a_full_device_is_one_line_exit_1(unbuffered):
    with open("/dev/full", "w") as full:
        proc = run_closing(HELP, unbuffered, stdout=full)
    assert (proc.returncode, proc.stderr) == (
        1, "motivec: cannot write the answer: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("unbuffered", [False, True])
def test_help_to_a_closed_stdout_is_one_line_exit_1(unbuffered):
    proc = run_closing(HELP, unbuffered, close=(1,))
    assert (proc.returncode, proc.stderr) == (1, "motivec: cannot write the answer: stdout is closed\n")
    assert run_closing(HELP, unbuffered, close=(1, 2)).returncode == 1  # and silent
