import json
import os
import subprocess
import sys
import time

import pytest

import motivec
from motivec.cli import ENV_TRUNCATION, RunConfig, main, run
from motivec.theory import universal


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


def test_universal_requires_truncation(capsys):
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

    monkeypatch.setattr(motivec.theory, "universal_law", refuse)
    universal.cache_clear()
    try:
        out, code = run(RunConfig(space="quadric:3", theory="universal:5", mode=mode))
    finally:
        universal.cache_clear()
    assert code == 0 and out
