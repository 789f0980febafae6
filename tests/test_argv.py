"""The plain argv reader against argparse.

`read_plain_argv` reads distinct `--name value` pairs and leaves every
other argv to argparse.  Whatever it reads must be exactly what argparse
would have parsed, and a plain request must not load argparse at all.
"""

import pytest

from motivec.cli import build_arg_parser, read_plain_argv
from test_cli import run_fresh

PLAIN = [
    [],
    ["--space", "P:3"],
    ["--space", "Gr:8,16", "--theory", "k0", "--mode", "groups", "--format", "json"],
    ["--format", "text", "--mode", "dual", "--theory", "universal:4", "--space", "quadric:2"],
    ["--file", "spaces.txt", "--space", "layered", "--mode", "poincare"],
    ["--space", ""],
    ["--theory", ""],
    ["--file", ""],
    ["--space", "P:2 "],
    ["--space", "a=b"],
    ["--space", "P:\u0663"],
]

DEFERRED = [
    ["--help"],
    ["-h"],
    ["--space", "P:2", "-h"],
    ["--spa", "P:2"],
    ["--mode=groups"],
    ["--space=P:2"],
    ["--space", "P:2", "--space", "P:3"],
    ["--mode", "groups", "--mode", "groups"],
    ["--mode", "nope"],
    ["--mode", ""],
    ["--format", "xml"],
    ["--format", ""],
    ["--theory", "universal", "--truncation", "3", "--mode", "check"],
    ["--theory", "universal", "--truncation", "007"],
    ["--truncation", "-3"],
    ["--truncation", "+3"],
    ["--truncation", "\u0663"],
    ["--truncation", "3_0"],
    ["--truncation", " 3"],
    ["--truncation", ""],
    ["--truncation", "9" * 5000],
    ["--space"],
    ["--space", "P:2", "extra"],
    ["extra", "P:2"],
    ["--space", "-1"],
    ["--space", "--mode"],
    ["--", "--space"],
    ["-x", "y"],
    ["--bogus", "1"],
    ["--SPACE", "P:2"],
    ["-space", "P:2"],
]


def argparse_reading(argv):
    """vars() of argparse's namespace, or None where argparse exits."""
    try:
        return vars(build_arg_parser().parse_args(argv))
    except SystemExit:
        return None


@pytest.mark.parametrize("argv", PLAIN + DEFERRED, ids=repr)
def test_reader_agrees_with_argparse_or_defers(argv, capsys):
    read = read_plain_argv(argv)
    assert read is None or read == argparse_reading(argv)
    assert (read is not None) == (argv in PLAIN)
    capsys.readouterr()


def test_plain_request_loads_no_argparse_and_help_still_works():
    code, out, imported = run_fresh(["--space", "Gr:2,4", "--mode", "groups", "--format", "json"])
    assert code == 0 and '"groups"' in out
    assert "motivec.motives" in imported
    assert not imported & {"argparse", "gettext", "locale"}

    code, out, imported = run_fresh(["--help"])
    assert code == 0 and "argparse" in imported
    assert out.startswith("usage: motivec [-h] [--space SPACE]")
    assert "Exact twist decompositions of cellular spaces." in out
