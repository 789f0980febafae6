"""Command-line front end.

Select a space (built in, or by name from a text file), pick a theory, and
either print the twist decomposition, the graded groups, the twist
generating polynomial, the codimension-route cross-check, or run the
randomized invariant suites (check mode ignores --space, --file and
--format: it always writes PASS/FAIL rows).

JSON output schema (stable, keys sorted)::

    {
      "space":  selector or name,
      "theory": "chow" | "k0" | "universal:N",
      "dim":    integer,
      "twists": [n0, n1, ...],            # motive and dual modes
      "groups": {"<degree>": rank, ...},  # groups and dual modes; "*" when periodic
      "poincare": [c0, c1, ...],          # poincare mode
      "duality_ok": bool                  # dual mode only
    }

The text output renders the same document, its keys in a fixed order: the
``twists`` or ``poincare`` line, one line per group (``rank r`` for ``*``,
``k: r`` otherwise), then ``duality_ok: true|false``.

Exit codes: 0 on success, 1 on configuration or parse errors, 2 when an
internal invariant fails (check mode failures, or a dual-mode mismatch)
and for any other error, reported as one ``internal error`` line.  An
answer, the ``--help`` text included, that cannot be written (stdout
closed, or full as ``/dev/full`` is) is one ``cannot write the answer``
line and exit 1, and is dropped rather than retried at exit.

:func:`main` returns the exit code; it never exits.  The process entry of
``python -m motivec.cli`` and the ``motivec`` script calls it, runs the
``atexit`` handlers, flushes stdout and stderr, and ends with ``os._exit``:
the interpreter's teardown would only free what the process is about to
give back.  Check mode writes the rows of :func:`motivec.selfcheck.run_all`.

The ``groups`` and ``dual`` ranks are counted from the twist histogram and
the coefficient ring's Hilbert series (:func:`motivec.motives.group_ranks`);
no module basis is listed.

A request imports the ring, space, theory and motive modules.  An argv of
distinct ``--name value`` pairs of the five string options, with a valid
mode and format, is read directly; ``argparse`` loads only for anything
else (``--truncation``, help, abbreviations, ``--name=value``, repeated
options and every error), so that it alone reads an integer and writes
usage and error text.  The parser :mod:`motivec.dsl` loads only for ``--file``,
``json`` only to escape a string that is not printable ASCII (``_json``
writes the flat document itself), and :mod:`motivec.selfcheck` (with the
series, group-law and linear-algebra modules) only for ``--mode check``.
No built-in Chow or K0 request loads ``fractions``, and no answer other
than a check builds a group law.
"""

from __future__ import annotations

import atexit
import io
import os
import sys
from collections import namedtuple

from .motives import (
    decompose_by_codim,
    decompose_by_rank,
    group_ranks,
    poincare_polynomial,
    require_listable,
)
from .spaces import BUILTINS, POINT, SpaceExpr
from .theory import theory_from_selector

ENV_TRUNCATION = "MOTIVEC_TRUNCATION"

MODES = ("motive", "groups", "poincare", "dual", "check")
FORMATS = ("text", "json")

# the command-line options and their defaults
OPTIONS = {
    "space": "point", "file": None, "theory": "chow", "mode": "motive", "format": "text",
    "truncation": None,
}


def _forms(*heads) -> str:
    """The selector forms of built-in families, as in "P:n, Gr:d,n"."""
    return ", ".join(f"{head}:{','.join(BUILTINS[head][1])}" for head in heads)


class RunConfig(namedtuple("RunConfig", "space theory mode format file truncation")):
    __slots__ = ()

    def __new__(cls, space, theory, mode=OPTIONS["mode"], format=OPTIONS["format"], file=OPTIONS["file"],
                truncation=OPTIONS["truncation"]):
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if format not in FORMATS:
            raise ValueError(f"unknown format {format!r}")
        theory_from_selector(theory, truncation)  # refuses a bad selector; builds no law
        return super().__new__(cls, space, theory, mode, format, file, truncation)


class _CountingReader(io.BufferedReader):
    """Counts the bytes its `read1`, the text decoder's one read, has handed out."""
    given = 0

    def read1(self, size=-1):
        data = super().read1(size)
        self.given += len(data)
        return data


def resolve_space(config: RunConfig) -> SpaceExpr:
    if config.file is not None:
        from .dsl import parse_document

        with io.TextIOWrapper(_CountingReader(io.FileIO(config.file)), "utf-8") as handle:
            try:
                documents = parse_document(handle)  # read as it is lexed
            except UnicodeDecodeError as exc:  # its positions count from the decoder's buffer
                at = handle.buffer.given - len(exc.object) + exc.start  # from the file's start
                what = (f"byte 0x{exc.object[exc.start]:02x} in position {at}" if exc.end == exc.start + 1
                        else f"bytes in position {at}-{at + exc.end - exc.start - 1}")
                raise ValueError(f"'{exc.encoding}' codec can't decode {what}: {exc.reason}") from None
        if config.space not in documents:
            raise ValueError(
                f"file {config.file!r} declares no space named {config.space!r}"
            )
        return documents[config.space]
    selector = config.space
    if selector == "point":
        return POINT
    head, colon, args = selector.partition(":")
    if colon and head in BUILTINS:
        build, names = BUILTINS[head]
        try:
            numbers = [int(a) for a in args.split(",")]
        except ValueError:
            numbers = []
        if len(numbers) != len(names):
            raise ValueError(
                f"bad space selector {selector!r}: expected {_forms(head)} with integer arguments"
            )
        try:
            return build(*numbers)
        except ValueError as exc:
            raise ValueError(f"bad space selector {selector!r}: {exc}") from exc
    raise ValueError(
        f"unknown space selector {selector!r} (use point, {_forms(*BUILTINS)}, "
        f"or --file with a declared name)"
    )


def run(config: RunConfig) -> tuple[str, int]:
    """Execute one request; returns (output document, exit code)."""
    if config.mode == "check":
        from .selfcheck import run_all
        rows = run_all()
        output = "".join(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}\n" for name, ok, detail in rows)
        return output, (0 if all(ok for _, ok, _ in rows) else 2)

    space = resolve_space(config)
    theory = theory_from_selector(config.theory, config.truncation)
    doc: dict = {"space": config.space, "theory": theory.name, "dim": space.dim()}
    motive = decompose_by_rank(space)
    if config.mode == "dual":
        require_listable(motive)  # both routes have its size; refuse before the codim fold
        by_codim = decompose_by_codim(space)
        # the codim route mirrors the rank route through the dimension
        doc["duality_ok"] = by_codim == motive.dual(doc["dim"])
        motive = by_codim
    if config.mode == "poincare":
        doc["poincare"] = poincare_polynomial(motive)
    if config.mode in ("groups", "dual"):
        ranks, periodic = group_ranks(motive, theory)
        doc["groups"] = {"*": ranks[0]} if periodic else {str(k): r for k, r in ranks.items()}
    if config.mode in ("motive", "dual"):
        doc["twists"] = motive.twists
    exit_code = 2 if doc.get("duality_ok") is False else 0
    return (_json(doc) if config.format == "json" else _text(doc)) + "\n", exit_code


def _text(doc: dict) -> str:
    """A document as text: its keys in the order the module docstring gives."""
    lines = [" ".join(map(str, doc[key])) for key in ("twists", "poincare") if key in doc]
    lines += [f"rank {r}" if k == "*" else f"{k}: {r}" for k, r in doc.get("groups", {}).items()]
    if "duality_ok" in doc:
        lines.append(f"duality_ok: {_json(doc['duality_ok'])}")
    return "\n".join(lines)


def _json(value, indent="\n") -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for the flat documents `run` writes."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        import json  # json itself escapes any other string
        return json.dumps(value)
    if isinstance(value, int):  # a bool too, which json writes in lower case
        return str(value).lower()
    inner = indent + "  "  # a line break and the indent of the items
    if isinstance(value, dict):
        items, ends = [f"{_json(k)}: {_json(v, inner)}" for k, v in sorted(value.items())], "{}"
    else:  # every list `run` writes is twists or coefficients, all ints: one join
        items, ends = [*map(str, value)], "[]"
    return ends[0] + inner + f",{inner}".join(items) + indent + ends[1] if items else ends


def read_plain_argv(argv) -> dict | None:
    """The options of an argv made only of distinct ``--name value`` pairs,
    exactly as ``vars(build_arg_parser().parse_args(argv))`` gives them.

    Returns None for anything else, to be parsed by argparse: help,
    abbreviations, ``--name=value``, repeated options, a value that starts
    with ``-``, a mode or format outside its choices, and ``--truncation``,
    whose integer rule is argparse's alone.
    """
    flags = argv[::2]
    if len(argv) % 2 or len(set(flags)) != len(flags):
        return None
    args = dict(OPTIONS)
    for flag, value in zip(flags, argv[1::2]):
        name = flag[2:]
        if flag[:2] != "--" or name not in OPTIONS or name == "truncation" or value[:1] == "-":
            return None
        if (name == "mode" and value not in MODES) or (name == "format" and value not in FORMATS):
            return None
        args[name] = value
    return args


def build_arg_parser():
    """The argparse parser: the one writer of usage and error text, whose
    choice refusals are the package's own (`one_of`).  Its help text is the
    code of the SystemExit it raises, for `main` to write."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="motivec",
        description="Exact twist decompositions of cellular spaces.",
    )
    parser.add_argument(
        "--space",
        default=OPTIONS["space"],
        help=f"point, {_forms(*BUILTINS)}, or a name declared in --file",
    )
    parser.add_argument("--file", help="space description file")
    parser.add_argument(
        "--theory", default=OPTIONS["theory"], help="chow, k0, or universal:N"
    )

    def one_of(choices):
        """The `type` and `metavar` of an option taking one of `choices`: its refusal is
        argparse's own text up to 3.13.0, on every interpreter (3.13.13 quotes no choice)."""
        def value(text):
            if text not in choices:
                raise argparse.ArgumentTypeError(
                    f"invalid choice: {text!r} (choose from {', '.join(map(repr, choices))})")
            return text
        return dict(type=value, metavar="{" + ",".join(choices) + "}")

    parser.add_argument("--mode", default=OPTIONS["mode"], **one_of(MODES))
    parser.add_argument("--format", default=OPTIONS["format"], **one_of(FORMATS))
    parser.add_argument("--truncation", type=int, default=None)
    # a usage error is one line, without the usage block argparse puts before it
    parser.error = lambda message: parser.exit(2, f"{parser.prog}: error: {message}\n")
    # help is an answer, which `main` writes as it writes any other
    parser.print_help = lambda file=None: sys.exit(parser.format_help())
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = read_plain_argv(argv)
    if args is None:
        try:
            args = vars(build_arg_parser().parse_args(argv))
        except SystemExit as exc:  # the help text, or the exit after argparse wrote an error
            return _write(exc.code, 0) if isinstance(exc.code, str) else 1
    truncation = args["truncation"]
    if truncation is None and args["theory"] == "universal" and os.environ.get(ENV_TRUNCATION):
        try:
            truncation = int(os.environ[ENV_TRUNCATION])
        except ValueError:
            print(f"motivec: bad {ENV_TRUNCATION} value", file=sys.stderr)
            return 1
    try:
        output, code = run(RunConfig(**{**args, "truncation": truncation}))
    except (ValueError, OSError) as exc:  # a ParseError is a ValueError
        print(f"motivec: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"motivec: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return _write(output, code)


def _write(output: str, code: int) -> int:
    """Write an answer and return its exit code, or 1 if it cannot be written."""
    try:
        if sys.stdout is None:  # the process started with file descriptor 1 closed
            raise OSError("stdout is closed")
        sys.stdout.write(output)
        sys.stdout.flush()
    except OSError as exc:
        sys.stdout = None  # drops the unwritten answer, which the final flush would retry
        if sys.stderr:
            print(f"motivec: cannot write the answer: {exc}", file=sys.stderr)
        return 1
    return code


def _process():
    """The process entry: `main`, the `atexit` handlers, the flush of the
    standard streams, then the exit, without the interpreter's teardown."""
    code = main()
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    _process()
