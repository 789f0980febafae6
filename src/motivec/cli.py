"""Command-line front end.

Select a space (built in, or by name from a text file), pick a theory, and
either print the twist decomposition, the graded groups, the twist
generating polynomial, the codimension-route cross-check, or run the
randomized invariant suites.

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

Exit codes: 0 on success, 1 on configuration or parse errors, 2 when an
internal invariant fails (check mode failures, or a dual-mode mismatch).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .dsl import ParseError, parse_document
from .motives import (
    GradedModuleTable,
    decompose_by_codim,
    decompose_by_rank,
    duality_holds,
    poincare_polynomial,
    realize_table,
)
from .selfcheck import run_all
from .spaces import POINT, SpaceExpr, grassmannian, projective_space, quadric
from .theory import OrientedTheory, theory_from_selector

ENV_TRUNCATION = "MOTIVEC_TRUNCATION"

MODES = ("motive", "groups", "poincare", "dual", "check")


@dataclass(frozen=True)
class RunConfig:
    space: str
    theory: str
    mode: str = "motive"
    format: str = "text"
    file: str | None = None
    truncation: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.format not in ("text", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        if not self.theory.startswith("universal"):
            if self.truncation is not None:
                raise ValueError("truncation only applies to the universal theory")
        elif self.truncation is not None:
            # N must be valid and agree with the truncation; builds no law
            theory_from_selector(self.theory, self.truncation)
        elif self.theory == "universal":
            raise ValueError(
                "the universal theory needs a truncation bound "
                "(universal:N, --truncation, or MOTIVEC_TRUNCATION)"
            )


def resolve_space(config: RunConfig) -> SpaceExpr:
    if config.file is not None:
        with open(config.file, "r", encoding="utf-8") as handle:
            documents = parse_document(handle.read())
        if config.space not in documents:
            raise ValueError(
                f"file {config.file!r} declares no space named {config.space!r}"
            )
        return documents[config.space]
    selector = config.space
    if selector == "point":
        return POINT
    if ":" in selector:
        head, _, args = selector.partition(":")
        try:
            if head == "P":
                return projective_space(int(args))
            if head == "quadric":
                return quadric(int(args))
            if head == "Gr":
                d, n = args.split(",")
                return grassmannian(int(d), int(n))
        except ValueError as exc:
            raise ValueError(f"bad space selector {selector!r}: {exc}") from exc
    raise ValueError(
        f"unknown space selector {selector!r} (use point, P:n, quadric:d, "
        f"Gr:d,n, or --file with a declared name)"
    )


def resolve_theory(config: RunConfig) -> OrientedTheory:
    return theory_from_selector(config.theory, config.truncation)


def _groups_json(table: GradedModuleTable) -> dict:
    if table.periodic:
        return {"*": table.total_rank()}
    return {str(k): r for k, r in table.ranks().items()}


def _groups_text(table: GradedModuleTable) -> list[str]:
    if table.periodic:
        return [f"rank {table.total_rank()}"]
    return [f"{k}: {r}" for k, r in sorted(table.ranks().items())]


def run(config: RunConfig) -> tuple[str, int]:
    """Execute one request; returns (output document, exit code)."""
    if config.mode == "check":
        lines = []
        failed = False
        for name, ok, detail in run_all():
            status = "PASS" if ok else "FAIL"
            failed = failed or not ok
            lines.append(f"[{status}] {name}: {detail}")
        return "\n".join(lines) + "\n", (2 if failed else 0)

    space = resolve_space(config)
    theory = resolve_theory(config)
    doc: dict = {"space": config.space, "theory": theory.name, "dim": space.dim()}
    exit_code = 0

    if config.mode == "motive":
        doc["twists"] = decompose_by_rank(space).as_json()
        text = " ".join(str(t) for t in doc["twists"])
    elif config.mode == "poincare":
        doc["poincare"] = poincare_polynomial(decompose_by_rank(space))
        text = " ".join(str(c) for c in doc["poincare"])
    elif config.mode == "groups":
        table = realize_table(decompose_by_rank(space), theory)
        doc["groups"] = _groups_json(table)
        text = "\n".join(_groups_text(table))
    else:  # dual
        by_codim = decompose_by_codim(space)
        ok = duality_holds(space)
        table = realize_table(by_codim, theory)
        doc["twists"] = by_codim.as_json()
        doc["groups"] = _groups_json(table)
        doc["duality_ok"] = ok
        text = "\n".join(
            [" ".join(str(t) for t in by_codim.twists)]
            + _groups_text(table)
            + [f"duality_ok: {'true' if ok else 'false'}"]
        )
        if not ok:
            exit_code = 2

    if config.format == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n", exit_code
    return text + "\n", exit_code


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motivec",
        description="Exact twist decompositions of cellular spaces.",
    )
    parser.add_argument(
        "--space",
        default="point",
        help="point, P:n, quadric:d, Gr:d,n, or a name declared in --file",
    )
    parser.add_argument("--file", help="space description file")
    parser.add_argument(
        "--theory", default="chow", help="chow, k0, or universal:N"
    )
    parser.add_argument("--mode", default="motive", choices=MODES)
    parser.add_argument("--format", default="text", choices=("text", "json"))
    parser.add_argument("--truncation", type=int, default=None)
    return parser


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a message; --help exits with 0
        return 0 if exc.code == 0 else 1
    truncation = args.truncation
    if truncation is None and args.theory.startswith("universal") and os.environ.get(ENV_TRUNCATION):
        try:
            truncation = int(os.environ[ENV_TRUNCATION])
        except ValueError:
            print(f"motivec: bad {ENV_TRUNCATION} value", file=sys.stderr)
            return 1
    try:
        config = RunConfig(
            space=args.space,
            theory=args.theory,
            mode=args.mode,
            format=args.format,
            file=args.file,
            truncation=truncation,
        )
        output, code = run(config)
    except (ParseError, ValueError, OSError, KeyError) as exc:
        print(f"motivec: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(output)
    return code


if __name__ == "__main__":
    sys.exit(main())
