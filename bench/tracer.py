"""Run one motivec CLI request with per-layer probes installed.

Usage::

    python3 bench/tracer.py TRACE_OUT [motivec arguments...]

Imports ``motivec.cli`` (timed), wraps the public functions of each layer,
runs ``motivec.cli.main`` on the arguments, and writes the trace to
TRACE_OUT as JSON when the request ends, even when it ends in an
exception.  Standard output and the exit code are the CLI's own.

A probe counts calls and time.  Time is summed over the outermost calls
of a probe only: a call nested in another of the same probe, as in the
recursive ``dim``, is counted and passed straight through.  Self time is
a call's time minus the time of the probed calls inside it.  Spans (name,
start, end, parent) are kept for the coarse probes; the hot ones (ring
and series products, ``component_rank``, ``compose``, ``dim``) keep only
their totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter

perf_counter = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # [name, start, child time, span id]
        self.spans: list[tuple] = []  # (span id, parent span id, name, start, end)
        self.calls: Counter = Counter()
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.active: Counter = Counter()
        self.counts: Counter = Counter()
        self.next_id = 0

    def wrap(self, name: str, fn, keep_spans: bool, after=None):
        stack, calls, active = self.stack, self.calls, self.active

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            calls[name] += 1
            if active[name]:
                # nested in a call of the same probe, which times it
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span_id = None
            if keep_spans:
                span_id = self.next_id
                self.next_id += 1
            elif parent is not None:
                span_id = parent[3]
            frame = [name, 0.0, 0.0, span_id]
            stack.append(frame)
            active[name] += 1
            frame[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                elapsed = end - start
                self.busy[name] += elapsed
                self.self_time[name] += elapsed - frame[2]
                if parent is not None:
                    parent[2] += elapsed
                if keep_spans:
                    parent_id = parent[3] if parent is not None else None
                    self.spans.append((span_id, parent_id, name, start, end))
            if after is not None:
                after(result)
            return result

        return probe

    def dump(self) -> dict:
        return {
            "calls": dict(self.calls),
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


def _replace_everywhere(modules, original, wrapped) -> None:
    """Rebind every module-level name that refers to `original`."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _walk_distinct(space) -> int:
    """Distinct nodes of a space DAG, by identity, without recursion."""
    seen = set()
    todo = [space]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for cell in getattr(node, "cells", ()):
            todo.append(cell.base)
        for side in ("left", "right"):
            if hasattr(node, side):
                todo.append(getattr(node, side))
    return len(seen)


# (module, function or Class.method, probe name, keep spans)
PROBES = (
    ("cli", "run", "cli.run", True),
    ("dsl", "parse_document", "dsl.parse", True),
    ("spaces", "Point.dim", "spaces.dim", False),
    ("spaces", "Cellular.dim", "spaces.dim", False),
    ("spaces", "DisjointUnion.dim", "spaces.dim", False),
    ("motives", "decompose_by_rank", "motives.fold", True),
    ("motives", "decompose_by_codim", "motives.fold", True),
    ("motives", "realize", "motives.realize", True),
    ("gring", "component_rank", "gring.component_rank", False),
    ("motives", "duality_holds", "motives.duality", True),
    ("motives", "compose", "motives.compose", False),
    ("motives", "split_idempotent", "motives.split", True),
    ("linalg", "rref", "linalg", True),
    ("linalg", "column_space_factorization", "linalg", True),
    ("linalg", "integer_column_basis", "linalg", True),
    ("linalg", "solve_columns", "linalg", True),
    ("selfcheck", "run_all", "selfcheck.run_all", True),
    ("gring", "GradedRingElement.__mul__", "gring.mul", False),
    ("gring", "GradedRingElement.__rmul__", "gring.mul", False),
    ("series", "TruncatedSeries.__mul__", "series.mul", False),
    ("series", "TruncatedSeries.__rmul__", "series.mul", False),
    ("series", "TruncatedSeries.substitute_many", "series.substitute", True),
    ("series", "TruncatedSeries.reversion", "series.reversion", True),
    ("fgl", "additive_law", "fgl.law", True),
    ("fgl", "multiplicative_law", "fgl.law", True),
    ("fgl", "universal_law", "fgl.law", True),
    ("fgl", "logarithm", "fgl.logarithm", True),
    ("theory", "theory_from_selector", "theory.select", True),
    ("theory", "OrientedTheory.point_class", "theory.point_class", True),
)


def install(tracer: Tracer, package, captured: list) -> None:
    """Wrap every probed function in each module that holds it, and every
    probed method on its class.  Names that do not exist are skipped."""
    modules = [m for n, m in sys.modules.items()
               if n == package.__name__ or n.startswith(package.__name__ + ".")]

    def count_twists(motive):
        tracer.counts["motives.twists"] += len(motive)
        tracer.counts["motives.twists_distinct"] += len(set(motive))

    hooks = {"motives.fold": count_twists}
    for module_name, path, name, keep in PROBES:
        module = importlib.import_module(f"{package.__name__}.{module_name}")
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            continue
        original = vars(owner)[attr]
        wrapped = tracer.wrap(name, original, keep, hooks.get(name))
        if owner_name:
            setattr(owner, attr, wrapped)
        else:
            _replace_everywhere(modules, original, wrapped)
    cli = sys.modules[f"{package.__name__}.cli"]
    resolve = cli.resolve_space
    cli.resolve_space = tracer.wrap("cli.resolve_space", resolve, True, captured.append)


def cache_counts(package) -> dict:
    """hits and misses of the lru caches on spaces and theories."""
    out = {}
    for module_name, fn_name in (("spaces", "grassmannian"), ("theory", "chow"),
                                 ("theory", "k0"), ("theory", "universal")):
        fn = getattr(sys.modules[f"{package.__name__}.{module_name}"], fn_name, None)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"{module_name}.{fn_name}_hits"] = info.hits if info else 0
        out[f"{module_name}.{fn_name}_misses"] = info.misses if info else 0
    return out


def main(argv: list[str]) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    start = perf_counter()
    import motivec
    import motivec.cli

    import_s = perf_counter() - start
    tracer = Tracer()
    captured: list = []
    install(tracer, motivec, captured)
    try:
        return motivec.cli.main(cli_args)
    finally:
        record = tracer.dump()
        record["import_s"] = import_s
        record["counts"]["spaces.nodes_distinct"] = sum(_walk_distinct(s) for s in captured)
        record["counts"].update(cache_counts(motivec))
        with open(trace_out, "w", encoding="utf-8") as handle:
            json.dump(record, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
