"""Benchmark of the motivec command line: a closed loop with one client.

Run from the root of a checkout that holds ``src/motivec``::

    python3 bench/run.py --workload families --seed 1 --seconds 10 --trace 0

Every request is a fresh ``python3 -m motivec.cli`` process, started only
after the previous one has exited, so a request pays what a user pays:
interpreter start, import, the law build and the answer.  A round is the
workload's whole request list (see ``workloads.py``); the run serves
whole rounds, at least MIN_ROUNDS of them, until ``--seconds`` have
passed, and checks every answer against ``answers.py``.  A request's
latency is the best of its serves in the run: interference from the rest
of the machine only ever adds time.

The machine's speed swings by up to 2x over seconds to minutes, so the
time metrics are paired: right next to every request the same request is
served by ``bench/reference/motivec``, a frozen copy of the package as it
was when this benchmark was written, and the metrics are the program's
times as a multiple of the reference's.  Both run in the same speed
state, so the swing cancels; a faster program reads below 1.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the run serves one round
untraced and one round through ``tracer.py`` and reports the per-layer
metrics instead.  Lines before it are diagnostics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import workloads
from workloads import Request

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join("bench", "out")  # relative to ROOT, ignored by git
MIN_ROUNDS = 1
REFERENCE_DIR = os.path.join("bench", "reference")  # the frozen copy, relative to ROOT
SETUP_REPEATS = 8  # no-work requests before the rounds, and again after them
# No round starts after LAST_ROUND_START_S unless it is expected to end
# before it; a request still running at HARD_LIMIT_S is killed and the run
# fails, so that the command always ends inside 180 s.
LAST_ROUND_START_S = 150.0
HARD_LIMIT_S = 170.0

SETUP_REQUEST = Request(("--space", "point"), "0\n")

END_TO_END = (
    ("total_vs_ref", "x"),
    ("latency_p50_vs_ref", "x"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# metric -> (source in the trace record, key, unit).  What each should move
# is listed in bench/README.md.
PER_LAYER = (
    ("cli.import_s", "import", None, "s"),
    ("cli.run_s", "busy", "cli.run", "s"),
    ("dsl.parse_calls", "calls", "dsl.parse", "count"),
    ("dsl.parse_s", "busy", "dsl.parse", "s"),
    ("spaces.dim_calls", "calls", "spaces.dim", "count"),
    ("spaces.dim_s", "busy", "spaces.dim", "s"),
    ("spaces.nodes_distinct", "counts", "spaces.nodes_distinct", "count"),
    ("motives.fold_calls", "calls", "motives.fold", "count"),
    ("motives.fold_s", "busy", "motives.fold", "s"),
    ("motives.twists", "counts", "motives.twists", "count"),
    ("motives.twists_distinct", "counts", "motives.twists_distinct", "count"),
    ("motives.realize_calls", "calls", "motives.realize", "count"),
    ("motives.realize_s", "busy", "motives.realize", "s"),
    ("gring.component_rank_calls", "calls", "gring.component_rank", "count"),
    ("gring.component_rank_s", "busy", "gring.component_rank", "s"),
    ("motives.duality_s", "busy", "motives.duality", "s"),
    ("motives.compose_calls", "calls", "motives.compose", "count"),
    ("motives.compose_s", "busy", "motives.compose", "s"),
    ("motives.split_s", "busy", "motives.split", "s"),
    ("linalg.calls", "calls", "linalg", "count"),
    ("linalg.s", "busy", "linalg", "s"),
    ("selfcheck.run_all_s", "busy", "selfcheck.run_all", "s"),
    ("gring.mul_calls", "calls", "gring.mul", "count"),
    ("gring.mul_s", "busy", "gring.mul", "s"),
    ("series.mul_calls", "calls", "series.mul", "count"),
    ("series.mul_s", "busy", "series.mul", "s"),
    ("series.substitute_calls", "calls", "series.substitute", "count"),
    ("series.substitute_s", "busy", "series.substitute", "s"),
    ("series.reversion_s", "busy", "series.reversion", "s"),
    ("fgl.law_s", "busy", "fgl.law", "s"),
    ("fgl.logarithm_calls", "calls", "fgl.logarithm", "count"),
    ("fgl.logarithm_s", "busy", "fgl.logarithm", "s"),
    ("theory.select_s", "busy", "theory.select", "s"),
    ("theory.point_class_calls", "calls", "theory.point_class", "count"),
    ("spaces.grassmannian_hits", "counts", "spaces.grassmannian_hits", "count"),
    ("spaces.grassmannian_misses", "counts", "spaces.grassmannian_misses", "count"),
    ("theory.chow_hits", "counts", "theory.chow_hits", "count"),
    ("theory.chow_misses", "counts", "theory.chow_misses", "count"),
    ("theory.k0_hits", "counts", "theory.k0_hits", "count"),
    ("theory.k0_misses", "counts", "theory.k0_misses", "count"),
    ("theory.universal_hits", "counts", "theory.universal_hits", "count"),
    ("theory.universal_misses", "counts", "theory.universal_misses", "count"),
)


@dataclass
class Outcome:
    code: int
    stdout: str
    stderr: str
    seconds: float
    rss_mb: float


class RunAborted(RuntimeError):
    """A request was still running at the hard time limit."""


class Client:
    """Starts one request process at a time and waits for it to exit.

    Output goes to two files under OUT_DIR, reused by every request; the
    exit status and peak RSS come from the child's own rusage.  A single
    watchdog kills the running request at the run's hard time limit.
    """

    def __init__(self, started: float):
        # Requests see no truncation default, a fixed hash seed, and the
        # checkout's package with its compiled bytecode kept, as an
        # installed package would have it.
        dropped = ("MOTIVEC_TRUNCATION", "PYTHONDONTWRITEBYTECODE")
        self.env = {k: v for k, v in os.environ.items() if k not in dropped}
        self.env["PYTHONHASHSEED"] = "0"
        self.reference_env = dict(self.env, PYTHONPATH=os.path.join(ROOT, REFERENCE_DIR))
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.out = open(os.path.join(OUT_DIR, "stdout.txt"), "w+", encoding="utf-8")
        self.err = open(os.path.join(OUT_DIR, "stderr.txt"), "w+", encoding="utf-8")
        self.current: subprocess.Popen | None = None
        self.expired = False
        self.watchdog = threading.Timer(max(0.0, started + HARD_LIMIT_S - time.monotonic()),
                                        self._expire)
        self.watchdog.start()

    def _expire(self):
        self.expired = True
        if self.current is not None and self.current.returncode is None:
            self.current.kill()

    def close(self):
        self.watchdog.cancel()
        self.watchdog.join()
        self.out.close()
        self.err.close()

    def call(self, argv: list[str], reference: bool = False) -> Outcome:
        """Serve argv with the package under src/, or with the frozen copy."""
        for handle in (self.out, self.err):
            handle.seek(0)
            handle.truncate()
        if self.expired:
            raise RunAborted("the run reached its time limit")
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=self.out, stderr=self.err, cwd=ROOT,
                                env=self.reference_env if reference else self.env)
        self.current = proc
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.current = None
        if self.expired:
            raise RunAborted(f"request still running at the time limit: {' '.join(argv)}")
        self.out.seek(0)
        self.err.seek(0)
        return Outcome(proc.returncode, self.out.read(), self.err.read(), seconds,
                       usage.ru_maxrss / 1024)


def cli_argv(request: Request) -> list[str]:
    return [sys.executable, "-m", "motivec.cli", *request.argv]


def judge(request: Request, outcome: Outcome) -> str:
    """'ok', 'failed' (no answer: empty output and a nonzero exit) or 'wrong'."""
    if outcome.code != 0 and not outcome.stdout:
        return "failed"
    if outcome.code != 0:
        return "wrong"
    if request.expect is None:
        lines = outcome.stdout.splitlines()
        passed = bool(lines) and all(line.startswith("[PASS] ") for line in lines)
        return "ok" if passed else "wrong"
    if isinstance(request.expect, dict):
        try:
            return "ok" if json.loads(outcome.stdout) == request.expect else "wrong"
        except ValueError:
            return "wrong"
    return "ok" if outcome.stdout == request.expect else "wrong"


@dataclass
class Round:
    latencies: list[float]
    rss_mb: list[float]
    failed: list[tuple[Request, str]]
    wrong: list[tuple[Request, str]]
    # the reference's latency for each request, in a paired round
    reference: list[float] = field(default_factory=list)

    @property
    def total(self) -> float:
        return sum(self.latencies)


def serve(client: Client, requests: list[Request], argv_of=cli_argv) -> Round:
    """One round: every request in order; answers are checked between them."""
    result = Round([], [], [], [])
    for request in requests:
        _serve_one(client, request, argv_of, result)
    return result


def serve_paired(client: Client, requests: list[Request], reference_first: bool,
                 wrong_reference: list[tuple[Request, str]]) -> Round:
    """One round in which the reference serves each request right before or
    right after the program.  Alternating the order between rounds keeps a
    steady drift from favouring either side.  The reference is checked too:
    a wrong answer from it goes to wrong_reference."""
    result = Round([], [], [], [])
    for request in requests:
        if not reference_first:
            _serve_one(client, request, cli_argv, result)
        outcome = client.call(cli_argv(request), reference=True)
        result.reference.append(outcome.seconds)
        if judge(request, outcome) == "wrong":
            wrong_reference.append((request, outcome.stdout[:200] or outcome.stderr[-200:]))
        if reference_first:
            _serve_one(client, request, cli_argv, result)
    return result


def _serve_one(client: Client, request: Request, argv_of, result: Round) -> None:
    """Serve one request with the program and add its outcome to result."""
    outcome = client.call(argv_of(request))
    result.latencies.append(outcome.seconds)
    result.rss_mb.append(outcome.rss_mb)
    verdict = judge(request, outcome)
    last_err = (outcome.stderr.strip().splitlines() or [""])[-1]
    if verdict == "failed":
        result.failed.append((request, last_err))
    elif verdict == "wrong":
        result.wrong.append((request, outcome.stdout[:200] or last_err))


def reference_loop_s() -> float:
    """A fixed pure-Python loop, timed so machine drift shows beside the numbers."""
    start = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def measure_setup(client: Client) -> tuple[list[float], bool]:
    """Wall times of SETUP_REPEATS no-work requests, and whether each
    answered correctly."""
    times, correct = [], True
    for _ in range(SETUP_REPEATS):
        outcome = client.call(cli_argv(SETUP_REQUEST))
        times.append(outcome.seconds)
        correct = correct and judge(SETUP_REQUEST, outcome) == "ok"
    return times, correct


def report_problems(rounds: list[Round]) -> None:
    seen = set()
    for rnd in rounds:
        for request, detail in rnd.failed + rnd.wrong:
            key = (request.describe(), detail)
            if key in seen:
                continue
            seen.add(key)
            kind = "FAILED" if (request, detail) in rnd.failed else "WRONG"
            reason = f" [{request.fault}]" if request.fault else ""
            print(f"{kind}{reason}: {request.describe()} -> {detail}")


def end_to_end(client: Client, requests: list[Request], seconds: int, started: float
               ) -> tuple[dict, list[Round], bool]:
    """Whole paired rounds between two sets of no-work requests.

    Each request is taken at its best over the rounds, on both sides.
    total_vs_ref is the program's total over the reference's;
    latency_p50_vs_ref is the median over requests of the program's time
    over the reference's.  A round holds 50 requests, too few to leave ten
    beyond a 90th percentile, so only the median is reported.  setup_s is
    the program's own wall time, the median of both sets of no-work
    requests, so it spans the run as the rounds do.
    """
    setup_times, setup_ok = measure_setup(client)
    rounds: list[Round] = []
    wrong_reference: list[tuple[Request, str]] = []
    run_start = time.monotonic()
    while True:
        round_start = time.monotonic()
        rounds.append(serve_paired(client, requests, len(rounds) % 2 == 1, wrong_reference))
        now = time.monotonic()
        if now - run_start >= seconds and len(rounds) >= MIN_ROUNDS:
            break
        if now - started + (now - round_start) > LAST_ROUND_START_S:
            print(f"note: stopped after {len(rounds)} rounds to stay inside the time limit")
            break
    more_times, more_ok = measure_setup(client)
    best = [min(times) for times in zip(*(rnd.latencies for rnd in rounds))]
    best_ref = [min(times) for times in zip(*(rnd.reference for rnd in rounds))]
    metrics = {
        "total_vs_ref": sum(best) / sum(best_ref),
        "latency_p50_vs_ref": statistics.median(p / r for p, r in zip(best, best_ref)),
        "setup_s": statistics.median(setup_times + more_times),
        "peak_rss_mb": max(r for rnd in rounds for r in rnd.rss_mb),
    }
    print(f"{len(rounds)} paired rounds of {len(requests)} requests; "
          "latencies are the best per request")
    print(f"wall time: program total {sum(best):.3f} s, median {statistics.median(best):.4f} s; "
          f"reference total {sum(best_ref):.3f} s, median {statistics.median(best_ref):.4f} s")
    for request, detail in wrong_reference:
        print(f"WRONG (reference copy): {request.describe()} -> {detail}")
    with open(os.path.join(OUT_DIR, "samples.json"), "w", encoding="utf-8") as handle:
        json.dump({"requests": [r.describe() for r in requests],
                   "rounds": [rnd.latencies for rnd in rounds],
                   "reference": [rnd.reference for rnd in rounds],
                   "setup": setup_times + more_times}, handle)
    return metrics, rounds, setup_ok and more_ok and not wrong_reference


def traced(client: Client, requests: list[Request], workload: str, seed: int
           ) -> tuple[dict, list[Round], bool]:
    """One untraced round for the baseline, then one round under tracer.py."""
    plain = serve(client, requests)
    trace_path = os.path.join(OUT_DIR, "request-trace.json")

    def tracer_argv(request: Request) -> list[str]:
        return [sys.executable, os.path.join("bench", "tracer.py"), trace_path, *request.argv]

    probed = Round([], [], [], [])
    records = []
    for request in requests:
        if os.path.exists(trace_path):
            os.remove(trace_path)
        one = serve(client, [request], tracer_argv)
        for field in ("latencies", "rss_mb", "failed", "wrong"):
            getattr(probed, field).extend(getattr(one, field))
        with open(trace_path, encoding="utf-8") as handle:
            record = json.load(handle)
        record["argv"] = list(request.argv)
        records.append(record)
    metrics = {}
    for name, source, key, _unit in PER_LAYER:
        if source == "import":
            metrics[name] = sum(r["import_s"] for r in records)
        else:
            metrics[name] = sum(r[source].get(key, 0) for r in records)
    self_time: dict[str, float] = {}
    for record in records:
        for key, value in record["self"].items():
            self_time[key] = self_time.get(key, 0.0) + value
    with open(os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json"), "w",
              encoding="utf-8") as handle:
        json.dump({"workload": workload, "seed": seed, "requests": records}, handle)
    overhead = probed.total / plain.total - 1
    print(f"tracing overhead: {overhead:+.1%} (traced round {probed.total:.3f} s, "
          f"untraced round {plain.total:.3f} s)")
    print("self time by probe (s): " + ", ".join(
        f"{k} {v:.3f}" for k, v in sorted(self_time.items(), key=lambda kv: -kv[1])))
    return metrics, [plain, probed], True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    os.chdir(ROOT)
    if not os.path.isfile(os.path.join("src", "motivec", "cli.py")):
        print("bench: no src/motivec/cli.py here; run from the root of a motivec checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    requests = workloads.build(args.workload, args.seed, OUT_DIR)
    client = Client(started)
    try:
        reference_before = reference_loop_s()
        # warm-up; leaves compiled bytecode behind for both packages
        client.call(cli_argv(SETUP_REQUEST))
        client.call(cli_argv(SETUP_REQUEST), reference=True)
        if args.trace:
            metrics, rounds, setup_ok = traced(client, requests, args.workload, args.seed)
            units = {name: unit for name, _s, _k, unit in PER_LAYER}
        else:
            metrics, rounds, setup_ok = end_to_end(client, requests, args.seconds, started)
            units = dict(END_TO_END)
        reference_after = reference_loop_s()
    except RunAborted as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        client.close()
    report_problems(rounds)
    print(f"workload {args.workload}, seed {args.seed}; reference loop "
          f"{reference_before:.4f} s before, {reference_after:.4f} s after")
    result = {
        "correct": setup_ok and not any(rnd.wrong for rnd in rounds),
        "attempted": sum(len(rnd.latencies) for rnd in rounds),
        "failed": sum(len(rnd.failed) for rnd in rounds),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
