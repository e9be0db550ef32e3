"""Benchmark of the c4free package: one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus-bounds --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

A run sets up (fresh import of the package plus the seeded input files,
repeated and reported as a median), then runs passes of the workload
until ``--seconds`` have gone by. Every output is checked: at the
default seed the outputs of pass 0 must match the SHA-256 hashes pinned
in ``golden.json``, and at every seed each suite record must pass and
each CLI output must be re-verified against the input file. The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 1`` the metrics are the
per-layer ones of ``spans.py`` and the spans are written to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from spans import LAYERS, PER_LAYER_METRICS, Tracer, twin_vertex_count
from workloads import CORPUS_SUITES, WORKLOADS, CliItem, SuiteItem, check_report, output_hash

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
GOLDEN_PATH = BENCH_DIR / "golden.json"

DEFAULT_SEED = 1
SETUP_REPEATS = 5

# (name, unit, better) of every metric an untraced run reports.
END_TO_END_METRICS = (
    ("wall_s", "s", "lower"),
    ("items_per_s", "items/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)


@dataclass
class Outcome:
    """Timing and verdicts of the items run so far."""

    attempted: int = 0
    failed: int = 0
    items: int = 0
    problems: list[str] = field(default_factory=list)
    corpus_records: int = 0
    pass_seconds: list[float] = field(default_factory=list)

    def fail(self, item_id: str, message: str) -> None:
        self.failed += 1
        self.problems.append(f"{item_id}: {message}")


class Runner:
    """Sets up and runs passes of one workload, and checks every output."""

    def __init__(self, workload, seed: int, golden: Optional[dict]) -> None:
        self.workload = workload
        self.seed = seed
        self.golden = golden
        self.graph = None
        self.setup_seconds: list[float] = []
        OUT_DIR.mkdir(exist_ok=True)
        for _ in range(SETUP_REPEATS):
            self.setup()
        if not Path(self.cli.__file__).resolve().is_relative_to(SRC.resolve()):
            raise ImportError(f"c4free was imported from {self.cli.__file__}, not from {SRC}")
        self.commands = workload.commands(self.graph)
        self.cli_hashes: dict[str, str] = {}
        self.hashes: dict[str, str] = {}

    def setup(self) -> None:
        """Import the package afresh and write the input files; record the time."""
        for name in [m for m in sys.modules if m == "c4free" or m.startswith("c4free.")]:
            del sys.modules[name]
        gc.collect()  # garbage left by the previous pass or import is not set-up work
        start = perf_counter()
        self.cli = importlib.import_module("c4free.cli")
        self.suites = importlib.import_module("c4free.suites")
        graph = self.workload.build_inputs(self.seed, OUT_DIR)
        self.setup_seconds.append(perf_counter() - start)
        if self.graph is None:
            self.graph = graph

    def run_pass(self, index: int, outcome: Outcome, tracer: Optional[Tracer] = None) -> None:
        """Run and check one pass; record the seconds spent inside the package."""
        pass_seconds = 0.0
        for item in self.workload.suites + self.commands:
            item_id = f"pass{index}/{item.id}"
            if tracer is not None:
                tracer.item = item_id
            if isinstance(item, SuiteItem):
                suite_seed = self.workload.suite_seed(self.seed, index, item)
                seconds, payload = self._run_suite(item, suite_seed, item_id, outcome)
            else:
                seconds, payload = self._run_cli(item, item_id, outcome)
            pass_seconds += seconds
            if payload is not None:
                self._check_hash(index, item.id, item_id, payload, outcome)
        if tracer is not None:
            tracer.item = None
        outcome.pass_seconds.append(pass_seconds)

    def _run_suite(self, item: SuiteItem, suite_seed: int, item_id: str, outcome: Outcome):
        config = self.suites.SuiteConfig(
            suite=item.suite, seed=suite_seed, samples=item.samples, max_n=item.max_n
        )
        start = perf_counter()
        try:
            report = self.suites.run_suite(config)
        except Exception as exc:
            seconds = perf_counter() - start
            outcome.attempted += 1
            outcome.fail(item_id, _describe(exc))
            return seconds, None
        seconds = perf_counter() - start
        outcome.attempted += len(report.records)
        outcome.items += len(report.records)
        if item.suite in CORPUS_SUITES:
            outcome.corpus_records += len(report.records)
        problems = check_report(report, item.suite, item.samples)
        for problem in problems:
            outcome.fail(item_id, problem)
        return seconds, report.to_json().encode()

    def _run_cli(self, item: CliItem, item_id: str, outcome: Outcome):
        stdout, stderr = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = self.cli.main(list(item.argv))
                except SystemExit as exc:
                    code = exc.code
        except Exception as exc:
            seconds = perf_counter() - start
            outcome.attempted += 1
            outcome.fail(item_id, _describe(exc))
            return seconds, None
        seconds = perf_counter() - start
        outcome.attempted += 1
        outcome.items += 1
        text = stdout.getvalue()
        payload = f"exit={code}\n".encode() + text.encode()
        known = self.cli_hashes.get(item.id)
        if known is None:
            problems = [] if code == item.exit_code else [
                f"exit code {code}, expected {item.exit_code}; stderr: {stderr.getvalue()[:200]!r}"
            ]
            problems += item.check(self.graph, text)
            if problems:
                outcome.fail(item_id, "; ".join(problems))
            else:
                self.cli_hashes[item.id] = output_hash(payload)
        elif known != output_hash(payload):
            outcome.fail(item_id, "output differs from the first run of this command")
        return seconds, payload

    def _check_hash(self, index: int, item_key: str, item_id: str, payload: bytes,
                    outcome: Outcome) -> None:
        """Pin pass 0 to golden.json at the default seed; repeats of a pass must agree."""
        digest = output_hash(payload)
        key = f"{index}/{item_key}"
        if key in self.hashes:
            if self.hashes[key] != digest:
                outcome.fail(item_id, "output differs from an earlier run of the same pass")
            return
        self.hashes[key] = digest
        if index == 0 and self.golden is not None:
            pinned = self.golden.get(item_key)
            if pinned != digest:
                outcome.fail(item_id, f"golden hash mismatch: {digest} != pinned {pinned}")


def _describe(exc: BaseException) -> str:
    last = traceback.extract_tb(exc.__traceback__)[-1:]
    where = f" at {last[0].filename}:{last[0].lineno}" if last else ""
    return f"{type(exc).__name__}: {str(exc)[:200]}{where}"


def load_golden(workload_name: str, seed: int) -> Optional[dict]:
    if seed != DEFAULT_SEED:
        return None
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        pinned = json.load(handle)
    if pinned.get("seed") != DEFAULT_SEED or workload_name not in pinned["workloads"]:
        raise ValueError(f"{GOLDEN_PATH.name} has no hashes for {workload_name}")
    return pinned["workloads"][workload_name]


def run_untraced(runner: Runner, seconds: float) -> tuple[Outcome, int]:
    """Passes until the deadline, with one more set-up after each pass.

    Spreading the set-ups over the run lets their median see the same
    machine as the passes do.
    """
    outcome, passes = Outcome(), 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        runner.run_pass(passes, outcome)
        passes += 1
        runner.setup()
    return outcome, passes


def run_traced(runner: Runner, seconds: float):
    """Each pass twice, traced and untraced, alternating which goes first."""
    tracer = Tracer()
    plain, traced = Outcome(), Outcome()
    passes = 0
    deadline = perf_counter() + seconds
    while passes == 0 or perf_counter() < deadline:
        for with_trace in ((False, True) if passes % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
                try:
                    runner.run_pass(passes, traced, tracer)
                finally:
                    tracer.remove()
            else:
                runner.run_pass(passes, plain)
        passes += 1
    return tracer, plain, traced, passes


def per_layer_metrics(tracer: Tracer, traced: Outcome, passes: int, plain_wall: float,
                      traced_wall: float) -> dict[str, float]:
    totals = tracer.layer_totals()
    counts = tracer.counts
    values: dict[str, float] = {}
    for layer in LAYERS:
        calls, own = totals[layer]
        values[f"{layer}.calls"] = calls / passes
        values[f"{layer}.self_s"] = own / passes
    draws = counts["generators.random_draws"]
    vertices = sum(len(adj) for adj in tracer.generated)
    twins = sum(twin_vertex_count(adj) for adj in tracer.generated)
    values.update({
        "edgelist.bytes": counts["edgelist.bytes"] / passes,
        "generators.accept_ratio": traced.corpus_records / draws if draws else 1.0,
        "generators.twin_vertex_share": twins / vertices if vertices else 0.0,
        "graph.recognition.calls_per_item": totals["graph.recognition"][0] / max(traced.items, 1),
        "graph.oracle.refused": counts["graph.oracle.raised.OracleLimitError"] / passes,
        "graph.bipartition.odd_share": _share(counts, "graph.bipartition.odd",
                                              "graph.bipartition.results"),
        "extraction.structure_route_share": _share(counts, "extraction.structure_route",
                                                   "extraction.certificates"),
        "trace.overhead_s": traced_wall - plain_wall,
    })
    return values


def _share(counts, part: str, whole: str) -> float:
    return counts[part] / counts[whole] if counts[whole] else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    runner = Runner(workload, seed, load_golden(name, seed))
    units: dict[str, str]
    if trace:
        tracer, plain, traced, passes = run_traced(runner, seconds)
        plain_wall = statistics.fmean(plain.pass_seconds)
        traced_wall = statistics.fmean(traced.pass_seconds)
        tracer.write(str(OUT_DIR / f"spans-{name}-seed{seed}.jsonl"))
        values = per_layer_metrics(tracer, traced, passes, plain_wall, traced_wall)
        units = {metric: unit for metric, unit, _ in PER_LAYER_METRICS}
        outcome = Outcome(
            attempted=plain.attempted + traced.attempted,
            failed=plain.failed + traced.failed,
            problems=plain.problems + traced.problems,
        )
        layer_sum = sum(values[f"{layer}.self_s"] for layer in LAYERS)
        summary = [f"mean pass seconds: untraced {plain_wall:.6f}, traced {traced_wall:.6f}, "
                   f"sum of layer self_s {layer_sum:.6f}"]
    else:
        outcome, passes = run_untraced(runner, seconds)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "wall_s": statistics.fmean(outcome.pass_seconds),
            "items_per_s": outcome.items / sum(outcome.pass_seconds),
            "peak_rss_mb": peak_kib / 1024,
            "setup_s": statistics.median(runner.setup_seconds),
        }
        units = {metric: unit for metric, unit, _ in END_TO_END_METRICS}
        summary = ["pass seconds: " + json.dumps(outcome.pass_seconds),
                   "setup seconds: " + json.dumps(runner.setup_seconds)]
    error_rate = outcome.failed / max(outcome.attempted, 1)
    for problem in outcome.problems[:50]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{name} seed={seed} trace={int(trace)} passes={passes} attempted={outcome.attempted} "
          f"failed={outcome.failed} error_rate={error_rate:.6f}")
    for line in summary:
        print(line)
    for metric, value in values.items():
        print(f"  {metric:40s} {value:14.6f} {units[metric]}")
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {proc.returncode})")
            combined["correct"] = False
            combined["failed"] += 1
            combined["attempted"] += 1
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def write_golden() -> int:
    """Pin the hashes of every pass-0 output at the default seed, after re-checking them."""
    pinned = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, workload in WORKLOADS.items():
        runner = Runner(workload, DEFAULT_SEED, golden=None)
        outcome = Outcome()
        runner.run_pass(0, outcome)
        if outcome.failed:
            for problem in outcome.problems:
                print(f"FAILED {problem}", file=sys.stderr)
            return 1
        pinned["workloads"][name] = {key.split("/", 1)[1]: digest
                                     for key, digest in sorted(runner.hashes.items())}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-check pass 0 at the default seed and pin its hashes")
    args = parser.parse_args(argv)
    if not (SRC / "c4free" / "__init__.py").is_file():
        print(f"error: no c4free package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.write_golden:
        return write_golden()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
