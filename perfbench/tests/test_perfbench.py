"""Tests of the benchmark itself: metric names, the golden gate, span arithmetic.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, CliItem, expect_text  # noqa: E402


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_spec_matches_the_metric_tables():
    spec = _spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        spans.PER_LAYER_METRICS
    )
    assert {(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]} == set(
        run.END_TO_END_METRICS
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed(trace, key):
    result = _run("--workload", "corpus-bounds", "--seed", "3", "--seconds", "0",
                  "--trace", str(trace))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in _spec()[key]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in _spec()[key]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]


def test_golden_gate_trips_on_one_byte_change():
    workload = WORKLOADS["corpus-bounds"]
    seed = run.DEFAULT_SEED
    golden = run.load_golden(workload.name, seed)
    item = workload.suites[0]

    runner = run.Runner(workload, seed, golden)
    captured = run.Outcome()
    _, payload = runner._run_suite(item, workload.suite_seed(seed, 0, item), "t", captured)
    runner._check_hash(0, item.id, "t", payload, captured)
    assert captured.failed == 0, captured.problems

    changed = bytearray(payload)
    changed[len(changed) // 2] ^= 1
    outcome = run.Outcome()
    run.Runner(workload, seed, golden)._check_hash(0, item.id, "t", bytes(changed), outcome)
    assert outcome.failed == 1 and "golden hash mismatch" in outcome.problems[0]


def test_cli_check_trips_on_one_byte_change():
    check = expect_text("c4-free\n")
    assert check(None, "c4-free\n") == []
    assert check(None, "c4-free!") != []


def test_escaping_exception_is_a_failed_item():
    workload = WORKLOADS["sharp-cli"]
    runner = run.Runner(workload, 2, golden=None)

    def main(argv):
        raise RecursionError("maximum recursion depth exceeded")

    runner.cli = types.SimpleNamespace(main=main)
    runner.commands = (CliItem("cli:deep", ("clique", "exact", "x"), 0, expect_text("")),)
    outcome = run.Outcome()
    runner.run_pass(0, outcome)
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert outcome.problems[0].startswith("pass0/cli:deep: RecursionError")


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > c [5, 9] > d [6, 8] > e [6.5, 7]
    tree = [
        ["suites", "run_suite", 0.0, 10.0, -1, "i"],
        ["extraction", "a", 1.0, 4.0, 0, "i"],
        ["graph.recognition", "b", 2.0, 3.0, 1, "i"],
        ["generators", "c", 5.0, 9.0, 0, "i"],
        ["graph.recognition", "d", 6.0, 8.0, 3, "i"],
        ["graph.oracle", "e", 6.5, 7.0, 4, "i"],
    ]
    assert spans.self_times(tree) == [3.0, 2.0, 1.0, 2.0, 1.5, 0.5]
    tracer = spans.Tracer()
    tracer.spans.extend(tree)
    totals = tracer.layer_totals()
    assert totals["graph.recognition"] == (2, 2.5)
    assert totals["cli"] == (0, 0.0)
    assert sum(own for _, own in totals.values()) == 10.0


def test_tracer_restores_the_package():
    run.Runner(WORKLOADS["corpus-bounds"], 1, golden=None)
    generators = sys.modules["c4free.generators"]
    suites = sys.modules["c4free.suites"]
    original = generators.random_c4free
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert suites.random_c4free is not original
        assert generators.random_c4free is suites.random_c4free
        config = suites.SuiteConfig(suite="bounds-general", seed=5, samples=3, max_n=12)
        traced = suites.run_suite(config).to_json()
    finally:
        tracer.remove()
    assert suites.random_c4free is original and generators.random_c4free is original
    assert suites.run_suite(config).to_json() == traced
    layers = {span[0] for span in tracer.spans}
    assert {"suites", "generators", "extraction", "graph.recognition"} <= layers
