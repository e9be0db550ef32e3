from __future__ import annotations

import io
import json
import re
from dataclasses import fields, replace
from fractions import Fraction

import pytest

from c4free import GraphInputError, Report, SuiteConfig, run_suite
from c4free import cli, serialize_graph, suites
from c4free.graph import InvariantViolation
from c4free.suites import OMEGA_CHECKED, SUITE_NAMES, _random_corpus
from helpers import reference_random_corpus
from test_golden_reports import GOLDEN_FAILING

RECORD_KEYS = {
    "id", "generator", "n", "min_degree", "method", "bound", "clique_size", "omega",
    "pass", "witness_summary",
}


# suite: the function of c4free.suites that takes each recorded instance first.
INSTANCE_TAKERS = {
    "cycle-powers": "extract_regular",
    "bounds-general": "extract_general",
    "bounds-triple": "extract_triple",
    "large-alpha": "extract_large_alpha",
    "structure": "alpha2_decompose",
}


def _config(suite, **overrides):
    defaults = dict(suite=suite, seed=42, samples=20, max_n=20)
    defaults.update(overrides)
    return SuiteConfig(**defaults)


class TestRunSuite:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_small_runs_pass(self, suite):
        report = run_suite(_config(suite, samples=10))
        assert report.all_passed()
        assert report.failed == 0
        assert report.passed == len(report.records)

    def test_unknown_suite_rejected(self):
        with pytest.raises(GraphInputError):
            run_suite(_config("no-such-suite"))

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_negative_samples_rejected(self, suite):
        with pytest.raises(GraphInputError):
            run_suite(_config(suite, samples=-1))

    @pytest.mark.parametrize(
        "suite", ["bounds-general", "bounds-triple", "large-alpha", "structure"]
    )
    @pytest.mark.parametrize("overrides", [{"samples": 0}, {"max_n": 4}])
    def test_vacuous_sampled_config_rejected(self, suite, overrides):
        with pytest.raises(GraphInputError):
            run_suite(_config(suite, **overrides))

    def test_cycle_powers_refuses_max_n_below_5_before_running(self, monkeypatch):
        # Refused with the other config checks: the runner is never reached.
        def runner(config, report):
            raise AssertionError("runner reached")

        monkeypatch.setattr(suites, "_run_cycle_powers", runner)
        with pytest.raises(GraphInputError, match=r"^cycle-powers needs max_n >= 5$"):
            run_suite(_config("cycle-powers", max_n=4))

    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_negative_oracle_limit_rejected(self, suite):
        with pytest.raises(GraphInputError, match="oracle_limit must be non-negative"):
            run_suite(_config(suite, samples=1, oracle_limit=-1))

    @pytest.mark.parametrize("limit", [-5, 0, 4])
    @pytest.mark.parametrize("suite", OMEGA_CHECKED)
    def test_omega_suites_need_the_oracle(self, suite, limit):
        # Below n = 5 every record had omega null, so no clique met omega.
        message = f"suite {suite} needs oracle_limit >= 5" if limit >= 0 else "oracle_limit"
        with pytest.raises(GraphInputError, match=message):
            run_suite(_config(suite, oracle_limit=limit))

    def test_structure_runs_without_the_oracle(self):
        # structure only reports omega; its pass never depends on it.
        report = run_suite(_config("structure", samples=4, oracle_limit=4))
        assert [r["omega"] for r in report.records] == [None] * 4
        assert report.all_passed()

    def test_cycle_powers_checks_omega_from_the_smallest_instance(self):
        report = run_suite(_config("cycle-powers", max_n=9, oracle_limit=5))
        assert [r["omega"] for r in report.records] == [2, None]
        assert report.all_passed()

    @pytest.mark.parametrize("samples, max_n", [(0, -1), (4, 3), (3, 0)])
    def test_checker_equiv_refuses_max_n_below_4_before_running(
        self, monkeypatch, samples, max_n
    ):
        # Below 4 vertices no graph holds an induced C4, so every record passes.
        def runner(config, report):
            raise AssertionError("runner reached")

        monkeypatch.setattr(suites, "_run_checker_equiv", runner)
        with pytest.raises(GraphInputError, match=r"^checker-equiv needs max_n >= 4$"):
            run_suite(_config("checker-equiv", samples=samples, max_n=max_n))

    def test_checker_equiv_accepts_zero_samples(self):
        report = run_suite(_config("checker-equiv", samples=0, max_n=4))
        assert report.all_passed()
        assert [r["n"] for r in report.records] == [0, 1, 2, 3, 4]

    def test_cycle_powers_counts_follow_max_n(self):
        report = run_suite(_config("cycle-powers", max_n=25))
        assert len(report.records) == 6
        assert [r["generator"]["k"] for r in report.records] == [1, 2, 3, 4, 5, 6]
        assert all(r["clique_size"] == r["generator"]["k"] + 1 for r in report.records)

    def test_requested_sample_count_is_delivered(self):
        for suite in ("bounds-general", "bounds-triple", "large-alpha", "structure"):
            report = run_suite(_config(suite, samples=15))
            assert len(report.records) == 15

    def test_config_echo_includes_rng(self):
        # Every config field, epsilon as its string, and the stream's name.
        report = run_suite(_config("bounds-general", samples=3))
        assert report.config == {
            "suite": "bounds-general", "seed": 42, "samples": 3, "max_n": 20,
            "oracle_limit": 48, "epsilon": "1/2", "rng": "splitmix64-v1",
        }

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
    def test_out_of_range_seed_refused_when_built(self, seed):
        # 2**64 + 3 would run seed 3's stream and echo its own value.
        message = rf"^seed must be in \[0, 2\*\*64\), got {seed}$"
        with pytest.raises(GraphInputError, match=message):
            SuiteConfig("structure", seed, 2, 9)

    @pytest.mark.parametrize("epsilon", [Fraction(2), 0, 1, Fraction(-1, 2), "2"])
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_epsilon_outside_the_unit_interval_refused_when_built(self, suite, epsilon):
        # Every suite echoes epsilon, so every suite refuses one it cannot use.
        message = rf"^epsilon must be strictly between 0 and 1, got {Fraction(epsilon)}$"
        with pytest.raises(GraphInputError, match=message):
            _config(suite, epsilon=epsilon)

    @pytest.mark.parametrize("epsilon", ["abc", "1/0", None])
    def test_non_rational_epsilon_refused_when_built(self, epsilon):
        message = rf"^epsilon is not a rational number: {re.escape(repr(epsilon))}$"
        with pytest.raises(GraphInputError, match=message):
            SuiteConfig("large-alpha", 1, 3, 12, epsilon=epsilon)

    def test_epsilon_affects_large_alpha_config(self):
        report = run_suite(_config("large-alpha", samples=3, epsilon=Fraction(1, 4)))
        assert report.config["epsilon"] == "1/4"

    def test_equal_epsilons_give_identical_reports(self):
        reports = {
            run_suite(SuiteConfig("large-alpha", 1, 3, 12, epsilon=epsilon)).to_json()
            for epsilon in ("0.5", "1/2", Fraction(1, 2), 0.5)
        }
        assert len(reports) == 1

    def test_float_epsilon_echoes_the_value_that_ran(self, monkeypatch):
        # 0.1 is not 1/10: the echo and every repro name the float's exact value.
        monkeypatch.setattr(suites, "check_certificate", lambda *args: False)
        report = run_suite(SuiteConfig("large-alpha", 1, 3, 12, epsilon=0.1))
        assert report.config["epsilon"] == str(Fraction(0.1)) != "0.1"
        assert len(report.records) == 3 and all(
            f"--epsilon {Fraction(0.1)} -" in record["repro"] for record in report.records
        )

    @pytest.mark.parametrize("samples", [1, 5, 30])
    def test_bounds_triple_draws_no_graph_past_its_last_record(self, monkeypatch, samples):
        # Every graph the corpus builds is recorded or refused by the
        # delta <= 11n/15 filter; none is built after the last record.
        built, real = [], suites.random_c4free

        def spy(*args, **kwargs):
            g = real(*args, **kwargs)
            if g is not None:
                built.append(g)
            return g

        monkeypatch.setattr(suites, "random_c4free", spy)
        report = run_suite(SuiteConfig("bounds-triple", 1, samples, 30))
        eligible = [(g.n, g.min_degree()) for g in built if 15 * g.min_degree() <= 11 * g.n]
        assert eligible == [(r["n"], r["min_degree"]) for r in report.records]
        assert len(eligible) == samples

    def test_fault_becomes_the_last_record(self, monkeypatch):
        # The repro names every option that differs from its default, so it
        # parses back to the config that failed.
        def fault(*args):
            raise InvariantViolation("simulated fault")

        monkeypatch.setattr(suites, "extract_large_alpha", fault)
        config = SuiteConfig("large-alpha", 7, 3, 12, oracle_limit=20, epsilon=Fraction(1, 3))
        repro = (
            "c4free verify --suite large-alpha --seed 7 --samples 3 --max-n 12 "
            "--oracle-limit 20 --epsilon 1/3"
        )
        report = run_suite(config)
        assert report.records == [
            {"id": "large-alpha-fault", "error": "simulated fault", "pass": False, "repro": repro},
        ]
        args = cli._parser().parse_args(repro.split()[1:])
        rerun = SuiteConfig(
            args.suite, args.seed, args.samples, args.max_n, args.oracle_limit, args.epsilon
        )
        assert rerun == config


class TestRandomCorpus:
    @pytest.mark.parametrize("seed", [1, 2, 42, 2**63 + 5])
    @pytest.mark.parametrize("max_n", [5, 12, 30])
    def test_stream_matches_reference(self, seed, max_n):
        # Rejecting on the sample, before repair, must keep every instance.
        config = _config("bounds-general", seed=seed, samples=40, max_n=max_n)
        assert list(_random_corpus(config)) == list(reference_random_corpus(config))


class TestReportDeterminism:
    @pytest.mark.parametrize("suite", SUITE_NAMES)
    def test_same_seed_same_bytes(self, suite):
        a = run_suite(_config(suite, samples=8)).to_json()
        b = run_suite(_config(suite, samples=8)).to_json()
        assert a == b

    def test_different_seed_different_instances(self):
        a = run_suite(_config("bounds-general", samples=8, seed=1)).to_json()
        b = run_suite(_config("bounds-general", samples=8, seed=2)).to_json()
        assert a != b

    def test_json_is_valid_and_counts_match(self):
        report = run_suite(_config("bounds-general", samples=8))
        payload = json.loads(report.to_json())
        assert payload["passed"] + payload["failed"] == len(payload["records"])
        assert payload["format_version"] == 1
        assert payload["tool_version"]


class TestFailureRecords:
    def test_failing_record_requires_repro(self):
        report = Report(suite="x", config={})
        with pytest.raises(AssertionError):
            report.add({"id": "r0", "pass": False})
        report.add({"id": "r1", "pass": False, "repro": "c4free --version"})
        assert report.failed == 1

    # Every suite at samples 1 and max-n 5, the least a sampled suite accepts,
    # and the failing structure report of the golden tests.
    @pytest.mark.parametrize("suite, failing", [
        *((suite, False) for suite in SUITE_NAMES), ("structure", True),
    ])
    def test_record_keys(self, suite, failing, monkeypatch):
        config = SuiteConfig(suite=suite, seed=1, samples=1, max_n=5)
        if failing:
            name, result, samples, max_n, _ = GOLDEN_FAILING[suite]
            monkeypatch.setattr(suites, name, lambda *args: result)
            config = SuiteConfig(suite=suite, seed=1, samples=samples, max_n=max_n)
        records = run_suite(config).records
        assert records and all(record["pass"] != failing for record in records)
        for record in records:
            assert set(record) - {"repro"} == RECORD_KEYS
            assert ("repro" in record) == (not record["pass"])

    @pytest.mark.parametrize("options", [{}, {"oracle_limit": 5, "epsilon": Fraction(1, 3)}])
    @pytest.mark.parametrize("suite", sorted(GOLDEN_FAILING))
    def test_every_repro_is_a_command_that_rebuilds_its_record(
        self, capsys, monkeypatch, suite, options
    ):
        # A verify repro parses back to the config that made its record and
        # runs; a pipeline repro regenerates the record's instance and the
        # command it feeds accepts it.
        name, result, samples, max_n, _ = GOLDEN_FAILING[suite]
        monkeypatch.setattr(suites, name, lambda *args: result)
        instances = []
        if suite in INSTANCE_TAKERS:
            real = getattr(suites, INSTANCE_TAKERS[suite])

            def spy(g, *args):
                instances.append(g)
                return real(g, *args)

            monkeypatch.setattr(suites, INSTANCE_TAKERS[suite], spy)
        config = SuiteConfig(suite, 1, samples, max_n, **options)
        records = run_suite(config).records
        assert records and not any(record["pass"] for record in records)
        assert len(instances) in (0, len(records))
        reruns = set()
        for idx, record in enumerate(records):
            if record["repro"].startswith("c4free verify "):
                argv = record["repro"].split()[1:]
                args = cli._parser().parse_args(argv)
                rerun = SuiteConfig(**{f.name: getattr(args, f.name) for f in fields(SuiteConfig)})
                if record["id"].startswith("checker-equiv-exhaustive-"):
                    assert rerun == replace(config, samples=0, max_n=max(record["n"], 4))
                else:
                    assert rerun == config
                reruns.add(tuple(argv))
                continue
            gen, command = record["repro"].split(" | ")
            assert cli.main(gen.split()[1:]) == 0
            text = capsys.readouterr().out
            assert text == serialize_graph(instances[idx])
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert cli.main(command.split()[1:]) in (0, 1)
            capsys.readouterr()
        for argv in reruns:
            assert cli.main(list(argv)) in (0, 1), argv
            capsys.readouterr()
