from __future__ import annotations

import contextlib
import inspect
import io
import json
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4free import build_graph, cycle_power, parse_graph, serialize_graph
from c4free import cli, suites
from c4free.cli import main
from c4free.graph import InvariantViolation
from c4free.structure import HypothesisViolation
from c4free.suites import SUITE_NAMES
from helpers import complete, cycle, edges, path, relabelled_w5_blowup


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_cycle_power_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "cycle-power", "--k", "1")
        assert code == 0
        assert parse_graph(out) == cycle(5)

    def test_w5_to_file(self, capsys, tmp_path):
        target = tmp_path / "g.txt"
        code, _, _ = run_cli(capsys, "gen", "w5", "--sizes", "0,1,1,1,1,1", "-o", str(target))
        assert code == 0
        assert parse_graph(target.read_text()) == cycle(5)

    def test_substitute(self, capsys, tmp_path):
        base = tmp_path / "base.txt"
        base.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code, out, _ = run_cli(
            capsys, "gen", "substitute", "--base", str(base), "--sizes", "2,1,1,1,1"
        )
        assert code == 0
        assert parse_graph(out).n == 6

    def test_random_deterministic(self, capsys):
        args = ("gen", "random", "--n", "12", "--p", "1/3", "--seed", "7")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
    def test_random_seed_range_ends(self, capsys, seed):
        code, out, _ = run_cli(capsys, "gen", "random", "--n", "6", "--p", "1/2", "--seed", seed)
        assert code == 0 and parse_graph(out).n == 6

    @pytest.mark.parametrize("seed", ["-1", str(2**64), str(-(2**64))])
    def test_out_of_range_seed_is_usage_error(self, capsys, seed):
        code, out, err = run_cli(capsys, "gen", "random", "--n", "6", "--p", "1/2", "--seed", seed)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "--seed" in err

    def test_bad_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "cycle-power", "--k", "0")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv, generator",
        [
            (["cycle-power", "--k", "1024"], "cycle_power"),
            (["w5", "--sizes", "3997,20,20,20,20,20"], "w5_blowup"),
            (["substitute", "--base", "BASE", "--sizes", "4000,97"], "clique_substitution"),
            (["random", "--n", "4097", "--p", "1/2", "--seed", "1"], "random_c4free"),
        ],
    )
    def test_size_cap_checked_before_building(
        self, capsys, monkeypatch, tmp_path, argv, generator
    ):
        def refuse(*args):
            raise AssertionError("graph built despite the vertex limit")

        base = tmp_path / "base.txt"
        base.write_text("2 1\n0 1\n")
        monkeypatch.setattr(f"c4free.cli.{generator}", refuse)
        argv = [str(base) if arg == "BASE" else arg for arg in argv]
        code, out, err = run_cli(capsys, "gen", *argv)
        assert code == 2
        assert out == "" and err == "error: n=4097 exceeds the vertex limit 4096\n"

    def test_unwritable_output_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "g.txt"
        code, out, err = run_cli(capsys, "gen", "cycle-power", "--k", "2", "-o", str(target))
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestCheck:
    def test_c4free_graph(self, capsys, tmp_path):
        f = tmp_path / "c5.txt"
        f.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code, out, _ = run_cli(capsys, "check", "c4free", str(f))
        assert code == 0
        assert out.strip() == "c4-free"

    def test_c4_witness(self, capsys, tmp_path):
        f = tmp_path / "c4.txt"
        f.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run_cli(capsys, "check", "c4free", str(f))
        assert code == 1
        assert out.startswith("induced-c4:")

    def test_witness_line_is_pinned(self, capsys, tmp_path):
        # A relabelled sharp graph with its first edge removed; the line shows
        # the scan's first witness, so it pins the scan order.
        g = cycle_power(10)
        perm = list(range(g.n))
        random.Random(1).shuffle(perm)
        moved = [(perm[u], perm[v]) for u, v in edges(g)]
        f = tmp_path / "g.txt"
        f.write_text(serialize_graph(build_graph(g.n, moved[1:])))
        code, out, err = run_cli(capsys, "check", "c4free", str(f))
        assert (code, out, err) == (1, "induced-c4: 1 2 24 32\n", "")

    def test_parse_error_exit_code(self, capsys, tmp_path):
        f = tmp_path / "bad.txt"
        f.write_text("3 1\n0 9\n")
        code, _, err = run_cli(capsys, "check", "c4free", str(f))
        assert code == 2
        assert "line 2" in err

    def test_missing_file_is_usage_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "check", "c4free", str(tmp_path / "missing.txt"))
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "missing.txt" in err

    def test_non_utf8_file_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"\xff\xfe 1 0\n")
        code, out, err = run_cli(capsys, "check", "c4free", str(f))
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "latin1.txt" in err

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["gen", "substitute", "--base", "FILE", "--sizes", "1,1"], "latin1.txt"),
            (["check", "c4free", "-"], "<stdin>"),
        ],
    )
    def test_non_utf8_error_names_the_input(self, capsys, monkeypatch, tmp_path, argv, name):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"\xff\xfe 1 0\n")
        stdin = io.TextIOWrapper(io.BytesIO(f.read_bytes()), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code, out, err = run_cli(capsys, *[str(f) if arg == "FILE" else arg for arg in argv])
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert name in err


class TestClique:
    def test_exact(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code, out, _ = run_cli(capsys, "clique", "exact", str(f))
        assert code == 0
        payload = json.loads(out)
        assert payload == {"clique": [0, 1], "size": 2}

    def test_exact_respects_oracle_limit(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code, _, err = run_cli(capsys, "clique", "exact", str(f), "--oracle-limit", "4")
        assert code == 2
        assert "oracle limit" in err

    def test_deep_clique_under_a_low_recursion_limit(self, capsys, tmp_path):
        # The branch and bound keeps its own stack, so a search one level
        # deeper per clique vertex answers even when Python's recursion
        # limit sits just above the current depth.
        f = tmp_path / "k60.txt"
        f.write_text(serialize_graph(complete(60)))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            code = main(["clique", "exact", "--oracle-limit", "100", str(f)])
        finally:
            sys.setrecursionlimit(old_limit)
        assert code == 0
        assert json.loads(capsys.readouterr().out) == {"clique": list(range(60)), "size": 60}

    def test_extract_auto_picks_regular(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        main(["gen", "cycle-power", "--k", "2", "-o", str(f)])
        code, out, _ = run_cli(capsys, "clique", "extract", str(f))
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "regular"
        assert payload["size"] == 3
        assert payload["verified"]

    def test_extract_auto_falls_back_to_general(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4 3\n0 1\n1 2\n2 3\n")
        code, out, _ = run_cli(capsys, "clique", "extract", str(f))
        assert code == 0
        assert json.loads(out)["method"] == "general"

    @pytest.mark.parametrize(
        "g",
        [path(5), complete(5), cycle(9), cycle(6), complete(4), cycle(3), complete(1)],
        ids=["n5-irregular", "n5-4regular", "n9-2regular", "c6", "k4", "k3", "k1"],
    )
    def test_extract_auto_near_misses_pick_general(self, capsys, tmp_path, g):
        # n = 4k+1 but not 2k-regular, regular but n != 4k+1, and n < 5.
        f = tmp_path / "g.txt"
        f.write_text(serialize_graph(g))
        code, auto, _ = run_cli(capsys, "clique", "extract", str(f))
        assert code == 0
        assert json.loads(auto)["method"] == "general"
        assert run_cli(capsys, "clique", "extract", "--method", "general", str(f)) == (0, auto, "")

    def test_extract_large_alpha_with_set(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code, out, _ = run_cli(
            capsys,
            "clique", "extract", str(f),
            "--method", "large-alpha",
            "--epsilon", "1/4",
            "--independent-set", "0,2",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "large-alpha"
        assert payload["witness"]["epsilon"] == "1/4"

    @pytest.mark.parametrize(
        "method", [(), ("--method", "auto"), ("--method", "regular"), ("--method", "general"),
                   ("--method", "triple")],
    )
    def test_independent_set_outside_large_alpha_is_usage_error(self, capsys, tmp_path, method):
        # Refused rather than ignored, before any vertex of the set is read.
        f = tmp_path / "p5.txt"
        f.write_text("5 4\n0 1\n1 2\n2 3\n3 4\n")
        argv = ("clique", "extract", str(f), *method, "--independent-set", "0,99")
        assert run_cli(capsys, *argv) == (
            2, "", "error: --independent-set applies to the large-alpha method only\n"
        )

    @pytest.mark.parametrize(
        "method", [(), ("--method", "auto"), ("--method", "regular"), ("--method", "general"),
                   ("--method", "triple")],
    )
    def test_epsilon_outside_large_alpha_is_usage_error(self, capsys, tmp_path, method):
        # Refused rather than ignored: no certificate here depends on epsilon.
        f = tmp_path / "c5.txt"
        f.write_text(serialize_graph(cycle(5)))
        argv = ("clique", "extract", str(f), *method, "--epsilon", "1/3")
        assert run_cli(capsys, *argv) == (
            2, "", "error: --epsilon applies to the large-alpha method only\n"
        )

    def test_large_alpha_still_checks_epsilon(self, capsys, tmp_path):
        f = tmp_path / "c5.txt"
        f.write_text(serialize_graph(cycle(5)))
        argv = ("clique", "extract", str(f), "--method", "large-alpha", "--epsilon", "0")
        assert run_cli(capsys, *argv) == (
            2, "", "error: epsilon must be strictly between 0 and 1, got 0\n"
        )

    @pytest.mark.parametrize("method", [("--method", "large-alpha"), ("--dirac",)])
    def test_epsilon_defaults_to_one_half(self, capsys, tmp_path, method):
        f = tmp_path / "c5.txt"
        f.write_text(serialize_graph(cycle(5)))
        code, out, _ = run_cli(capsys, "clique", "extract", str(f), *method)
        assert code == 0 and json.loads(out)["witness"]["epsilon"] == "1/2"

    def test_auto_on_a_regular_graph_refuses_independent_set(self, capsys, tmp_path):
        f = tmp_path / "cp.txt"
        f.write_text(serialize_graph(cycle_power(2)))
        code, out, err = run_cli(capsys, "clique", "extract", str(f), "--independent-set", "0,3")
        assert (code, out) == (2, "")
        assert err == "error: --independent-set applies to the large-alpha method only\n"

    def test_dirac_takes_independent_set(self, capsys, tmp_path):
        f = tmp_path / "c5.txt"
        f.write_text(serialize_graph(cycle(5)))
        code, out, _ = run_cli(
            capsys, "clique", "extract", str(f), "--dirac", "--independent-set", "0,2"
        )
        assert code == 0
        assert json.loads(out)["witness"]["independent_set"] == [0, 2]

    @pytest.mark.parametrize("eps", ["1e-9999", "9e9999", "-1e-1001", "1/" + "7" * 1001])
    @pytest.mark.parametrize("method", [("--method", "large-alpha"), ("--dirac",)])
    def test_epsilon_too_long_to_print_is_usage_error(self, capsys, tmp_path, eps, method):
        # The certificate prints epsilon, past Python's 4300-digit str() limit.
        f = tmp_path / "g.txt"
        f.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code, out, err = run_cli(capsys, "clique", "extract", str(f), *method, "--epsilon=" + eps)
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "--epsilon" in err

    def test_epsilon_of_1000_digits_runs(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        code, out, _ = run_cli(
            capsys, "clique", "extract", str(f), "--dirac", "--epsilon", "1e-999"
        )
        assert code == 0
        witness = json.loads(out)["witness"]
        assert witness["epsilon"] == "1/1" + "0" * 999
        assert witness["dirac_threshold"] == "3" + "0" * 998 + "1"

    def test_extract_not_c4free_is_input_error(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        code, _, err = run_cli(capsys, "clique", "extract", str(f), "--method", "general")
        assert code == 2
        assert "4-cycle" in err

    def test_stdin_pipeline(self, capsys, monkeypatch, tmp_path):
        f = tmp_path / "g.txt"
        main(["gen", "random", "--n", "10", "--p", "2/5", "--seed", "3", "-o", str(f)])
        monkeypatch.setattr("sys.stdin", io.StringIO(f.read_text()))
        code, out, _ = run_cli(capsys, "clique", "extract", "--method", "general", "-")
        assert code == 0
        assert json.loads(out)["verified"]


class TestStructure:
    def test_p4_certificate(self, capsys, tmp_path):
        # The whole stdout: the parts, and no hub or cycle_groups key.
        f = tmp_path / "p4.txt"
        f.write_text("4 3\n0 1\n1 2\n2 3\n")
        TestAlpha2Bytes.assert_stdout(capsys, ("structure", str(f)), {
            "format_version": 1,
            "kind": "complement-bipartite",
            "parts": [[0, 1], [2, 3]],
        })

    def test_alpha_above_two(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        main(["gen", "cycle-power", "--k", "2", "-o", str(f)])
        code, out, err = run_cli(capsys, "structure", str(f))
        assert code == 1
        assert out.strip() == "alpha>2"
        assert "witness" in err


class TestAlpha2Bytes:
    """Exact stdout of the alpha <= 2 commands on a relabelled W5 blow-up.

    The expected payloads were taken before the odd-cycle search and the
    clique oracle became bit-parallel; the CLI prints each one as
    ``json.dumps(payload, sort_keys=True, indent=2)`` and a newline.
    """

    CLIQUE = [3, 5, 6, 7, 8, 10, 11, 12, 13, 14, 17]

    @pytest.fixture
    def w5_file(self, tmp_path):
        f = tmp_path / "w5.txt"
        f.write_text(serialize_graph(relabelled_w5_blowup((3, 4, 2, 3, 5, 2), 1)))
        return str(f)

    @staticmethod
    def assert_stdout(capsys, argv, payload):
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def test_structure(self, capsys, w5_file):
        self.assert_stdout(capsys, ("structure", w5_file), {
            "cycle_groups": [[0, 9, 16, 18], [1, 15], [6, 10, 13], [3, 7, 8, 12, 14], [2, 4]],
            "format_version": 1,
            "hub": [5, 11, 17],
            "kind": "w5-substitution",
        })

    def test_extract_triple(self, capsys, w5_file):
        self.assert_stdout(capsys, ("clique", "extract", "--method", "triple", w5_file), {
            "clique": self.CLIQUE,
            "format_version": 1,
            "graph": {"edge_count": 119, "n": 19},
            "guaranteed_bound": "11/3",
            "kind": "clique-certificate",
            "method": "structure",
            "precondition_met": True,
            "size": 11,
            "verified": True,
            "witness": {
                "min_degree": 10,
                "route": "structure",
                "structure_kind": "w5-substitution",
                "two_fifths": 8,
            },
        })

    def test_exact(self, capsys, w5_file):
        self.assert_stdout(
            capsys, ("clique", "exact", w5_file), {"clique": self.CLIQUE, "size": 11}
        )


def _outcome(argv):
    """Exit code, stdout and stderr of one main() call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestParserReuse:
    def test_kept_parser_answers_as_a_fresh_one(self, monkeypatch, tmp_path):
        # One process builds one parser; every call after the first reuses it,
        # an argparse refusal and --version included, and must print and exit
        # as a parser built for that call would.
        c5 = tmp_path / "c5.txt"
        c5.write_text("5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n")
        f = str(c5)
        c4 = tmp_path / "c4.txt"
        c4.write_text("4 4\n0 1\n1 2\n2 3\n0 3\n")
        verify = ["verify", "--suite", "cycle-powers", "--samples", "1", "--max-n", "9"]
        argvs = [
            ["frobnicate"],
            ["--version"],
            ["gen", "cycle-power", "--k", "2"],
            ["gen", "cycle-power", "--k", "2", "-o", "-"],
            ["gen", "w5", "--sizes", "1,1,0,1,1,1"],
            ["gen", "w5", "--sizes", "1,1,0,1,1,1", "-o", "-"],
            ["gen", "substitute", "--base", f, "--sizes", "2,1,1,1,1"],
            ["gen", "substitute", "--base", f, "--sizes", "2,1,1,1,1", "-o", "-"],
            ["gen", "random", "--n", "9", "--p", "1/2", "--seed", "3"],
            ["gen", "random", "--n", "9", "--p", "1/2", "--seed", "3", "-o", "-"],
            ["gen", "random", "--n", "x", "--p", "1/2", "--seed", "3"],
            ["check", "c4free", f],
            ["check", "c4free", str(c4)],
            ["clique", "exact", f],
            ["clique", "exact", f, "--oracle-limit", "4"],
            ["clique", "extract", f],
            ["clique", "extract", f, "--method", "general", "--epsilon", "1/3",
             "--exact-alpha", "--oracle-limit", "48"],
            ["clique", "extract", f, "--method", "large-alpha", "--independent-set", "0,2"],
            ["clique", "extract", f, "--dirac"],
            ["structure", f],
            verify,
            verify + ["--seed", "2", "--oracle-limit", "48", "--epsilon", "1/3", "--json", "-"],
        ]
        cli._parser.cache_clear()
        kept = [_outcome(argv) for argv in argvs]
        assert cli._parser.cache_info().misses == 1
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [_outcome(argv) for argv in argvs]
        assert kept == fresh
        assert kept[0][0] == 2 and "invalid choice: 'frobnicate'" in kept[0][2]
        assert kept[1] == (0, f"c4free {cli.__version__}\n", "")
        assert sorted({code for code, _, _ in kept}) == [0, 1, 2]

    def test_build_parser_stays_a_plain_function(self):
        # Span tracing wraps the public functions of each layer it finds
        # with inspect.isfunction.
        assert inspect.isfunction(cli.build_parser)


class TestVerify:
    def test_passing_suite(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "cycle-powers",
            "--seed", "1", "--samples", "1", "--max-n", "25",
            "--json", str(out_json),
        )
        assert code == 0
        assert "6/6 pass" in out
        payload = json.loads(out_json.read_text())
        assert payload["failed"] == 0

    @pytest.mark.parametrize("failing", [False, True])
    def test_json_to_stdout_is_the_whole_stdout(self, capsys, monkeypatch, failing):
        if failing:
            monkeypatch.setattr("c4free.suites.check_certificate", lambda *args: False)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "cycle-powers", "--max-n", "9", "--json", "-"
        )
        report = json.loads(out)
        assert (code, report["failed"]) == ((1, 2) if failing else (0, 0))
        failures = [f"FAIL {r['id']}: repro: {r['repro']}" for r in report["records"]
                    if not r["pass"]]
        assert err.splitlines() == [f"cycle-powers: {report['passed']}/2 pass", *failures]

    def test_json_report_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        for f in (f1, f2):
            code, _, _ = run_cli(
                capsys,
                "verify", "--suite", "bounds-general",
                "--seed", "5", "--samples", "10", "--max-n", "20",
                "--json", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--suite", "bounds-general", "--samples", "0"],
        ["--suite", "bounds-general", "--max-n", "3"],
        ["--suite", "checker-equiv", "--samples", "0", "--max-n", "-1"],
        ["--suite", "checker-equiv", "--max-n", "3"],
        ["--suite", "checker-equiv", "--samples", "3", "--max-n", "0"],
    ])
    def test_vacuous_config_usage_error(self, capsys, flags):
        code, out, err = run_cli(capsys, "verify", *flags)
        assert code == 2
        assert out == "" and err.count("\n") == 1
        assert err.startswith("error: ") and "max_n" in err

    @pytest.mark.parametrize("suite, limit", [
        ("cycle-powers", "0"), ("cycle-powers", "-5"), ("bounds-general", "-1"),
        ("cycle-powers", "4"), ("bounds-general", "4"), ("bounds-triple", "4"),
        ("large-alpha", "4"),
    ])
    def test_low_oracle_limit_usage_error(self, capsys, suite, limit):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--oracle-limit", limit)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "oracle_limit" in err

    def test_unwritable_json_is_usage_error(self, capsys, tmp_path):
        target = tmp_path / "no-such-dir" / "report.json"
        code, out, err = run_cli(
            capsys,
            "verify", "--suite", "cycle-powers", "--samples", "1", "--max-n", "9",
            "--json", str(target),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_json_replaces_an_existing_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("x" * 100_000)
        args = ("verify", "--suite", "cycle-powers", "--samples", "1", "--json", str(target))
        assert run_cli(capsys, *args, "--max-n", "3")[0] == 2
        assert target.read_text() == "x" * 100_000
        assert run_cli(capsys, *args, "--max-n", "9")[0] == 0
        assert json.loads(target.read_text())["passed"] == 2

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_out_of_range_seed_is_usage_error(self, capsys, seed):
        # -1 and 2**64 - 1 would otherwise run the same stream.
        code, out, err = run_cli(
            capsys, "verify", "--suite", "checker-equiv", "--samples", "2", "--max-n", "5",
            "--seed", seed,
        )
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "--seed" in err

    def test_largest_seed_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "checker-equiv", "--samples", "2", "--max-n", "5",
            "--seed", str(2**64 - 1),
        )
        assert code == 0 and out.startswith("checker-equiv: ")

    @pytest.mark.parametrize("name, fault, call, suite, samples", [
        ("extract_general", InvariantViolation, 3, "bounds-general", "5"),
        ("alpha2_decompose", HypothesisViolation, 4, "structure", "6"),
    ])
    def test_fault_in_a_suite_ends_the_written_report(
        self, capsys, monkeypatch, tmp_path, name, fault, call, suite, samples
    ):
        # The records made before the fault are kept, and the fault becomes a
        # failing record whose repro reruns the suite.
        real, calls = getattr(suites, name), []

        def faulty(*args, **kwargs):
            calls.append(args)
            if len(calls) == call:
                raise fault("simulated fault")
            return real(*args, **kwargs)

        monkeypatch.setattr(suites, name, faulty)
        target = tmp_path / "report.json"
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--samples", samples, "--max-n", "12",
            "--json", str(target),
        )
        repro = f"c4free verify --suite {suite} --seed 1 --samples {samples} --max-n 12"
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            f"{suite}: {call - 1}/{call} pass", f"FAIL {suite}-fault: repro: {repro}",
        ]
        report = json.loads(target.read_text())
        assert [record["pass"] for record in report["records"]] == [True] * (call - 1) + [False]
        assert report["records"][-1] == {
            "id": f"{suite}-fault", "error": "simulated fault", "pass": False, "repro": repro,
        }

    def test_epsilon_too_long_to_print_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "bounds-general", "--samples", "1", "--epsilon", "1e-9999"
        )
        assert code == 2
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "--epsilon" in err

    def test_max_n_above_the_vertex_limit_is_usage_error(self, capsys):
        # Refused before the suite runs; --max-n 4096 is not run, as it is slow.
        code, out, err = run_cli(
            capsys, "verify", "--suite", "bounds-general", "--samples", "1", "--max-n", "4097"
        )
        assert code == 2
        assert out == "" and err == "error: --max-n must be at most 4096, got 4097\n"

    def test_unknown_suite_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
        assert code == 2
        assert "unknown suite" in err

    @pytest.mark.parametrize("flags, message", [
        (["--suite", "bogus"], "unknown suite 'bogus'"),
        (["--suite", "bounds-general", "--samples", "0"], "needs samples >= 1"),
        (["--suite", "cycle-powers", "--epsilon", "2"],
         "epsilon must be strictly between 0 and 1, got 2"),
        (["--suite", "large-alpha", "--samples", "1", "--epsilon", "2"],
         "epsilon must be strictly between 0 and 1, got 2"),
        (["--suite", "checker-equiv", "--seed", str(2**64)], "--seed must be in [0, 2**64)"),
    ])
    def test_refused_config_creates_no_report(self, capsys, tmp_path, flags, message):
        # Refused before the report file is opened, so no empty file is left.
        target = tmp_path / "new.json"
        code, out, err = run_cli(capsys, "verify", *flags, "--json", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not target.exists()


# (valid values, boundary values) for the property test below. Every graph
# stays at n <= 6 and every suite at two samples, so one run takes
# milliseconds.
RATIONALS = (["1/2", "1/3", "9/10", "0.25"],
             ["0", "-1", "1", "1/0", "nan", "inf", "1e-9999", "1e-4000000", "9" * 5000,
              "1/" + "7" * 1001, "1e-999", ""])
SEEDS = (["0", "1", str(2**64 - 1)], ["-1", str(2**64), "9" * 5000, "x"])
SIZE_LISTS = (["0,1,1,1,1,1", "2,1,1,1,1,1", "0,2", "1"],
              ["", "0", "-1", "1,1", "-1,1,1,1,1,1", "1,2,3", "9" * 30 + ",1,1,1,1,1"])
INPUTS = {
    "empty": "", "n0": "0 0\n", "n1": "1 0\n", "c4": "4 4\n0 1\n1 2\n2 3\n0 3\n",
    "c5": "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n", "k3": "3 3\n0 1\n0 2\n1 2\n",
    "p3": "3 2\n0 1\n0 2\n", "duplicate": "3 2\n0 1\n1 0\n", "range": "3 1\n0 5\n",
    "garbage": "2 1\n0 1\nx\n", "latin1": b"\xff\xfe 1 0\n", "missing": None,
}


@pytest.fixture(scope="module")
def input_files(tmp_path_factory):
    """Paths of the INPUTS (None: left missing) and of their folder."""
    folder = tmp_path_factory.mktemp("inputs")
    for name, text in INPUTS.items():
        if isinstance(text, bytes):
            (folder / name).write_bytes(text)
        elif text is not None:
            (folder / name).write_text(text)
    return {"directory": str(folder), **{name: str(folder / name) for name in INPUTS}}


@st.composite
def _either(draw, values):
    """A boundary value one time in four, else a valid one."""
    good, bad = values
    return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good))


@st.composite
def cli_argvs(draw, files):
    command = draw(st.sampled_from([
        "gen random", "gen w5", "gen cycle-power", "gen substitute", "check c4free",
        "clique exact", "clique extract", "structure", "verify",
    ]))
    argv = command.split()
    graph_file = files[draw(st.sampled_from(sorted(files)))]
    if command in ("check c4free", "clique exact", "structure"):
        argv.append(graph_file)
        if command == "clique exact" and draw(st.booleans()):
            argv += ["--oracle-limit", draw(_either((["5", "48"], ["-1", "0"])))]
    elif command == "gen cycle-power":
        argv += ["--k", draw(_either((["1", "2"], ["0", "-1", str(10**14)])))]
    elif command == "gen substitute":
        argv += ["--base", graph_file]
        argv += ["--sizes", draw(_either((["1", "1,2,0", "2,1,1,1,1", "1,0,2,1,1"],
                                          SIZE_LISTS[1])))]
    elif command == "gen random":
        argv += ["--n", draw(_either((["0", "1", "3", "6"], ["-1"])))]
        argv += ["--p", draw(_either(RATIONALS))]
        argv += ["--seed", draw(_either(SEEDS))]
    elif command == "gen w5":
        argv += ["--sizes", draw(_either(SIZE_LISTS))]
    elif command == "clique extract":
        argv.append(graph_file)
        method = ["auto", "regular", "general", "triple", "large-alpha"]
        argv += ["--method", draw(st.sampled_from(method))]
        if draw(st.booleans()):
            argv += ["--epsilon", draw(_either(RATIONALS))]
        if draw(st.booleans()):
            argv += ["--independent-set", draw(_either(SIZE_LISTS))]
        argv += sorted(draw(st.sets(st.sampled_from(["--dirac", "--exact-alpha"]))))
        if draw(st.booleans()):
            argv += ["--oracle-limit", draw(_either((["5", "48"], ["-1", "0"])))]
    else:
        argv += ["--suite", draw(_either((list(SUITE_NAMES), ["bogus"])))]
        argv += ["--seed", draw(_either(SEEDS))]
        argv += ["--samples", draw(_either((["0", "1", "2"], ["-1"])))]
        argv += ["--max-n", draw(_either((["4", "6"], ["-1", "0"])))]
        argv += ["--epsilon", draw(_either(RATIONALS))]
        if draw(st.booleans()):
            folder = files["directory"]
            argv += ["--json", draw(st.sampled_from(
                ["-", f"{folder}/report.json", folder, f"{files['missing']}/report.json"]
            ))]
    return argv


class TestAnyArguments:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_exit_code_and_no_traceback(self, input_files, data):
        argv = data.draw(cli_argvs(input_files))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusals
                code = exc.code
                assert code == 2
                return
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1
