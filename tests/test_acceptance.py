"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance is exact (integer or rational comparison).
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

from c4free import (
    SuiteConfig,
    build_graph,
    common_neighbors,
    cycle_power,
    degree_square_census,
    extract_large_alpha,
    extract_regular,
    find_independent_set_of_size,
    greedy_maximal_independent_set,
    is_clique,
    run_suite,
)
from c4free.cli import main
from c4free.suites import _random_corpus


def _verdict(num: int, desc: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] acceptance {num}: {desc}")
    assert not failures, f"acceptance {num}: " + "; ".join(failures[:5])


def test_acceptance_1_sharp_family_through_cli(capsys):
    failures = []
    for k in range(1, 7):
        code = main(["gen", "cycle-power", "--k", str(k), "-o", "/tmp/accept1.txt"])
        if code != 0:
            failures.append(f"k={k}: gen exited {code}")
            continue
        code = main(["clique", "extract", "--method", "regular", "/tmp/accept1.txt"])
        out = capsys.readouterr().out
        cert = json.loads(out)
        if code != 0 or not cert["verified"] or cert["size"] != k + 1:
            failures.append(f"k={k}: extract gave size {cert.get('size')}")
        code = main(["clique", "exact", "/tmp/accept1.txt"])
        out = capsys.readouterr().out
        if code != 0 or json.loads(out)["size"] != k + 1:
            failures.append(f"k={k}: oracle disagrees with k+1")
    with capsys.disabled():
        _verdict(1, "regular extractor finds exactly k+1 on the sharp family, k=1..6",
                 failures)


def test_acceptance_2_regular_extractor_internals():
    failures = []
    checked = 0
    for k in range(1, 7):
        g = cycle_power(k)
        if find_independent_set_of_size(g, 3) is None:
            continue  # the criterion covers instances with an independent triple
        checked += 1
        cert = extract_regular(g)
        w = cert.witness
        if w["route"] != "dominating-pair":
            failures.append(f"k={k}: unexpected route {w['route']}")
            continue
        u, wv, x = w["u"], w["w"], w["x"]
        x_set = common_neighbors(g, u, wv)
        if len(x_set) != 1 or x_set != (x,):
            failures.append(f"k={k}: |X| != 1")
        if g.degree(u) + g.degree(wv) - len(x_set) != 4 * k - 1:
            failures.append(f"k={k}: degree count is not 4k-1")
        for name in ("U1", "W1"):
            if not is_clique(g, w[name]):
                failures.append(f"k={k}: {name} is not a clique")
        cover_u = set(w["U1"]) | {u, x}
        cover_w = set(w["W1"]) | {wv, x}
        outside = set(range(g.n)) - set(w["U2"]) - set(w["W2"])
        if cover_u & cover_w != {x}:
            failures.append(f"k={k}: cover cliques do not meet exactly in x")
        if cover_u | cover_w != outside or len(outside) != 2 * k + 1:
            failures.append(f"k={k}: |V - (U2+W2)| != 2k+1")
    if checked == 0:
        failures.append("no instance with an independent triple was exercised")
    _verdict(2, "pair-route internals: |X|=1, U1/W1 cliques, covers meet in x, "
                "|V-(U2+W2)|=2k+1", failures)


def test_acceptance_3_general_bound_over_corpus():
    report = run_suite(
        SuiteConfig(suite="bounds-general", seed=20260809, samples=500, max_n=40)
    )
    failures = [r["id"] for r in report.records if not r["pass"]]
    if len(report.records) < 500:
        failures.append(f"only {len(report.records)} instances")
    if any(r["min_degree"] < 1 for r in report.records):
        failures.append("corpus contained a graph with an isolated vertex")
    if any(r["omega"] is None for r in report.records):
        failures.append("an instance escaped the exact oracle")
    _verdict(3, "clique size >= ceil(d^2/(2n+d)) and <= omega on 500 random "
                "C4-free graphs", failures)


def test_acceptance_4_triple_bound_over_corpus():
    report = run_suite(
        SuiteConfig(suite="bounds-triple", seed=20260809, samples=500, max_n=40)
    )
    failures = [r["id"] for r in report.records if not r["pass"]]
    if len(report.records) < 500:
        failures.append(f"only {len(report.records)} instances")
    routes = {r["method"] for r in report.records}
    if "triple" not in routes:
        failures.append("no instance took the triple route")
    _verdict(4, "clique size > d - n/3 on the triple route and >= ceil(2n/5) on "
                "the structure route", failures)


def test_acceptance_5_large_alpha_identities_and_conditional_bound():
    failures = []
    config = SuiteConfig(
        suite="large-alpha", seed=20260809, samples=500, max_n=40
    )
    report = run_suite(config)
    failures += [r["id"] for r in report.records if not r["pass"]]
    for r in report.records:
        summary = r["witness_summary"]
        if not summary["identity"] or not summary["cauchy_schwarz"]:
            failures.append(f"{r['id']}: census check failed")

    # Direct re-check of the identity on the same instances, independent
    # of the suite plumbing.
    for idx, (_, g) in enumerate(_random_corpus(config)):
        if idx >= 100:
            break
        s = greedy_maximal_independent_set(g)
        census = degree_square_census(g, s)
        if census["sum_deg_sq"] != census["sum_sizes"] + census["sum_pairwise"]:
            failures.append(f"identity violated on corpus instance {idx}")
        if Fraction(census["sum_deg_sq"]) < census["cs_floor"]:
            failures.append(f"square sum under t^2 d^2 / n on instance {idx}")

    # The random corpus is not expected to satisfy the hypothesis
    # t >= (n^2-d^2)/(eps d^2)+1; a complete graph minus one edge does,
    # so the conditional clause is also exercised non-vacuously.
    met = 0
    for n in (8, 10, 14, 20):
        edges = [p for p in itertools.combinations(range(n), 2) if p != (0, 1)]
        g = build_graph(n, edges)
        eps = Fraction(4 * n - 4, (n - 2) ** 2) + Fraction(1, 100)
        assert eps < 1
        cert = extract_large_alpha(g, [0, 1], eps)
        if cert.precondition_met:
            met += 1
            if Fraction(cert.size) < cert.guaranteed_bound:
                failures.append(f"hypothesis met on K{n}-e but bound missed")
    if met == 0:
        failures.append("no hypothesis-satisfying instance was exercised")
    _verdict(5, "square-sum identity and Cauchy-Schwarz hold everywhere; the "
                "conditional bound holds whenever the hypothesis is met", failures)


def test_acceptance_6_structure_families():
    report = run_suite(
        SuiteConfig(suite="structure", seed=20260809, samples=500, max_n=40)
    )
    failures = [r["id"] for r in report.records if not r["pass"]]
    kinds = [r["generator"]["kind"] for r in report.records]
    if kinds.count("w5") < 200 or kinds.count("co-bipartite") < 200:
        failures.append(f"family split was {kinds.count('w5')} wheel blow-ups / "
                        f"{kinds.count('co-bipartite')} co-bipartite")
    for r in report.records:
        if r["clique_size"] < math.ceil(Fraction(2 * r["n"], 5)):
            failures.append(f"{r['id']}: clique below ceil(2n/5)")
    _verdict(6, "decomposition, certificate check, and the 2n/5 clique on 250 "
                "wheel blow-ups and 250 co-bipartite instances", failures)


def test_acceptance_7_checker_equivalence():
    report = run_suite(
        SuiteConfig(suite="checker-equiv", seed=20260809, samples=1000, max_n=12)
    )
    failures = [r["id"] for r in report.records if not r["pass"]]
    exhaustive = [r for r in report.records if r["generator"]["kind"] == "exhaustive"]
    total = sum(r["witness_summary"]["graphs_checked"] for r in exhaustive)
    if total < 32768:
        failures.append(f"exhaustive phase covered only {total} graphs")
    random_count = sum(1 for r in report.records if r["generator"]["kind"] == "raw-random")
    if random_count < 1000:
        failures.append(f"random phase covered only {random_count} graphs")
    _verdict(7, "pair-scan detector agrees with 4-subset enumeration on all "
                f"{total} graphs with n<=6 and {random_count} random graphs with "
                "n<=12", failures)


def test_acceptance_8_reports_are_byte_deterministic():
    failures = []
    for suite, samples, max_n in (
        ("cycle-powers", 1, 25),
        ("bounds-general", 25, 30),
        ("bounds-triple", 25, 30),
        ("large-alpha", 25, 30),
        ("structure", 25, 30),
        ("checker-equiv", 25, 8),
    ):
        config = SuiteConfig(suite=suite, seed=77, samples=samples, max_n=max_n)
        first = run_suite(config).to_json().encode()
        second = run_suite(config).to_json().encode()
        if first != second:
            failures.append(f"{suite}: reports differ between runs")
    _verdict(8, "repeating every suite with the same seed yields byte-identical "
                "JSON reports", failures)
