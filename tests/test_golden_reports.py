"""Pinned SHA-256 hashes of suite reports.

Internals may change freely as long as these reports stay byte-identical.
Re-pin a hash only together with a deliberate change of report content.
"""

from __future__ import annotations

import hashlib

import pytest

from c4free import suites
from c4free.suites import SuiteConfig, run_suite

GOLDEN = {
    "bounds-general": "16242afc13668562ea4ffcc4f4fd35536c633f2e7230602adb05547a3b67fdc8",
    "bounds-triple": "1272692f6f5b417bd0916e6ad092021935dcbef94d7b1d5cd59d8dee2c1acebb",
    "large-alpha": "418f2b0c55db15d4924846e8f495cd705e23d029b7ab4f64db9cebaeea2422cf",
    "structure": "916a2e3788ebcc63c9c7ca00bf313dee25a7f939bb58c26f7742014034c4836b",
}

# The two suites whose record count does not follow --samples, at the same
# config: (records, hash).
GOLDEN_UNSAMPLED = {
    "cycle-powers": (7, "1571101e13412979b32649c487dfd4ef80eac3d5fd09011a1260428f4d73bc56"),
    "checker-equiv": (37, "a670358ddc0ba1fbba5aea8aba5849e7061d660cbe77c5a82e819b2af0de966f"),
}

# Reports with the suite's own check forced to fail, so that every record
# fails and carries its repro command: the name in c4free.suites that is
# replaced, the value the replacement returns, samples, max-n, hash.
GOLDEN_FAILING = {
    "cycle-powers": ("check_certificate", False, 30, 30,
                     "5904f18b1fa58d9ee30c276a3e9bd64d3e75da80c29aa28ff65684976ba80541"),
    "bounds-general": ("check_certificate", False, 10, 20,
                       "40c5715f31fb7a219ae86bc69404b92941adcc6536494f290f9d051b6b59d7c6"),
    "bounds-triple": ("check_certificate", False, 10, 20,
                      "39657bdc5b6fc790ad7e8cb75c7b5dd591befa4845bf271c04265cefc0b53da0"),
    "large-alpha": ("check_certificate", False, 10, 20,
                    "92b41df5612130b4a81264dcc513a6dd6e7b40d234444c4a24dc032f9e40066e"),
    "structure": ("verify_certificate", False, 10, 20,
                  "68a4a880f7572093719f62bff9d8c1b634a85b52e6a2df53f5ca7ea83a377b23"),
    "checker-equiv": ("has_induced_c4_naive", True, 10, 5,
                      "6e5b049c3f32df0a544a7a5b8e1f137bcf256f84d8629cba3732c407e2d7db71"),
}

# Reports at a config of their own: suite, seed, samples, max-n, hash. The
# structure suite at max-n 400 repairs co-bipartite instances far larger
# than those at max-n 30. At max-n 120 the deletion repair of the random
# corpus resumes below the row of its witness, outside the scan's frame.
GOLDEN_CONFIGS = {
    "structure-400": ("structure", 3, 20, 400,
                      "404cd056c5a1f0289c001e78af14f6f8809e7b11d229e34d9556dd41810a4822"),
    "bounds-general-120": ("bounds-general", 3, 20, 120,
                           "8d8ca3a45bd6b0587166319e95371d9ea672973b6029aedd2b89dff14ea2e1e9"),
}


def _digest(report) -> str:
    return hashlib.sha256(report.to_json().encode()).hexdigest()


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_report_hash(suite):
    report = run_suite(SuiteConfig(suite=suite, seed=1, samples=30, max_n=30))
    assert report.all_passed() and len(report.records) == 30
    assert _digest(report) == GOLDEN[suite]


@pytest.mark.parametrize("suite", sorted(GOLDEN_UNSAMPLED))
def test_unsampled_report_hash(suite):
    records, digest = GOLDEN_UNSAMPLED[suite]
    report = run_suite(SuiteConfig(suite=suite, seed=1, samples=30, max_n=30))
    assert report.all_passed() and len(report.records) == records
    assert _digest(report) == digest


@pytest.mark.parametrize("suite", sorted(GOLDEN_FAILING))
def test_failing_report_hash(suite, monkeypatch):
    name, result, samples, max_n, digest = GOLDEN_FAILING[suite]
    monkeypatch.setattr(suites, name, lambda *args: result)
    report = run_suite(SuiteConfig(suite=suite, seed=1, samples=samples, max_n=max_n))
    assert report.passed == 0 and report.failed == len(report.records) > 0
    assert all(record["repro"].startswith("c4free ") for record in report.records)
    assert _digest(report) == digest


@pytest.mark.parametrize("name", sorted(GOLDEN_CONFIGS))
def test_config_report_hash(name):
    suite, seed, samples, max_n, digest = GOLDEN_CONFIGS[name]
    report = run_suite(SuiteConfig(suite=suite, seed=seed, samples=samples, max_n=max_n))
    assert report.all_passed() and len(report.records) == samples
    assert _digest(report) == digest
