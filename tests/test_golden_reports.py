"""Pinned SHA-256 hashes of suite reports.

Internals may change freely as long as these reports stay byte-identical.
Re-pin a hash only together with a deliberate change of report content.
"""

from __future__ import annotations

import hashlib

import pytest

from c4free.suites import SuiteConfig, run_suite

GOLDEN = {
    "bounds-general": "16242afc13668562ea4ffcc4f4fd35536c633f2e7230602adb05547a3b67fdc8",
    "bounds-triple": "1272692f6f5b417bd0916e6ad092021935dcbef94d7b1d5cd59d8dee2c1acebb",
    "large-alpha": "418f2b0c55db15d4924846e8f495cd705e23d029b7ab4f64db9cebaeea2422cf",
    "structure": "916a2e3788ebcc63c9c7ca00bf313dee25a7f939bb58c26f7742014034c4836b",
}


@pytest.mark.parametrize("suite", sorted(GOLDEN))
def test_report_hash(suite):
    report = run_suite(SuiteConfig(suite=suite, seed=1, samples=30, max_n=30))
    assert report.all_passed() and len(report.records) == 30
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == GOLDEN[suite]
