"""Batch verification suites with reproducible JSON reports.

Every suite is a pure function of its config: the same seed, sample
count, and size limits always produce a byte-identical report. Each
failing record carries a shell command that regenerates the instance
and reruns the check.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Iterator, Optional

from . import __version__
from .extraction import (
    CliqueCertificate,
    check_certificate,
    degree_square_census,
    extract_general,
    extract_large_alpha,
    extract_regular,
    extract_triple,
)
from .generators import (
    RNG_NAME,
    SplitMix64,
    _co_bipartite_c4free,
    _pair_rows,
    _sample_edge_masks,
    cycle_power,
    random_c4free,
    w5_blowup,
)
from .graph import (
    ORACLE_LIMIT_DEFAULT,
    Graph,
    GraphInputError,
    InvariantViolation,
    _graph_of,
    common_neighbors,
    find_induced_c4,
    greedy_maximal_independent_set,
    has_induced_c4_naive,
    is_clique,
    max_clique_exact,
)
from .structure import HypothesisViolation, _best_clique, alpha2_decompose, verify_certificate


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    seed: int
    samples: int
    max_n: int
    oracle_limit: int = ORACLE_LIMIT_DEFAULT
    epsilon: Fraction = Fraction(1, 2)

    def __post_init__(self) -> None:
        # Refused when built, so that nothing runs or opens for a bad config.
        if self.suite not in _SUITES:
            raise GraphInputError(
                f"unknown suite {self.suite!r}; choose from {', '.join(SUITE_NAMES)}"
            )
        _, least_n, sampled, omega_checked = _SUITES[self.suite]
        if self.samples < 0:
            raise GraphInputError(f"samples must be non-negative, got {self.samples}")
        if self.oracle_limit < 0:
            raise GraphInputError(f"oracle_limit must be non-negative, got {self.oracle_limit}")
        if omega_checked and self.oracle_limit < 5:
            raise GraphInputError(f"suite {self.suite} needs oracle_limit >= 5")
        if sampled and (self.samples == 0 or self.max_n < least_n):
            raise GraphInputError(f"suite {self.suite} needs samples >= 1 and max_n >= {least_n}")
        if self.max_n < least_n:
            raise GraphInputError(f"{self.suite} needs max_n >= {least_n}")
        # SplitMix64 takes seeds mod 2**64: a larger one runs another's stream.
        if not 0 <= self.seed < 1 << 64:
            raise GraphInputError(f"seed must be in [0, 2**64), got {self.seed}")
        # Stored as a Fraction, so that equal values echo and rerun alike.
        try:
            object.__setattr__(self, "epsilon", Fraction(self.epsilon))
        except (TypeError, ValueError, ZeroDivisionError):
            raise GraphInputError(f"epsilon is not a rational number: {self.epsilon!r}") from None
        if not 0 < self.epsilon < 1:
            raise GraphInputError(f"epsilon must be strictly between 0 and 1, got {self.epsilon}")

    def echo(self) -> dict:
        return {**asdict(self), "epsilon": str(self.epsilon), "rng": RNG_NAME}


@dataclass
class Report:
    suite: str
    config: dict
    records: list[dict] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(record["pass"] for record in self.records)

    @property
    def failed(self) -> int:
        return len(self.records) - self.passed

    def add(self, record: dict) -> None:
        assert record["pass"] or "repro" in record, "failing records must carry a repro command"
        self.records.append(record)

    def all_passed(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "suite": self.suite,
            "config": self.config,
            "records": self.records,
            "passed": self.passed,
            "failed": self.failed,
            "tool_version": __version__,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def run_suite(config: SuiteConfig) -> Report:
    """Run the config's suite; a fault it raises ends the report in a failing record."""
    report = Report(suite=config.suite, config=config.echo())
    try:
        _SUITES[config.suite][0](config, report)
    except (InvariantViolation, HypothesisViolation) as exc:
        repro = _rerun_repro(config, config.samples, config.max_n)
        if config.oracle_limit != ORACLE_LIMIT_DEFAULT:
            repro += f" --oracle-limit {config.oracle_limit}"
        if config.epsilon != Fraction(1, 2):
            repro += f" --epsilon {config.epsilon}"
        report.add(_record(False, repro, id=f"{config.suite}-fault", error=str(exc)))
    return report


def _oracle_omega(g: Graph, limit: int) -> Optional[int]:
    if g.n > limit:
        return None
    return len(max_clique_exact(g, limit=limit))


def _record(ok: bool, repro: str, **fields) -> dict:
    """One report record; the repro command is kept only when the check failed."""
    record = {**fields, "pass": bool(ok)}
    if not ok:
        record["repro"] = repro
    return record


def _add_certificate_record(
    report: Report,
    config: SuiteConfig,
    record_id: str,
    params: dict,
    g: Graph,
    cert: CliqueCertificate,
    bound_ok: bool,
    witness_summary: dict,
    repro: str,
    sharp: bool = False,
) -> None:
    """Record one extracted clique certificate.

    It passes when the suite's own bound test holds, the certificate
    re-checks against g, and, where the exact oracle applies, the clique
    is no larger than the clique number (equal to it when sharp).
    """
    omega = _oracle_omega(g, config.oracle_limit)
    omega_ok = omega is None or (cert.size == omega if sharp else cert.size <= omega)
    ok = bound_ok and check_certificate(g, cert) and omega_ok
    report.add(_record(
        ok, repro, id=record_id, generator=params, n=g.n, min_degree=g.min_degree(),
        method=cert.method, bound=str(cert.guaranteed_bound), clique_size=cert.size,
        omega=omega, witness_summary=witness_summary,
    ))


def _repro(params: dict, command: str) -> str:
    """Pipeline that regenerates one instance and feeds it to command."""
    if params["kind"] == "cycle-power":
        gen = f"c4free gen cycle-power --k {params['k']}"
    elif params["kind"] == "w5":
        gen = "c4free gen w5 --sizes " + ",".join(str(s) for s in params["sizes"])
    else:
        gen = (
            f"c4free gen random --n {params['n']} --p {params['p']} "
            f"--seed {params['seed']}"
        )
    return f"{gen} | {command} -"


def _rerun_repro(config: SuiteConfig, samples: int, max_n: int) -> str:
    """Command that reruns the suite, for instances with no generator command."""
    return (
        f"c4free verify --suite {config.suite} --seed {config.seed} "
        f"--samples {samples} --max-n {max_n}"
    )


# ---------------------------------------------------------------------------
# Random corpus shared by the bound suites
# ---------------------------------------------------------------------------


def _random_corpus(config: SuiteConfig) -> Iterator[tuple[dict, Graph]]:
    """Seeded stream of C4-free instances with minimum degree >= 1.

    Sizes are drawn from 5..max_n. Most instances are sparse (target
    average degree 1..6, where repair work is small); one in five is
    medium (p = 1/2) or dense (p = 9/10), which survives repair with a
    high minimum degree and makes the bounds non-vacuous. A draw whose
    sample has an isolated vertex is discarded before repair.
    """
    rng = SplitMix64(config.seed)
    produced = 0
    while produced < config.samples:
        n = 5 + rng.next_below(max(config.max_n - 4, 1))
        style = rng.next_below(10)
        if style < 8:
            avg_deg = 1 + rng.next_below(min(6, n - 1))
            p = Fraction(avg_deg, max(n - 1, 1))
        elif style == 8:
            p = Fraction(1, 2)
        else:
            p = Fraction(9, 10)
        inst_seed = rng.next_u64()
        g = random_c4free(n, p, inst_seed, skip_isolated=True)
        if g is None:
            continue
        params = {"kind": "random", "n": n, "p": str(p), "seed": inst_seed}
        produced += 1
        yield params, g


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def _run_cycle_powers(config: SuiteConfig, report: Report) -> None:
    for k in range(1, (config.max_n - 1) // 4 + 1):
        g = cycle_power(k)
        cert = extract_regular(g)
        params = {"kind": "cycle-power", "k": k}
        _add_certificate_record(
            report, config, f"cycle-powers-{k:03d}", params, g, cert,
            bound_ok=cert.size == k + 1,
            witness_summary={"route": cert.witness.get("route")},
            repro=_repro(params, "c4free clique extract --method regular"),
            sharp=True,
        )


def _run_bounds_general(config: SuiteConfig, report: Report) -> None:
    for idx, (params, g) in enumerate(_random_corpus(config)):
        delta = g.min_degree()
        cert = extract_general(g)
        _add_certificate_record(
            report, config, f"bounds-general-{idx:04d}", params, g, cert,
            bound_ok=cert.size >= math.ceil(Fraction(delta * delta, 2 * g.n + delta)),
            witness_summary={"route": cert.witness.get("route")},
            repro=_repro(params, "c4free clique extract --method general"),
        )


def _run_bounds_triple(config: SuiteConfig, report: Report) -> None:
    # Skips delta > 11n/15, and draws no instance past the last one recorded.
    corpus = _random_corpus(replace(config, samples=config.samples * 8))
    eligible = ((params, g) for params, g in corpus if 15 * g.min_degree() <= 11 * g.n)
    for idx, (params, g) in enumerate(itertools.islice(eligible, config.samples)):
        delta = g.min_degree()
        cert = extract_triple(g)
        if cert.method == "triple":
            bound_ok = Fraction(cert.size) > Fraction(delta) - Fraction(g.n, 3)
        else:
            bound_ok = cert.size >= math.ceil(Fraction(2 * g.n, 5))
        _add_certificate_record(
            report, config, f"bounds-triple-{idx:04d}", params, g, cert,
            bound_ok=bound_ok,
            witness_summary={"route": cert.witness.get("route")},
            repro=_repro(params, "c4free clique extract --method triple"),
        )


def _run_large_alpha(config: SuiteConfig, report: Report) -> None:
    for idx, (params, g) in enumerate(_random_corpus(config)):
        s = greedy_maximal_independent_set(g)
        census = degree_square_census(g, s)
        identity_ok = (
            census["sum_deg_sq"] == census["sum_sizes"] + census["sum_pairwise"]
        )
        cs_ok = Fraction(census["sum_deg_sq"]) >= census["cs_floor"]
        cert = extract_large_alpha(g, s, config.epsilon)
        conditional_ok = (not cert.precondition_met) or (
            Fraction(cert.size) >= cert.guaranteed_bound
        )
        _add_certificate_record(
            report, config, f"large-alpha-{idx:04d}", params, g, cert,
            bound_ok=identity_ok and cs_ok and conditional_ok,
            witness_summary={
                "t": len(s),
                "identity": identity_ok,
                "cauchy_schwarz": cs_ok,
                "precondition_met": cert.precondition_met,
            },
            repro=_repro(
                params,
                f"c4free clique extract --method large-alpha --epsilon {config.epsilon}",
            ),
        )


def _structure_instances(config: SuiteConfig) -> Iterator[tuple[dict, Graph]]:
    """Alternating 5-wheel blow-ups and co-bipartite C4-free instances."""
    rng = SplitMix64(config.seed)
    for idx in range(config.samples):
        if idx % 2 == 0:
            sizes = [rng.next_below(4)] + [1 + rng.next_below(4) for _ in range(5)]
            g = w5_blowup(sizes)
            yield {"kind": "w5", "sizes": sizes}, g
        else:
            n = 5 + rng.next_below(max(config.max_n - 4, 1))
            side_mask = rng.next_u64() & ((1 << n) - 1)
            inst_seed = rng.next_u64()
            g = _co_bipartite_c4free(n, side_mask, inst_seed)
            yield {"kind": "co-bipartite", "n": n, "side_mask": side_mask,
                   "seed": inst_seed}, g


def _run_structure(config: SuiteConfig, report: Report) -> None:
    for idx, (params, g) in enumerate(_structure_instances(config)):
        cert = alpha2_decompose(g)
        valid = verify_certificate(g, cert)
        clique = _best_clique(cert)
        floor = math.ceil(Fraction(2 * g.n, 5))
        ok = valid and is_clique(g, clique) and len(clique) >= floor
        if params["kind"] == "w5":
            repro = _repro(params, "c4free structure")
        else:
            repro = _rerun_repro(config, config.samples, config.max_n)
        report.add(_record(
            ok, repro, id=f"structure-{idx:04d}", generator=params, n=g.n,
            min_degree=g.min_degree(), method=cert.kind, bound=str(Fraction(2 * g.n, 5)),
            clique_size=len(clique), omega=_oracle_omega(g, config.oracle_limit),
            witness_summary={"kind": cert.kind},
        ))


def _all_graphs(n: int) -> Iterator[Graph]:
    pairs = n * (n - 1) // 2
    for mask in range(1 << pairs):
        yield _graph_of(_pair_rows(n, bytes(mask >> i & 1 for i in range(pairs))))


def _run_checker_equiv(config: SuiteConfig, report: Report) -> None:
    # Exhaustive phase over every graph on up to six vertices, then a
    # seeded random phase up to twelve. Agreement is checked between the
    # pair-scan detector, the 4-subset enumerator, and the clique
    # characterization of non-adjacent pairs' common neighborhoods.
    for n in range(0, min(6, config.max_n) + 1):
        checked = 0
        disagreements = 0
        for g in _all_graphs(n):
            checked += 1
            if not _detectors_agree(g):
                disagreements += 1
        report.add(_record(
            disagreements == 0, _rerun_repro(config, 0, n),
            id=f"checker-equiv-exhaustive-n{n}", generator={"kind": "exhaustive", "n": n},
            n=n, min_degree=0, method="detector-agreement", bound="0",
            clique_size=0, omega=None, witness_summary={"graphs_checked": checked},
        ))

    rng = SplitMix64(config.seed)
    for idx in range(config.samples):
        n = 1 + rng.next_below(min(12, config.max_n))
        p = Fraction(5 + rng.next_below(90), 100)
        inst_seed = rng.next_u64()
        g = _graph_of(_sample_edge_masks(n, p, inst_seed))
        report.add(_record(
            _detectors_agree(g), _rerun_repro(config, config.samples, config.max_n),
            id=f"checker-equiv-random-{idx:04d}",
            generator={"kind": "raw-random", "n": n, "p": str(p), "seed": inst_seed},
            n=n, min_degree=g.min_degree(), method="detector-agreement", bound="0",
            clique_size=0, omega=None, witness_summary={"edges": g.edge_count},
        ))


# suite: (runner, least max_n, samples, checks omega). Below the least max_n
# a suite tests nothing: no graph below 4 vertices holds an induced C4, and
# below n = 5 no record would test a clique against omega. A sampling suite
# also needs samples >= 1; a suite that checks omega needs oracle_limit >= 5.
_SUITES = {
    "cycle-powers": (_run_cycle_powers, 5, False, True),
    "bounds-general": (_run_bounds_general, 5, True, True),
    "bounds-triple": (_run_bounds_triple, 5, True, True),
    "large-alpha": (_run_large_alpha, 5, True, True),
    "structure": (_run_structure, 5, True, False),
    "checker-equiv": (_run_checker_equiv, 4, False, False),
}
SUITE_NAMES = tuple(_SUITES)
OMEGA_CHECKED = tuple(name for name, row in _SUITES.items() if row[3])


def _detectors_agree(g: Graph) -> bool:
    scan = find_induced_c4(g)
    naive = has_induced_c4_naive(g)
    if (scan is not None) != naive:
        return False
    if scan is not None:
        a, b, c, d = scan
        edges_ok = (
            g.has_edge(a, b)
            and g.has_edge(b, c)
            and g.has_edge(c, d)
            and g.has_edge(d, a)
            and not g.has_edge(a, c)
            and not g.has_edge(b, d)
        )
        if not edges_ok:
            return False
    # C4-freeness iff every non-adjacent pair has a clique common
    # neighborhood.
    pairs_clique = all(
        is_clique(g, common_neighbors(g, u, v))
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g.has_edge(u, v)
    )
    return pairs_clique == (scan is None)
