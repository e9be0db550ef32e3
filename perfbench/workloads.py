"""Workloads of the c4free benchmark: seeded inputs, items and output checks.

A workload is run as a sequence of passes. A pass is a fixed list of
items: suite runs, whose seeds are derived from the benchmark seed and
the pass index, and CLI commands on the edge-list files written during
set-up, whose vertex labels are a permutation derived from the
benchmark seed. Every output is checked here, with the benchmark's own
adjacency sets, never with the package's checkers.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

CORPUS_SUITES = ("bounds-general", "bounds-triple", "large-alpha")


def derive_seed(*parts: object) -> int:
    """A 63-bit seed that is a pure function of its parts."""
    digest = hashlib.sha256(":".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def output_hash(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# Input graphs, built by the benchmark with known structure
# ---------------------------------------------------------------------------


@dataclass
class InputGraph:
    """A relabelled graph file plus what the benchmark knows about it."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    omega: int
    perm: list[int]
    path: str = ""
    adj: list[int] = field(default_factory=list)
    # For a 5-wheel blow-up: hub group, then rim groups in cyclic order.
    groups: Optional[list[frozenset[int]]] = None

    def __post_init__(self) -> None:
        self.adj = [0] * self.n
        for u, v in self.edges:
            self.adj[u] |= 1 << v
            self.adj[v] |= 1 << u

    def is_clique(self, members: list[int]) -> bool:
        if len(set(members)) != len(members):
            return False
        if any(not (isinstance(v, int) and 0 <= v < self.n) for v in members):
            return False
        return all(self.adj[u] >> v & 1 for u, v in itertools.combinations(members, 2))


def canonical_text(n: int, edges: list[tuple[int, int]]) -> str:
    """The edge-list format with edges as (u < v) pairs in ascending order."""
    pairs = sorted((min(u, v), max(u, v)) for u, v in edges)
    return "".join([f"{n} {len(pairs)}\n"] + [f"{u} {v}\n" for u, v in pairs])


def cycle_power_edges(k: int) -> tuple[int, list[tuple[int, int]]]:
    n = 4 * k + 1
    edges = {tuple(sorted((i, (i + d) % n))) for i in range(n) for d in range(1, k + 1)}
    return n, sorted(edges)


def w5_groups(sizes: tuple[int, ...]) -> list[range]:
    """Contiguous vertex groups, hub first, in the package's layout."""
    groups, start = [], 0
    for size in sizes:
        groups.append(range(start, start + size))
        start += size
    return groups


def w5_edges(sizes: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    groups = w5_groups(sizes)
    base = [(0, i) for i in range(1, 6)] + [(i, i % 5 + 1) for i in range(1, 6)]
    edges = [pair for grp in groups for pair in itertools.combinations(grp, 2)]
    for a, b in base:
        edges.extend(itertools.product(groups[a], groups[b]))
    return sum(sizes), sorted(tuple(sorted(e)) for e in edges)


def relabel(n: int, seed: int) -> list[int]:
    """A seeded permutation of 0..n-1."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def build_input(
    name: str, n: int, edges: list[tuple[int, int]], omega: int, seed: int, out_dir: Path
) -> InputGraph:
    """Relabel by a seeded permutation and write the file with the package's writer.

    Uses ``build_graph`` and ``serialize_graph`` only: no recognition call.
    """
    from c4free.edgelist import serialize_graph
    from c4free.graph import build_graph

    perm = relabel(n, derive_seed(seed, name))
    moved = [(perm[u], perm[v]) for u, v in edges]
    graph = InputGraph(name=name, n=n, edges=moved, omega=omega, perm=perm)
    graph.path = str(out_dir / f"{name}.txt")
    with open(graph.path, "w", encoding="utf-8") as handle:
        handle.write(serialize_graph(build_graph(n, moved)))
    return graph


# ---------------------------------------------------------------------------
# Checks of one output; each returns a list of failure messages
# ---------------------------------------------------------------------------


def check_report(report, suite: str, samples: int) -> list[str]:
    problems = []
    if len(report.records) != samples:
        problems.append(f"{suite}: {len(report.records)} records, expected {samples}")
    for record in report.records:
        if not record.get("pass"):
            problems.append(f"{record.get('id')}: fails; repro: {record.get('repro')}")
    return problems


def expect_text(text: str) -> Callable:
    def check(graph: Optional[InputGraph], stdout: str) -> list[str]:
        if stdout != text:
            return [f"stdout {stdout[:60]!r} is not {text[:60]!r}"]
        return []

    return check


def check_clique_certificate(graph: InputGraph, stdout: str, method: Optional[str] = None,
                             size: Optional[int] = None) -> list[str]:
    try:
        cert = json.loads(stdout)
        clique = cert["clique"]
        bound = Fraction(cert["guaranteed_bound"])
        got_method = cert["method"]
        met = cert["precondition_met"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable certificate: {exc!r}"]
    problems = []
    if not isinstance(clique, list) or not graph.is_clique(clique):
        return [f"{clique!r} is not a clique of {graph.name}"]
    if cert.get("size") != len(clique):
        problems.append(f"size {cert.get('size')} != {len(clique)} members")
    if len(clique) > graph.omega:
        problems.append(f"clique of {len(clique)} exceeds omega={graph.omega}")
    if met and not (len(clique) > bound if got_method == "triple" else len(clique) >= bound):
        problems.append(f"clique of {len(clique)} misses its bound {bound} ({got_method})")
    if method is not None and got_method != method:
        problems.append(f"method {got_method!r}, expected {method!r}")
    if size is not None and len(clique) != size:
        problems.append(f"clique of {len(clique)}, expected {size}")
    return problems


def check_w5_structure(graph: InputGraph, stdout: str) -> list[str]:
    try:
        cert = json.loads(stdout)
        kind = cert["kind"]
        hub = frozenset(cert["hub"])
        rim = [frozenset(grp) for grp in cert["cycle_groups"]]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable structure certificate: {exc!r}"]
    if kind != "w5-substitution":
        return [f"kind {kind!r}, expected 'w5-substitution'"]
    assert graph.groups is not None
    if hub != graph.groups[0]:
        return ["hub group differs from the planted hub"]
    planted = graph.groups[1:]
    if len(rim) != 5 or any(grp not in planted for grp in rim):
        return ["cycle groups differ from the planted rim groups"]
    order = [planted.index(grp) for grp in rim]
    steps = {(b - a) % 5 for a, b in zip(order, order[1:] + order[:1])}
    if steps not in ({1}, {4}):
        return [f"cycle groups are not in cyclic order: {order}"]
    return []


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SuiteItem:
    id: str
    suite: str
    samples: int
    max_n: int


@dataclass(frozen=True)
class CliItem:
    id: str
    argv: tuple[str, ...]
    exit_code: int
    check: Callable


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    suites: tuple[SuiteItem, ...]
    build_inputs: Callable[[int, Path], Optional[InputGraph]]
    commands: Callable[[Optional[InputGraph]], tuple[CliItem, ...]]

    def suite_seed(self, seed: int, pass_index: int, item: SuiteItem) -> int:
        return derive_seed(seed, self.name, pass_index, item.suite)


CYCLE_POWER_K = 60
W5_SIZES = (30,) * 6


def _sharp_input(seed: int, out_dir: Path) -> InputGraph:
    n, edges = cycle_power_edges(CYCLE_POWER_K)
    return build_input("cycle-power", n, edges, CYCLE_POWER_K + 1, seed, out_dir)


def _sharp_commands(graph: InputGraph) -> tuple[CliItem, ...]:
    k = CYCLE_POWER_K
    gen_text = canonical_text(*cycle_power_edges(k))
    path = graph.path

    def extract(option: str, **expect) -> CliItem:
        return CliItem(
            f"cli:extract-{option}",
            ("clique", "extract", "--method", option, path),
            0,
            lambda g, out: check_clique_certificate(g, out, **expect),
        )

    return (
        CliItem("cli:gen-cycle-power", ("gen", "cycle-power", "--k", str(k)), 0,
                expect_text(gen_text)),
        CliItem("cli:check-c4free", ("check", "c4free", path), 0, expect_text("c4-free\n")),
        extract("auto", method="regular", size=k + 1),
        extract("general"),
        extract("triple"),
        extract("large-alpha"),
        CliItem("cli:structure", ("structure", path), 1, expect_text("alpha>2\n")),
    )


def _alpha2_input(seed: int, out_dir: Path) -> InputGraph:
    n, edges = w5_edges(W5_SIZES)
    hub, *rim = W5_SIZES
    graph = build_input("w5-blowup", n, edges, hub + 2 * max(rim), seed, out_dir)
    graph.groups = [frozenset(graph.perm[v] for v in grp) for grp in w5_groups(W5_SIZES)]
    return graph


def _alpha2_commands(graph: InputGraph) -> tuple[CliItem, ...]:
    path = graph.path
    sizes = ",".join(str(s) for s in W5_SIZES)
    return (
        CliItem("cli:gen-w5", ("gen", "w5", "--sizes", sizes), 0,
                expect_text(canonical_text(*w5_edges(W5_SIZES)))),
        CliItem("cli:check-c4free", ("check", "c4free", path), 0, expect_text("c4-free\n")),
        CliItem("cli:structure", ("structure", path), 0, check_w5_structure),
        CliItem("cli:extract-triple", ("clique", "extract", "--method", "triple", path), 0,
                check_clique_certificate),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="corpus-bounds",
            why="batch bound suites on seeded random corpora; dominated by the "
            "generators' repair loop",
            suites=tuple(SuiteItem(f"suite:{s}", s, 100, 30) for s in CORPUS_SUITES),
            build_inputs=lambda seed, out_dir: None,
            commands=lambda graph: (),
        ),
        Workload(
            name="alpha2-structure",
            why="alpha<=2 dichotomy on twin-rich graphs: structure suite plus CLI on a "
            "relabelled n=180 W5 blow-up; dominated by the oracle and odd-cycle search",
            suites=(SuiteItem("suite:structure", "structure", 300, 40),),
            build_inputs=_alpha2_input,
            commands=_alpha2_commands,
        ),
        Workload(
            name="sharp-cli",
            why="one-graph certificate commands on a relabelled n=241 cycle power; "
            "dominated by recognition, with no repair and no oracle",
            suites=(),
            build_inputs=_sharp_input,
            commands=_sharp_commands,
        ),
    )
}
