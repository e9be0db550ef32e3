"""Recognition through block tables, against the plain pair scan.

Once a scan of a static graph has met enough pairs, it builds tables of
block unions and settles every pair that a verified clique covers in one
step. The tests below force the tables from the first row (budget 0) or
draw the budget, and require the witness of ``helpers.reference_scan``.
"""

from __future__ import annotations

import itertools
import random
from functools import reduce
from operator import and_, or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c4free.graph as graph_module
from c4free import build_graph, cycle_power, find_induced_c4, random_c4free, serialize_graph
from c4free.cli import main
from c4free.generators import _co_bipartite_c4free
from c4free.graph import _block_tables, _fold, _graph_of, _scan_induced_c4
from helpers import c4free_graphs, edges, raw_graphs, reference_scan, relabelled, twin_rich_graphs


@st.composite
def perturbed_cycle_powers(draw, max_k: int = 40):
    """Relabelled cycle powers C(4k+1, k) with 0 to 3 pairs toggled, as rows."""
    base = cycle_power(draw(st.integers(min_value=1, max_value=max_k)))
    n = base.n
    perm = draw(st.permutations(range(n)))
    adj = [0] * n
    for u, v in edges(base):
        adj[perm[u]] |= 1 << perm[v]
        adj[perm[v]] |= 1 << perm[u]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    for u, v in draw(st.lists(pairs, max_size=3)):
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
    return adj


class TestTables:
    @pytest.mark.parametrize("n", [1, 5, 6, 7, 23, 24, 25, 47, 48, 49, 61])
    def test_folds_match_plain_unions_and_intersections(self, n):
        rng = random.Random(n)
        adj = [0] * n
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < 0.4:
                adj[u] |= 1 << v
                adj[v] |= 1 << u
        size, ors, ands = _block_tables(adj, n)
        for _ in range(50):
            mask = rng.getrandbits(n) & rng.getrandbits(n)
            members = [v for v in range(n) if mask >> v & 1]
            assert _fold(or_, ors, size, mask) == reduce(or_, (adj[v] for v in members), 0)
            closed = (adj[v] | 1 << v for v in members)
            assert _fold(and_, ands, size, mask) == reduce(and_, closed, -1)


class TestAgainstReferenceScan:
    @settings(max_examples=60, deadline=None)
    @given(perturbed_cycle_powers(), st.data())
    def test_perturbed_cycle_powers(self, adj, data):
        n = len(adj)
        budget = data.draw(st.sampled_from([0, 2 * n, n * n]))
        assert _scan_induced_c4(adj, n, 0, -1, budget) == reference_scan(adj, n)
        assert _graph_of(adj)._witness == reference_scan(adj, n)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(twin_rich_graphs(), c4free_graphs(max_n=30)))
    def test_quotient_rows(self, g):
        assert _scan_induced_c4(g.adj, g.n, 0, g._twins[0], 0) == reference_scan(g.adj, g.n)

    @settings(max_examples=300, deadline=None)
    @given(raw_graphs(max_n=16), st.data())
    def test_raw_graphs_from_any_row(self, g, data):
        start = data.draw(st.integers(min_value=0, max_value=g.n))
        budget = data.draw(st.integers(min_value=0, max_value=g.n * g.n))
        expected = reference_scan(g.adj, g.n, start)
        assert _scan_induced_c4(g.adj, g.n, start, -1, budget) == expected


class TestWhenTablesAreBuilt:
    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = graph_module._block_tables

        def counted(adj, n):
            calls.append(n)
            return build(adj, n)

        monkeypatch.setattr(graph_module, "_block_tables", counted)
        return calls

    def test_repair_never_builds_them(self, builds):
        random_c4free(40, "1/2", 1)
        _co_bipartite_c4free(30, (1 << 15) - 1, 2)
        assert builds == []

    def test_first_row_witness_builds_none(self, builds):
        # An induced 4-cycle on 0..3 and a clique on the other 60 vertices.
        g = build_graph(64, [(0, 1), (1, 2), (2, 3), (3, 0)]
                        + list(itertools.combinations(range(4, 64), 2)))
        assert tuple(find_induced_c4(g)) == (0, 1, 2, 3)
        assert builds == []

    def test_clean_cycle_power_builds_them_once(self, builds):
        g = relabelled(cycle_power(20), 3)
        builds.clear()
        assert find_induced_c4(g) is None
        assert builds == [81]


def test_check_c4free_line_on_a_perturbed_sharp_graph(capsys, tmp_path):
    # Relabelled C(241, 60) with the pair (211, 228) toggled; the witness
    # lies in row 208, long after the tables are built. The line is the
    # witness of the plain pair scan, reference_scan.
    g = relabelled(cycle_power(60), 1)
    adj = list(g.adj)
    adj[211] ^= 1 << 228
    adj[228] ^= 1 << 211
    f = tmp_path / "g.txt"
    f.write_text(serialize_graph(_graph_of(adj)))
    assert main(["check", "c4free", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "induced-c4: 208 211 228 231\n"
    assert captured.err == ""
