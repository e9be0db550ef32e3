"""Recognition and the exact oracles on graphs rich in true twins.

True twins are adjacent vertices with the same closed neighbourhood. The
tests build clique substitutions, whose groups are twin classes, relabel
them at random and compare the library against the plain references.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import c4free.generators as generators
import c4free.graph as graph_module
from c4free import (
    GraphInputError,
    InvariantViolation,
    build_graph,
    complement,
    find_independent_set_of_size,
    find_induced_c4,
    is_c4_free,
    max_clique_exact,
    max_independent_set_exact,
    random_c4free,
    serialize_graph,
)
from c4free.cli import main
from c4free.generators import _sample_edge_masks
from c4free.graph import _graph_of, require_c4free
from helpers import (
    LoggedRows,
    cycle,
    house,
    raw_graphs,
    reference_independent_set_of_size,
    reference_max_clique,
    reference_scan,
    relabelled,
    restart_repair,
    skipping_scan,
    substituted,
    twin_rich_graphs,
)

# (base, sizes, relabelling seed) and the first induced 4-cycle of the
# relabelled substitution, as the plain pair scan finds it.
PINNED = [
    (cycle(4), (2, 3, 1, 2), 3, (0, 1, 6, 3)),
    (house(), (3, 1, 2, 2, 3), 5, (0, 1, 2, 4)),
    (cycle(4), (3, 3, 3, 3), 2, (0, 2, 4, 3)),
    (house(), (2, 2, 2, 2, 2), 9, (0, 1, 5, 8)),
]


def pinned_graph(case):
    base, sizes, seed, _ = case
    return relabelled(substituted(base, sizes), seed)


class TestPinnedWitnesses:
    """Messages that name a witness, pinned on twin-rich inputs."""

    @pytest.mark.parametrize("case", PINNED)
    def test_require_c4free_message(self, case):
        g = pinned_graph(case)
        expected = f"graph contains an induced 4-cycle on vertices {case[3]}"
        for _ in range(2):
            with pytest.raises(GraphInputError) as exc:
                require_c4free(g)
            assert str(exc.value) == expected
        assert find_induced_c4(g).vertices == case[3]
        assert not is_c4_free(g)

    @pytest.mark.parametrize("case", PINNED)
    def test_check_c4free_line(self, capsys, tmp_path, case):
        f = tmp_path / "g.txt"
        f.write_text(serialize_graph(pinned_graph(case)))
        assert main(["check", "c4free", str(f)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "induced-c4: " + " ".join(map(str, case[3])) + "\n"
        assert captured.err == ""

    @pytest.mark.parametrize(
        "case, fixes, edge_count",
        [
            (PINNED[0], [(0, 1, 6, 3), (0, 2, 6, 3), (0, 3, 6, 7), (0, 4, 6, 7),
                         (1, 5, 3, 6), (2, 5, 3, 6), (3, 5, 7, 6), (4, 5, 7, 6)], 12),
            (PINNED[1], [(0, 1, 2, 4), (0, 3, 2, 4), (1, 2, 4, 6), (1, 6, 4, 8),
                         (2, 3, 6, 4), (3, 6, 4, 8)], 32),
        ],
    )
    def test_repair_fixes(self, case, fixes, edge_count):
        # The pinned witnesses are those of the restarting reference; the
        # repair deletes the edge (a, b) of each, in order, inside its scan.
        g = pinned_graph(case)
        assert [tuple(witness) for witness in restart_repair(g.adj, g.n, False)[1]] == fixes
        rows = LoggedRows(g.adj)
        out = generators._repair(rows, g.n)
        assert rows.deletions() == [(a, b) for a, b, _, _ in fixes]
        assert out.edge_count == edge_count
        assert find_induced_c4(out) is None

    @pytest.mark.parametrize(
        "case, message",
        [
            (PINNED[2], "repair resumed past the induced 4-cycle (0, 3, 4, 5)"),
            (PINNED[3], "repair resumed past the induced 4-cycle (0, 4, 5, 8)"),
        ],
    )
    def test_repair_resume_message(self, monkeypatch, case, message):
        # A scan that names a resume row past the end after its first
        # deletion is caught by the final clean scan, which names its witness.
        g = pinned_graph(case)
        scan = skipping_scan(generators._scan_induced_c4)
        monkeypatch.setattr(generators, "_scan_induced_c4", scan)
        with pytest.raises(InvariantViolation) as exc:
            generators._repair(list(g.adj), g.n)
        assert str(exc.value) == message


class TestAgainstReferences:
    @settings(max_examples=300, deadline=None)
    @given(twin_rich_graphs())
    def test_recognition(self, g):
        expected = reference_scan(g.adj, g.n)
        assert find_induced_c4(g) == expected
        assert is_c4_free(g) == (expected is None)

    @settings(max_examples=200, deadline=None)
    @given(twin_rich_graphs())
    def test_max_clique(self, g):
        assert max_clique_exact(g) == reference_max_clique(g)

    @settings(max_examples=150, deadline=None)
    @given(twin_rich_graphs(max_base=6, max_size=3))
    def test_independent_sets(self, g):
        assert max_independent_set_exact(g) == reference_max_clique(complement(g))
        for t in range(1, 5):
            assert find_independent_set_of_size(g, t) == reference_independent_set_of_size(g, t)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(twin_rich_graphs(), raw_graphs()))
    def test_twin_classes(self, g):
        # Every graph carries its classes; a twin-free one has n singletons.
        closed = [row | 1 << v for v, row in enumerate(g.adj)]
        classes = [sum(1 << u for u in range(g.n) if closed[u] == closed[v]) for v in range(g.n)]
        reps, members = g._twins
        assert reps == sum(1 << v for v in range(g.n) if classes[v] & -classes[v] == 1 << v)
        assert list(members) == classes
        if len(set(closed)) == g.n:
            assert reps == g.full_mask
            assert list(members) == [1 << v for v in range(g.n)]


class TestVerdict:
    def test_repaired_graph_carries_its_verdict(self, monkeypatch):
        g = random_c4free(30, "1/2", 1)
        assert g.__dict__["_witness"] is None

        def no_scan(*args):
            raise AssertionError("a repaired graph was scanned again")

        monkeypatch.setattr(graph_module, "_scan_induced_c4", no_scan)
        require_c4free(g)
        assert find_induced_c4(g) is None

    def test_raw_graph_is_not_premarked(self):
        raw = [build_graph(5, [(0, 1)]), complement(random_c4free(12, "1/2", 3))]
        raw.append(_graph_of(_sample_edge_masks(12, Fraction(1, 2), 3)))
        for g in raw:
            assert "_witness" not in g.__dict__
        checked = random_c4free(12, "1/2", 3)
        assert checked == build_graph(checked.n, [
            (u, v) for u in range(checked.n) for v in range(u) if checked.has_edge(u, v)
        ])

    @pytest.mark.parametrize("case", PINNED)
    def test_repeat_checks_scan_once(self, monkeypatch, case):
        g = pinned_graph(case)
        scans = []
        scan = graph_module._scan_induced_c4

        def counted(*args):
            scans.append(args)
            return scan(*args)

        monkeypatch.setattr(graph_module, "_scan_induced_c4", counted)
        for _ in range(3):
            assert find_induced_c4(g).vertices == case[3]
            assert not is_c4_free(g)
        assert len(scans) == 1
