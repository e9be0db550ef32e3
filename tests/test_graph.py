from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4free import (
    GraphInputError,
    OddCycle,
    OracleLimitError,
    bipartition,
    build_graph,
    common_neighbors,
    complement,
    cycle_power,
    find_independent_set_of_size,
    find_induced_c4,
    greedy_maximal_independent_set,
    has_induced_c4_naive,
    is_clique,
    is_independent_set,
    max_clique_exact,
    max_independent_set_exact,
    w5_blowup,
)
from c4free import graph as graph_module
from c4free.generators import _sample_edge_masks
from c4free.graph import (
    InvariantViolation,
    _bfs,
    _bipartition,
    _co_rows,
    _graph_of,
    _has_triangle,
    _lex_clique,
    _mask_of,
    _scan_induced_c4,
    _shortest_odd_cycle,
)
from helpers import (
    brute_alpha,
    brute_omega,
    c4free_graphs,
    complete,
    component_graphs,
    cycle,
    edgeless,
    edges,
    house,
    path,
    raw_graphs,
    reference_bfs,
    reference_bipartition,
    reference_classify_set,
    reference_clique_search,
    reference_independent_set_of_size,
    reference_lex_first_clique,
    reference_max_clique,
    reference_scan,
    reference_shortest_odd_cycle,
    relabelled,
    relabelled_w5_blowup,
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def disjoint_union(*parts):
    pairs, base = [], 0
    for part in parts:
        pairs.extend((base + u, base + v) for u, v in edges(part))
        base += part.n
    return build_graph(base, pairs)


class TestBuildGraph:
    def test_c5(self):
        g = cycle(5)
        assert g.n == 5
        assert g.edge_count == 5
        assert g.degrees() == [2, 2, 2, 2, 2]

    def test_single_vertex(self):
        g = build_graph(1, [])
        assert g.n == 1
        assert g.edge_count == 0

    def test_duplicate_edges_collapse(self):
        g = build_graph(4, [(0, 1), (0, 1), (1, 2)])
        assert g.edge_count == 2

    def test_out_of_range_vertex(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(0, 3)])

    def test_self_loop(self):
        with pytest.raises(GraphInputError):
            build_graph(3, [(1, 1)])

    def test_adjacency_symmetric(self):
        g = build_graph(4, [(0, 2), (1, 3)])
        for u in range(4):
            for v in range(4):
                assert g.has_edge(u, v) == g.has_edge(v, u)


class TestCommonNeighbors:
    def test_c5(self):
        assert common_neighbors(cycle(5), 0, 2) == (1,)

    def test_cycle_power_two(self):
        assert common_neighbors(cycle_power(2), 0, 3) == (1, 2)

    def test_complete(self):
        assert common_neighbors(complete(4), 0, 1) == (2, 3)

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphInputError):
            common_neighbors(cycle(5), 2, 2)


class TestClassifySet:
    """``is_clique`` and ``is_independent_set`` sort a set into one of three kinds."""

    def test_independent_pair(self):
        assert is_independent_set(cycle(5), [0, 2])
        assert not is_clique(cycle(5), [0, 2])

    def test_clique(self):
        assert is_clique(complete(4), [0, 1, 2])
        assert not is_independent_set(complete(4), [0, 1, 2])

    def test_neither(self):
        assert not is_clique(cycle(5), [0, 1, 2])
        assert not is_independent_set(cycle(5), [0, 1, 2])

    def test_small_sets_are_both(self):
        for members in ([], [3], [3, 3]):
            assert is_clique(cycle(5), members)
            assert is_independent_set(cycle(5), members)

    @pytest.mark.parametrize("predicate", [is_clique, is_independent_set])
    def test_out_of_range_names_the_least_bad_vertex(self, predicate):
        with pytest.raises(GraphInputError, match=r"^vertex -2 out of range for n=5$"):
            predicate(cycle(5), [9, 1, -2, 7])

    @settings(max_examples=400, deadline=None)
    @given(raw_graphs(max_n=10), st.data())
    def test_predicates_match_reference_classifier(self, g, data):
        # Half the lists stay inside 0..n-1; the rest may hold bad vertices.
        members = data.draw(st.one_of(
            st.lists(st.integers(min_value=0, max_value=max(g.n - 1, 0)), max_size=g.n),
            st.lists(st.integers(min_value=-2, max_value=g.n + 1), max_size=8),
        ))
        try:
            expected = reference_classify_set(g, members)
        except GraphInputError as exc:
            for predicate in (is_clique, is_independent_set):
                with pytest.raises(GraphInputError) as got:
                    predicate(g, members)
                assert str(got.value) == str(exc)
            return
        assert is_clique(g, members) == (expected.kind == "clique")
        assert is_independent_set(g, members) == (
            expected.kind == "independent" or expected.also_independent
        )


class TestFindInducedC4:
    def test_c4_itself(self):
        got = find_induced_c4(cycle(4))
        assert got is not None
        assert got.vertices == (0, 1, 2, 3)

    def test_c5_is_free(self):
        assert find_induced_c4(cycle(5)) is None

    def test_house(self):
        got = find_induced_c4(house())
        assert got is not None
        assert got.vertices == (0, 2, 3, 4)

    def test_witness_is_an_induced_four_cycle(self):
        g = house()
        a, b, c, d = find_induced_c4(g)
        assert g.has_edge(a, b) and g.has_edge(b, c)
        assert g.has_edge(c, d) and g.has_edge(d, a)
        assert not g.has_edge(a, c) and not g.has_edge(b, d)

    def test_agrees_with_naive_exhaustively_small(self):
        for n in range(0, 6):
            pairs = list(itertools.combinations(range(n), 2))
            for mask in range(1 << len(pairs)):
                edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
                g = build_graph(n, edges)
                assert (find_induced_c4(g) is not None) == has_induced_c4_naive(g)

    @settings(max_examples=200, deadline=None)
    @given(raw_graphs(max_n=12))
    def test_agrees_with_naive_random(self, g):
        assert (find_induced_c4(g) is not None) == has_induced_c4_naive(g)

    @settings(max_examples=150, deadline=None)
    @given(raw_graphs(max_n=10))
    def test_c4free_iff_charged_pairs_have_clique_intersections(self, g):
        pairs_clique = all(
            is_clique(g, common_neighbors(g, u, v))
            for u in range(g.n)
            for v in range(u + 1, g.n)
            if not g.has_edge(u, v)
        )
        assert pairs_clique == (find_induced_c4(g) is None)

    @settings(max_examples=300, deadline=None)
    @given(raw_graphs(max_n=14))
    def test_scan_matches_reference_at_every_start_row(self, g):
        for start in range(g.n + 1):
            assert _scan_induced_c4(g.adj, g.n, start) == reference_scan(g.adj, g.n, start)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=40),
        degree=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        data=st.data(),
    )
    def test_two_hop_filter_matches_reference_at_every_start_row(self, n, degree, seed, data):
        # At average degree 1 to 6 most rows have fewer than a quarter as
        # many neighbours as pending pairs, so they go through the filter.
        # Under a verts mask the reference scans the induced subgraph.
        adj = _sample_edge_masks(n, Fraction(min(degree, n - 1), n - 1), seed)
        verts = data.draw(st.one_of(st.just(-1), st.integers(min_value=0, max_value=2**n - 1)))
        induced = [row & verts if verts >> v & 1 else 0 for v, row in enumerate(adj)]
        for start in range(n + 1):
            assert _scan_induced_c4(adj, n, start, verts) == reference_scan(induced, n, start)

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.one_of(
            st.integers(min_value=2, max_value=15).map(cycle_power),
            st.lists(st.integers(min_value=1, max_value=5), min_size=6, max_size=6).map(
                w5_blowup
            ),
        ),
        data=st.data(),
    )
    def test_scan_matches_reference_on_perturbed_sharp_graphs(self, base, data):
        # Relabelled C4-free graphs with a few pairs flipped: many common
        # neighbourhoods are cliques, so the scan skips pairs before the
        # first witness.
        n = base.n
        perm = data.draw(st.permutations(range(n)))
        flips = data.draw(
            st.lists(
                st.sampled_from(list(itertools.combinations(range(n), 2))),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        adj = [0] * n
        for u, v in edges(base):
            adj[perm[u]] |= 1 << perm[v]
            adj[perm[v]] |= 1 << perm[u]
        for u, v in flips:
            adj[u] ^= 1 << v
            adj[v] ^= 1 << u
        start = data.draw(st.integers(min_value=0, max_value=n))
        for row in (0, start):
            assert _scan_induced_c4(adj, n, row) == reference_scan(adj, n, row)


class TestExactOracles:
    def test_k5(self):
        assert max_clique_exact(complete(5)) == (0, 1, 2, 3, 4)

    def test_cycle_power_two(self):
        assert max_clique_exact(cycle_power(2)) == (0, 1, 2)

    def test_w5(self):
        from c4free import w5_base

        assert max_clique_exact(w5_base()) == (0, 1, 2)

    def test_limit_refused(self):
        for oracle in (max_clique_exact, max_independent_set_exact):
            with pytest.raises(OracleLimitError, match=r"^oracle limit: n=49 exceeds limit 48$"):
                oracle(edgeless(49))

    def test_independent_c5(self):
        assert max_independent_set_exact(cycle(5)) == (0, 2)

    def test_independent_k4(self):
        assert max_independent_set_exact(complete(4)) == (0,)

    def test_independent_cycle_power_two(self):
        assert max_independent_set_exact(cycle_power(2)) == (0, 3, 6)

    @settings(max_examples=80, deadline=None)
    @given(raw_graphs(max_n=9))
    def test_matches_brute_enumeration(self, g):
        assert len(max_clique_exact(g)) == brute_omega(g)
        assert len(max_independent_set_exact(g)) == brute_alpha(g)

    @settings(max_examples=80, deadline=None)
    @given(raw_graphs(max_n=9))
    def test_returns_the_lexicographically_least_maximum_clique(self, g):
        # combinations() yields subsets in lexicographic order, so the
        # first maximum-size clique it produces is the expected one.
        expected = ()
        for size in range(g.n, 0, -1):
            for subset in itertools.combinations(range(g.n), size):
                if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                    expected = subset
                    break
            if expected:
                break
        assert max_clique_exact(g) == expected

    @settings(max_examples=60, deadline=None)
    @given(raw_graphs(max_n=9))
    def test_independent_set_search_is_lexicographically_least(self, g):
        for t in range(1, g.n + 1):
            expected = next(
                (
                    subset
                    for subset in itertools.combinations(range(g.n), t)
                    if not any(
                        g.has_edge(u, v)
                        for u, v in itertools.combinations(subset, 2)
                    )
                ),
                None,
            )
            assert find_independent_set_of_size(g, t) == expected

    @settings(max_examples=60, deadline=None)
    @given(raw_graphs(max_n=9))
    def test_alpha_equals_omega_of_complement(self, g):
        assert len(max_independent_set_exact(g)) == len(max_clique_exact(complement(g)))

    @settings(max_examples=40, deadline=None)
    @given(raw_graphs(max_n=9))
    def test_monotone_under_induced_subgraphs(self, g):
        keep = [v for v in range(g.n) if v % 2 == 0]
        sub = build_graph(len(keep), [
            (i, j)
            for (i, u), (j, v) in itertools.combinations(enumerate(keep), 2)
            if g.has_edge(u, v)
        ])
        assert len(max_clique_exact(sub)) <= len(max_clique_exact(g))


class TestGreedyIndependentSet:
    def test_c5(self):
        assert greedy_maximal_independent_set(cycle(5)) == (0, 2)

    def test_edgeless(self):
        assert greedy_maximal_independent_set(edgeless(4)) == (0, 1, 2, 3)

    def test_k4(self):
        assert greedy_maximal_independent_set(complete(4)) == (0,)

    @settings(max_examples=150, deadline=None)
    @given(raw_graphs(max_n=12))
    def test_independent_and_maximal(self, g):
        s = greedy_maximal_independent_set(g)
        members = set(s)
        for u, v in itertools.combinations(s, 2):
            assert not g.has_edge(u, v)
        for v in range(g.n):
            if v not in members:
                assert any(g.has_edge(v, u) for u in members)


class TestIndependentSetOfSize:
    def test_c5_pair(self):
        assert find_independent_set_of_size(cycle(5), 2) == (0, 2)

    def test_c5_triple_does_not_exist(self):
        assert find_independent_set_of_size(cycle(5), 3) is None

    def test_cycle_power_two_triple(self):
        assert find_independent_set_of_size(cycle_power(2), 3) == (0, 3, 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(GraphInputError):
            find_independent_set_of_size(cycle(5), 0)


class TestBipartition:
    def test_c6(self):
        assert bipartition(cycle(6)) == ((0, 2, 4), (1, 3, 5))

    def test_c5_witness(self):
        got = bipartition(cycle(5))
        assert got == OddCycle((0, 1, 2, 3, 4))

    def test_p4(self):
        assert bipartition(path(4)) == ((0, 2), (1, 3))

    def test_pentagram_witness(self):
        got = bipartition(complement(cycle(5)))
        assert isinstance(got, OddCycle)
        assert got.vertices == (0, 2, 4, 1, 3)

    @settings(max_examples=150, deadline=None)
    @given(raw_graphs(max_n=12))
    def test_partition_or_induced_odd_cycle(self, g):
        got = bipartition(g)
        if isinstance(got, OddCycle):
            cyc = got.vertices
            assert len(cyc) % 2 == 1 and len(cyc) >= 3
            k = len(cyc)
            for i in range(k):
                assert g.has_edge(cyc[i], cyc[(i + 1) % k])
            for i in range(k):
                for j in range(i + 2, k):
                    if (j + 1) % k != i:
                        assert not g.has_edge(cyc[i], cyc[j])
        else:
            p1, p2 = got
            assert sorted({*p1, *p2}) == list(range(g.n))
            for part in (p1, p2):
                for u, v in itertools.combinations(part, 2):
                    assert not g.has_edge(u, v)


class TestAgainstReferences:
    """The bit-parallel kernels against verbatim copies of the code they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(raw_graphs(max_n=12), raw_graphs(max_n=7), st.booleans(), st.booleans())
    def test_bipartition_matches_reference(self, g, h, flip, union):
        g = complement(g) if flip else g
        g = disjoint_union(g, h) if union else g
        assert bipartition(g) == reference_bipartition(g)

    @pytest.mark.parametrize("low", [edgeless(1), path(4), cycle(6), complement(cycle(4))])
    @pytest.mark.parametrize("high", [cycle(3), cycle(5), complement(cycle(7)), petersen()])
    def test_bipartite_component_below_an_odd_one(self, low, high):
        g = disjoint_union(low, high)
        assert isinstance(bipartition(g), OddCycle)
        assert bipartition(g) == reference_bipartition(g)
        g = disjoint_union(high, low)
        assert bipartition(g) == reference_bipartition(g)

    @settings(max_examples=300, deadline=None)
    @given(raw_graphs(max_n=14), st.booleans())
    def test_odd_cycle_matches_reference(self, g, flip):
        g = complement(g) if flip else g
        try:
            expected = reference_shortest_odd_cycle(g)
        except InvariantViolation:
            with pytest.raises(InvariantViolation):
                _shortest_odd_cycle(g)
            return
        assert _shortest_odd_cycle(g) == expected

    @settings(max_examples=200, deadline=None)
    @given(raw_graphs(max_n=14), st.booleans(), st.data())
    def test_lex_clique_matches_reference(self, g, flip, data):
        g = complement(g) if flip else g
        mask = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        omega = reference_clique_search(g.adj, mask, 0, g.n)
        for stop in range(g.n + 2):
            expected = reference_lex_first_clique(g.adj, mask, min(stop, omega))
            assert _lex_clique(g.adj, mask, stop, [1] * g.n) == expected

    @settings(max_examples=200, deadline=None)
    @given(raw_graphs(max_n=10), st.booleans(), st.data())
    def test_weighted_lex_clique_matches_enumeration(self, g, flip, data):
        # Sorted tuples compare as the search meets cliques: a prefix first.
        g = complement(g) if flip else g
        mask = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        weight = data.draw(st.lists(
            st.integers(min_value=1, max_value=4), min_size=g.n, max_size=g.n
        ))
        members = [v for v in range(g.n) if mask >> v & 1]
        cliques = [
            subset
            for size in range(len(members) + 1)
            for subset in itertools.combinations(members, size)
            if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2))
        ]
        top = max(sum(weight[v] for v in c) for c in cliques)
        expected = min(c for c in cliques if sum(weight[v] for v in c) == top)
        expected_mask = sum(1 << v for v in expected)
        for best in range(top + 1):
            got = _lex_clique(g.adj, mask, sum(weight) + 1, weight, best)
            assert got == (expected_mask if best < top else 0)

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(raw_graphs(max_n=14), c4free_graphs(max_n=26)))
    def test_max_independent_set_matches_reference(self, g):
        # Two runs: the size on the reversed labelling, then the least set.
        assert max_independent_set_exact(g) == reference_max_clique(complement(g))

    @settings(max_examples=200, deadline=None)
    @given(raw_graphs(max_n=14), st.booleans())
    def test_max_clique_matches_reference(self, g, flip):
        g = complement(g) if flip else g
        assert max_clique_exact(g) == reference_max_clique(g)

    @settings(max_examples=150, deadline=None)
    @given(raw_graphs(max_n=14), st.booleans())
    def test_independent_set_of_size_matches_reference(self, g, flip):
        # t runs past alpha on most draws, so absent sizes are covered too.
        g = complement(g) if flip else g
        for t in range(1, 7):
            got = find_independent_set_of_size(g, t)
            assert got == reference_independent_set_of_size(g, t)

    @pytest.mark.parametrize("k", [5, 7, 9])
    def test_odd_cycles(self, k):
        assert _shortest_odd_cycle(cycle(k)) == tuple(range(k))
        assert reference_shortest_odd_cycle(cycle(k)) == tuple(range(k))

    def test_petersen_graph_has_odd_girth_five(self):
        g = petersen()
        assert not _has_triangle(g.adj)
        got = _shortest_odd_cycle(g)
        assert len(got) == 5
        assert got == reference_shortest_odd_cycle(g)

    def test_bipartite_component_below_an_odd_one(self):
        g = disjoint_union(cycle(6), path(3), cycle(5))
        assert _shortest_odd_cycle(g) == (9, 10, 11, 12, 13)
        assert reference_shortest_odd_cycle(g) == (9, 10, 11, 12, 13)

    def test_both_stopping_rules_fire(self, monkeypatch):
        # Sources 1..6 of the C7 are cut once their walks reach length 7;
        # the C5's first source finds length 5 in a triangle-free graph, and
        # the search ends there without trying sources 8..11.
        g = disjoint_union(cycle(7), cycle(5))
        sources = []
        walk = graph_module._least_odd_walk

        def counted(adj, s, limit):
            sources.append((s, limit))
            return walk(adj, s, limit)

        monkeypatch.setattr(graph_module, "_least_odd_walk", counted)
        assert _shortest_odd_cycle(g) == (7, 8, 9, 10, 11)
        assert sources == [(0, 24)] + [(s, 7) for s in range(1, 8)]
        assert reference_shortest_odd_cycle(g) == (7, 8, 9, 10, 11)

    def test_a_tie_keeps_the_first_source(self):
        # Only a strictly shorter walk replaces the best one, so the second
        # C7 never wins, although every one of its sources reaches length 7.
        g = disjoint_union(cycle(7), cycle(7))
        assert _shortest_odd_cycle(g) == tuple(range(7))
        assert reference_shortest_odd_cycle(g) == tuple(range(7))

    def test_relabelled_w5_blowup_complement(self):
        g = complement(relabelled_w5_blowup((3, 4, 2, 3, 5, 2), 1))
        assert _shortest_odd_cycle(g) == reference_shortest_odd_cycle(g)

    def test_one_bfs_per_odd_cycle(self, monkeypatch):
        # A deterministic work guard: the witness path is rebuilt from one
        # BFS of the winning source, not one BFS per source.
        g = complement(relabelled_w5_blowup((30,) * 6, 1))
        calls = []
        bfs = graph_module._bfs

        def counted(graph, source):
            calls.append(source)
            return bfs(graph, source)

        monkeypatch.setattr(graph_module, "_bfs", counted)
        got = _shortest_odd_cycle(g)
        assert len(calls) == 1
        assert got == reference_shortest_odd_cycle(g)


class TestBfsTree:
    # The tree is built one mask per dequeued vertex; the per-edge loop it
    # replaced must give the same parents, so the same odd-cycle witness.

    @settings(max_examples=200, deadline=None)
    @given(component_graphs(max_n=40))
    def test_parents_match_reference_from_every_source(self, g):
        for s in range(g.n):
            assert _bfs(g, s) == reference_bfs(g, s)

    @pytest.mark.parametrize("g", [
        edgeless(7), complete(9), build_graph(6, [(0, 1), (2, 3), (3, 4)]),
        relabelled(cycle_power(60), 1), relabelled_w5_blowup((30,) * 6, 1),
    ], ids=["edgeless", "complete", "disconnected", "cycle-power-60", "w5-180"])
    def test_fixed_graphs_and_complements(self, g):
        for h in (g, complement(g)):
            for s in range(h.n):
                assert _bfs(h, s) == reference_bfs(h, s)


class TestComplement:
    def test_k4(self):
        assert complement(complete(4)).edge_count == 0

    def test_c5_self_complementary(self):
        comp = complement(cycle(5))
        assert comp.degrees() == [2, 2, 2, 2, 2]
        assert comp.edge_count == 5
        assert find_induced_c4(comp) is None

    def test_p4_relabels_to_a_path(self):
        comp = complement(path(4))
        assert sorted(edges(comp)) == [(0, 2), (0, 3), (1, 3)]

    @settings(max_examples=100, deadline=None)
    @given(raw_graphs(max_n=12))
    def test_involution(self, g):
        assert complement(complement(g)) == g

    @settings(max_examples=150, deadline=None)
    @given(raw_graphs(max_n=12), st.data())
    def test_rows_of_a_mask_are_the_induced_complement(self, g, data):
        # Rows off the mask are 0; rows on it are the complement's, cut to it.
        mask = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        full = complement(g).adj
        expected = [full[v] & mask if mask >> v & 1 else 0 for v in range(g.n)]
        assert _co_rows(g, mask) == expected


class TestMaskedBipartition:
    """The bipartition core and odd-cycle search on the subgraph a mask induces."""

    @settings(max_examples=300, deadline=None)
    @given(raw_graphs(max_n=14), st.booleans(), st.data())
    def test_matches_the_whole_graph_of_the_induced_rows(self, g, flip, data):
        # With the rows cut to the mask, the vertices off it are isolated:
        # the whole-graph bipartition puts them in part one and finds the
        # same odd cycle, since no walk starts or passes there.
        g = complement(g) if flip else g
        mask = data.draw(st.integers(min_value=0, max_value=g.full_mask))
        h = _graph_of([row & mask if mask >> v & 1 else 0 for v, row in enumerate(g.adj)])
        got, whole = _bipartition(h, mask), bipartition(h)
        if isinstance(whole, OddCycle):
            assert got == whole
            assert _shortest_odd_cycle(h, mask) == whole.vertices
            assert _has_triangle(h.adj, mask) == _has_triangle(h.adj)
        else:
            assert [_mask_of(part) & mask for part in whole] == list(got)
            assert got[0] | got[1] == mask and not got[0] & got[1]


class TestDeterminism:
    def test_repeated_calls_identical(self):
        g = cycle_power(3)
        assert max_clique_exact(g) == max_clique_exact(g)
        assert find_induced_c4(house()) == find_induced_c4(house())
        assert bipartition(complement(g)) == bipartition(complement(g))
