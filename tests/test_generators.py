from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import c4free.generators as generators
import c4free.graph as graph_module
import helpers
from c4free import (
    GraphInputError,
    InvariantViolation,
    build_graph,
    clique_substitution,
    cycle_power,
    find_induced_c4,
    max_clique_exact,
    max_independent_set_exact,
    random_c4free,
    serialize_graph,
    w5_base,
    w5_blowup,
)
from c4free.generators import (
    SplitMix64,
    _co_bipartite_c4free,
    _draws_below,
    _sample_edge_masks,
)
from c4free.graph import FoundC4
from c4free.suites import SuiteConfig, run_suite
from helpers import (
    ReferenceSplitMix64,
    c4free_graphs,
    cycle,
    path,
    raw_graphs,
    reference_clique_substitution,
    reference_co_bipartite_c4free,
    reference_co_bipartite_sample,
    reference_sample_edge_masks,
    reference_scan,
    restart_repair,
)


class TestCyclePower:
    def test_k1_is_c5(self):
        g = cycle_power(1)
        assert g == cycle(5)
        assert len(max_clique_exact(g)) == 2

    def test_k2(self):
        g = cycle_power(2)
        assert g.n == 9
        assert g.degrees() == [4] * 9
        assert len(max_clique_exact(g)) == 3

    def test_k3(self):
        g = cycle_power(3)
        assert g.n == 13
        assert g.degrees() == [6] * 13
        assert find_induced_c4(g) is None

    def test_k0_rejected(self):
        with pytest.raises(GraphInputError):
            cycle_power(0)

    @pytest.mark.parametrize("k", range(1, 7))
    def test_clique_number_is_k_plus_one(self, k):
        assert len(max_clique_exact(cycle_power(k))) == k + 1

    def test_rows_and_cached_verdict(self):
        # The rows follow the circular-distance definition, and the row-0
        # guard leaves its clean verdict on the graph.
        for k in range(1, 61):
            n = 4 * k + 1
            g = cycle_power(k)
            assert g == build_graph(n, [
                (i, j) for i, j in itertools.combinations(range(n), 2) if min(j - i, n - j + i) <= k
            ])
            assert "_witness" in vars(g) and vars(g)["_witness"] is None


def circulant(n: int, jumps) -> list[int]:
    """Rows of the circulant on n vertices joining i to i + j and i - j for each jump."""
    row = 0
    for j in jumps:
        row |= 1 << j % n | 1 << -j % n
    return [(row << i | row >> n - i) & (1 << n) - 1 for i in range(n)]


def guard_message(rows) -> str | None:
    try:
        generators._require_circulant_c4free(rows)
    except InvariantViolation as exc:
        return str(exc)
    return None


class TestCirculantGuard:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2, max_value=40).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(min_value=1, max_value=n // 2)))
    ))
    def test_raises_exactly_when_the_full_scan_finds_a_witness(self, case):
        # The full scan's first witness lies in row 0, so the guard names it.
        n, jumps = case
        rows = circulant(n, jumps)
        witness = reference_scan(rows, n)
        expected = None if witness is None else f"circulant contains an induced 4-cycle {tuple(witness)}"
        assert guard_message(rows) == expected

    @pytest.mark.parametrize("n, jumps, witness", [
        (4, [1], (0, 1, 2, 3)),
        (8, [1, 3], (0, 1, 2, 3)),
        (12, [1, 2, 5], (0, 1, 3, 5)),
        (13, [1, 5], (0, 5, 4, 12)),
        (17, [2, 3, 7], (0, 3, 1, 15)),
    ])
    def test_circulant_with_an_induced_c4(self, n, jumps, witness):
        assert guard_message(circulant(n, jumps)) == f"circulant contains an induced 4-cycle {witness}"

    @pytest.mark.parametrize("k, flips, first", [
        (5, [(7, 9), (9, 7)], 7),
        (5, [(19, 20), (20, 19)], 19),
        (2, [(0, 4), (4, 0)], 1),
        (1, [(2, 4), (4, 2)], 2),
        (3, [(12, 3)], 12),
    ])
    def test_one_row_out_of_rotation(self, k, flips, first):
        rows = list(cycle_power(k).adj)
        for row, bit in flips:
            rows[row] ^= 1 << bit
        assert guard_message(rows) == (
            f"row {first} of a circulant is not row {first - 1} rotated by one"
        )


class TestCliqueSubstitution:
    def test_all_ones_is_identity(self):
        base = cycle(5)
        assert clique_substitution(base, [1] * 5) == base

    def test_c5_with_one_doubled(self):
        g = clique_substitution(cycle(5), [2, 1, 1, 1, 1])
        assert g.n == 6
        assert find_induced_c4(g) is None
        assert g.min_degree() == 2

    def test_zero_size_deletes(self):
        assert clique_substitution(cycle(5), [0, 1, 1, 1, 1]) == path(4)

    def test_rejects_base_with_induced_c4(self):
        with pytest.raises(GraphInputError):
            clique_substitution(cycle(4), [1, 1, 1, 1])

    def test_rejects_bad_sizes(self):
        with pytest.raises(GraphInputError):
            clique_substitution(cycle(5), [1, 1, 1, 1])
        with pytest.raises(GraphInputError):
            clique_substitution(cycle(5), [1, 1, -1, 1, 1])

    def test_group_labels_are_contiguous_ascending(self):
        g = clique_substitution(path(3), [2, 1, 3])
        # groups: {0,1}, {2}, {3,4,5}
        assert g.has_edge(0, 1)
        assert g.has_edge(0, 2) and g.has_edge(1, 2)
        assert g.has_edge(2, 3) and g.has_edge(2, 5)
        assert not g.has_edge(0, 3)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        num=st.integers(min_value=0, max_value=10),
        n=st.integers(min_value=0, max_value=8),
        data=st.data(),
    )
    def test_closure_on_random_bases(self, seed, num, n, data):
        base = random_c4free(n, Fraction(num, 10), seed)
        sizes = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=3),
                min_size=base.n,
                max_size=base.n,
            )
        )
        blown = clique_substitution(base, sizes)
        assert blown.n <= 30
        assert find_induced_c4(blown) is None


def _substitution_outcome(substitute, base, sizes):
    # A Graph compares equal on n, adj and edge_count; a refusal on its text.
    try:
        return substitute(base, sizes)
    except GraphInputError as exc:
        return str(exc)


class TestSubstitutionMatchesReference:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(c4free_graphs(max_n=10), raw_graphs(max_n=6)), st.data())
    def test_random_bases(self, base, data):
        # Raw bases often hold an induced C4, so the refusal is compared too.
        sizes = data.draw(st.lists(
            st.integers(min_value=0, max_value=4), min_size=base.n, max_size=base.n
        ))
        assert _substitution_outcome(clique_substitution, base, sizes) == (
            _substitution_outcome(reference_clique_substitution, base, sizes)
        )

    @pytest.mark.parametrize("sizes", [[1, 1, 1, 1], [1, 1, -1, 1, 1], [0, 0, 0, 0, 0]])
    def test_size_checks(self, sizes):
        assert _substitution_outcome(clique_substitution, cycle(5), sizes) == (
            _substitution_outcome(reference_clique_substitution, cycle(5), sizes)
        )

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_cycle_powers(self, k):
        base = cycle_power(k)
        for sizes in ([1] * base.n, [(v * 7) % 4 for v in range(base.n)]):
            assert _substitution_outcome(clique_substitution, base, sizes) == (
                _substitution_outcome(reference_clique_substitution, base, sizes)
            )

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=8), min_size=6, max_size=6))
    def test_w5_blowups(self, sizes):
        assert w5_blowup(sizes) == reference_clique_substitution(w5_base(), sizes)

    def test_largest_benchmark_blowup(self):
        sizes = (30,) * 6
        assert w5_blowup(sizes) == reference_clique_substitution(w5_base(), sizes)


class TestW5Blowup:
    def test_identity_sizes_give_w5(self):
        g = w5_blowup([1, 1, 1, 1, 1, 1])
        assert g == w5_base()
        assert len(max_independent_set_exact(g)) == 2
        assert len(max_clique_exact(g)) == 3

    def test_hub_deleted_gives_c5(self):
        assert w5_blowup([0, 1, 1, 1, 1, 1]) == cycle(5)

    def test_doubled_hub(self):
        g = w5_blowup([2, 1, 1, 1, 1, 1])
        assert g.n == 7
        assert len(max_clique_exact(g)) == 4

    def test_matches_generic_substitution(self):
        sizes = [2, 1, 3, 1, 2, 1]
        assert w5_blowup(sizes) == clique_substitution(w5_base(), sizes)

    def test_wrong_size_count_rejected(self):
        with pytest.raises(GraphInputError):
            w5_blowup([1, 1, 1])

    def test_base_is_built_once_and_keeps_its_verdict(self):
        # Hub 0 sees the rim; rim vertex i sees i % 5 + 1 and (i - 2) % 5 + 1.
        rim = [1 | 1 << i % 5 + 1 | 1 << (i - 2) % 5 + 1 for i in range(1, 6)]
        assert w5_base().adj == (0b111110, *rim)
        assert w5_base() is w5_base()
        w5_blowup([1, 2, 1, 2, 1, 2])
        assert w5_base().__dict__["_witness"] is None

    @settings(max_examples=50, deadline=None)
    @given(
        sizes=st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=3),
        )
    )
    def test_independence_number_at_most_two(self, sizes):
        g = w5_blowup(list(sizes))
        assert len(max_independent_set_exact(g)) <= 2


class TestRandomC4Free:
    def test_empty(self):
        g = random_c4free(0, Fraction(1, 2), 7)
        assert g.n == 0 and g.edge_count == 0

    def test_output_is_c4free(self):
        for seed in range(10):
            g = random_c4free(16, Fraction(1, 2), seed)
            assert find_induced_c4(g) is None

    def test_deterministic(self):
        a = random_c4free(20, Fraction(1, 3), 99)
        b = random_c4free(20, Fraction(1, 3), 99)
        assert a == b
        assert serialize_graph(a) == serialize_graph(b)

    def test_known_splitmix_stream(self):
        # Frozen first outputs of splitmix64 with seed 0; these pin the
        # generator across platforms and refactors.
        rng = SplitMix64(0)
        assert rng.next_u64() == 0xE220A8397B1DCDAF
        assert rng.next_u64() == 0x6E789E6AA1B965F4

    def test_repair_only_deletes_sampled_edges(self):
        n, p, seed = 14, Fraction(6, 10), 5
        raw = _sample_edge_masks(n, p, seed)
        repaired = random_c4free(n, p, seed)
        for v in range(n):
            assert repaired.adj[v] & ~raw[v] == 0
        raw_count = sum(row.bit_count() for row in raw) // 2
        assert repaired.edge_count <= raw_count

    def test_rejects_bad_probability(self):
        with pytest.raises(GraphInputError):
            random_c4free(5, Fraction(3, 2), 1)

    def test_boundary_probabilities(self):
        assert random_c4free(6, 0, 3).edge_count == 0
        g = random_c4free(6, 1, 3)
        # p = 1 gives the complete graph, which has no induced 4-cycle.
        assert g.edge_count == 15

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=1, max_value=16),
        st.integers(min_value=0, max_value=10),
        st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_skip_isolated_drops_exactly_the_isolated_results(self, n, num, seed):
        # Repair never isolates a vertex, so rejecting on the sample is exact.
        full = random_c4free(n, Fraction(num, 10), seed)
        skipped = random_c4free(n, Fraction(num, 10), seed, skip_isolated=True)
        assert skipped == (None if full.min_degree() < 1 else full)


def _recorded(make):
    """Run make(); return its graph, the sampled adjacency and the deletions.

    The repair works on the list that _sample_edge_masks returns, so that
    list is swapped for one that logs its writes.
    """
    real_sample = generators._sample_edge_masks
    seen = {}

    def logged_sample(n, p, seed):
        seen["rows"] = helpers.LoggedRows(real_sample(n, p, seed))
        seen["sampled"] = list(seen["rows"])
        return seen["rows"]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_sample_edge_masks", logged_sample)
        g = make()
    return g, seen["sampled"], seen["rows"].deletions()


class TestResumedRepair:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=24),
        p=st.one_of(
            st.integers(min_value=0, max_value=10).map(lambda k: Fraction(k, 10)),
            st.fractions(min_value=0, max_value=1, max_denominator=1000),
        ),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_deletions_match_restarting_reference(self, n, p, seed):
        g, sampled, deleted = _recorded(lambda: random_c4free(n, p, seed))
        adj, ref_fixes = restart_repair(sampled, n, chord=False)
        assert deleted == [(witness.a, witness.b) for witness in ref_fixes]
        assert g.adj == adj
        assert g.edge_count == sum(row.bit_count() for row in adj) // 2

    @pytest.mark.parametrize("n", [100, 200])
    @pytest.mark.parametrize("p", [Fraction(1, 2), Fraction(9, 10)], ids=["half", "nine-tenths"])
    def test_deletions_match_resumed_reference_at_larger_n(self, n, p):
        # Restarting from row 0 after each of the 16,283 deletions at n = 200,
        # p = 9/10 takes over a minute, so these sizes are held against the
        # resumed reference, which the test above ties to the restart.
        g, sampled, deleted = _recorded(lambda: random_c4free(n, p, n))
        rows = helpers.LoggedRows(sampled)
        expected = helpers.reference_repair(rows, n)
        assert len(deleted) > n
        assert deleted == rows.deletions()
        assert g.adj == expected.adj

    def test_out_of_frame_resumes_are_taken(self, monkeypatch):
        # The suite config pinned as bounds-general-120 in the golden tests
        # makes deletions whose resume row lies below the witness row, so the
        # path out of the scan's frame is exercised there.
        real_scan = generators._scan_induced_c4
        resumes = []

        def spy(adj, n, start=0, verts=-1, budget=None, repair=False):
            row = real_scan(adj, n, start, verts, budget, repair)
            if repair and row is not None:
                resumes.append((row, adj.deletions()[-1][0]))
            return row

        real_sample = generators._sample_edge_masks
        monkeypatch.setattr(generators, "_sample_edge_masks",
                            lambda n, p, seed: helpers.LoggedRows(real_sample(n, p, seed)))
        monkeypatch.setattr(generators, "_scan_induced_c4", spy)
        report = run_suite(SuiteConfig(suite="bounds-general", seed=3, samples=20, max_n=120))
        assert report.all_passed()
        assert resumes
        assert all(row < witness_row for row, witness_row in resumes)

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=24),
        side_mask=st.integers(min_value=0, max_value=2**30),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_chords_match_restarting_reference(self, n, side_mask, seed):
        # The row kernel keeps no fix list, so its graph is compared; side
        # mask bits at or above n are ignored.
        g = _co_bipartite_c4free(n, side_mask, seed)
        sampled = reference_co_bipartite_sample(n, side_mask, seed)
        adj = restart_repair(sampled, n, chord=True)[0]
        assert g.adj == adj
        assert g.edge_count == sum(row.bit_count() for row in adj) // 2

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=16),
        k=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        chord=st.booleans(),
    )
    def test_no_new_witness_below_resume_row(self, n, k, seed, chord):
        # The resume claim itself, checked after every fix of a full repair
        # of an arbitrary sampled graph, chords included (by the resumed
        # reference in helpers).
        adj = _sample_edge_masks(n, Fraction(k, 10), seed)
        fix = helpers._add_chord if chord else helpers._delete_edge
        while (witness := reference_scan(adj, n)) is not None:
            start = fix(adj, witness)
            after = reference_scan(adj, n)
            assert after is None or after.a >= start

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(min_value=4, max_value=24),
        side_mask=st.integers(min_value=0, max_value=2**24 - 1),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    def test_chords_never_spoil_a_lower_row(self, n, side_mask, seed):
        # What lets the row kernel visit each row once: in a co-bipartite
        # graph, the restarting repair's chord rows never go down.
        _, fixes = restart_repair(reference_co_bipartite_sample(n, side_mask, seed), n, chord=True)
        rows = [witness.a for witness in fixes]
        assert rows == sorted(rows)

    @pytest.mark.parametrize(
        "seam, make, chord",
        [
            pytest.param("_scan_induced_c4", lambda: random_c4free(16, Fraction(1, 2), 1), False,
                         id="_scan_induced_c4"),
            ("_add_chord", lambda: reference_co_bipartite_c4free(16, 0x00FF, 1), True),
        ],
    )
    def test_wrong_resume_row_is_caught(self, monkeypatch, seam, make, chord):
        # A scan that deletes one edge and then names a resume row past the
        # end must be caught by the final clean scan. The chord case guards
        # the resumed loop that the row kernel is checked against; the
        # kernel's own guard is its final scan (TestCoBipartiteKernel).
        if chord:
            sampled = reference_co_bipartite_sample(16, 0x00FF, 1)
        else:
            _, sampled, _ = _recorded(make)
        assert len(restart_repair(sampled, 16, chord)[1]) >= 2
        module = helpers if chord else generators
        real = getattr(module, seam)
        if chord:
            def stand_in(adj, witness):
                real(adj, witness)
                return len(adj)
        else:
            stand_in = helpers.skipping_scan(real)
        monkeypatch.setattr(module, seam, stand_in)
        with pytest.raises(InvariantViolation):
            make()


class TestCoBipartiteKernel:
    """The row kernel on the complement against the resumed chord repair."""

    @pytest.mark.parametrize("n", [100, 200, 300])
    @pytest.mark.parametrize("pattern", ["none", "all", "alternating", "random"])
    def test_matches_resumed_reference(self, n, pattern):
        side_mask = {
            "none": 0,
            "all": (1 << n) - 1,
            "alternating": int("01" * n, 2),
            "random": random.Random(n).getrandbits(n + 8),
        }[pattern]
        seed = n * 1000 + len(pattern)
        expected = reference_co_bipartite_c4free(n, side_mask, seed)
        assert _co_bipartite_c4free(n, side_mask, seed).adj == expected.adj

    def test_final_scan_catches_a_bad_result(self, monkeypatch):
        # The check is the graph's own verdict, a scan of its class minima.
        monkeypatch.setattr(graph_module, "_scan_induced_c4", lambda *args: FoundC4(0, 1, 2, 3))
        with pytest.raises(InvariantViolation, match=r"left the induced 4-cycle \(0, 1, 2, 3\)"):
            _co_bipartite_c4free(8, 0x0F, 1)


# Seeds outside [0, 2**64) are taken mod 2**64, as SplitMix64 does.
seeds = st.one_of(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=-(2**70), max_value=-1),
    st.integers(min_value=2**64, max_value=2**70),
)
# p = 0 and 1, and non-dyadic p whose threshold p * 2**64 must be rounded up.
probabilities = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 3), Fraction(6, 29), Fraction(1, 2)]),
    st.fractions(min_value=0, max_value=1, max_denominator=1000),
)


class TestLaneDraws:
    """The lane kernel against the per-pair loops it replaced."""

    @settings(max_examples=100, deadline=None)
    @given(seed=seeds, count=st.integers(min_value=0, max_value=2600), data=st.data())
    def test_flags_match_the_stream(self, seed, count, data):
        # Thresholds sit on and next to drawn values, across chunk borders.
        rng = ReferenceSplitMix64(seed)
        stream = [rng.next_u64() for _ in range(count)]
        k = data.draw(st.integers(min_value=0, max_value=max(count - 1, 0)))
        pivot = stream[k] if stream else 0
        threshold = data.draw(st.one_of(
            st.sampled_from([0, 2**64, pivot, pivot + 1]),
            st.integers(min_value=0, max_value=2**64),
        ))
        expected = bytes(x < threshold for x in stream)
        assert bytes(_draws_below(seed, count, threshold)) == expected

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=0, max_value=64), p=probabilities, seed=seeds)
    @example(n=47, p=Fraction(1), seed=-1)
    @example(n=64, p=Fraction(6, 29), seed=2**64)
    def test_sample_matches_reference(self, n, p, seed):
        # Above n = 46 one graph spans more than one chunk of lanes.
        assert _sample_edge_masks(n, p, seed) == reference_sample_edge_masks(n, p, seed)

    @settings(max_examples=150, deadline=None)
    @given(
        seed=seeds,
        n=st.integers(min_value=2, max_value=12),
        den=st.integers(min_value=1, max_value=10**6),
        data=st.data(),
    )
    def test_threshold_rounds_up(self, seed, n, den, data):
        # p * 2**64 lands within 1 of one of the pair draws, so x < p * 2**64
        # and x < threshold disagree there if the threshold is rounded down.
        rng = ReferenceSplitMix64(seed)
        draws = [rng.next_u64() for _ in range(n * (n - 1) // 2)]
        x = data.draw(st.sampled_from(draws))
        offset = data.draw(st.integers(min_value=-den, max_value=den))
        p = Fraction(min(max(x * den + offset, 0), den << 64), den << 64)
        assert _sample_edge_masks(n, p, seed) == reference_sample_edge_masks(n, p, seed)

    def test_non_dyadic_threshold_is_the_ceiling(self):
        x = SplitMix64(5).next_u64()
        assert _sample_edge_masks(2, Fraction(3 * x + 1, 3 << 64), 5) == [2, 1]
        assert _sample_edge_masks(2, Fraction(3 * x - 1, 3 << 64), 5) == [0, 0]

    @settings(max_examples=150, deadline=None)
    @given(n=st.integers(min_value=0, max_value=64), seed=seeds, data=st.data())
    def test_co_bipartite_sample_matches_reference(self, n, seed, data):
        # Bits of the side mask at or above n are ignored.
        side_mask = data.draw(st.one_of(
            st.sampled_from([0, (1 << n) - 1]),
            st.integers(min_value=0, max_value=2**70),
        ))
        sampled = generators._co_bipartite_sample(n, side_mask, seed)
        assert sampled == reference_co_bipartite_sample(n, side_mask, seed)
