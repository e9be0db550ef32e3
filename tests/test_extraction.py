from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4free import (
    GraphInputError,
    InvariantViolation,
    best_pair_intersection,
    build_graph,
    check_certificate,
    clique_substitution,
    common_neighbors,
    cycle_power,
    degree_square_census,
    extract_general,
    extract_large_alpha,
    extract_regular,
    extract_triple,
    find_dominating_nonadjacent_pair,
    greedy_maximal_independent_set,
    is_clique,
    max_clique_exact,
)
from c4free.extraction import METHOD_STRUCTURE, METHOD_TRIPLE, _pair_meets
from helpers import (
    c4free_graphs,
    complete,
    cycle,
    disjoint_cliques,
    edgeless,
    edges,
    neighbors,
    path,
    reference_best_pair_intersection,
    reference_degree_square_census,
    star,
)


class TestDominatingPair:
    def test_c5(self):
        assert find_dominating_nonadjacent_pair(cycle(5)) == (0, 2)

    def test_k4_has_none(self):
        assert find_dominating_nonadjacent_pair(complete(4)) is None

    def test_cycle_power_two_scan_order(self):
        # (0, 3) leaves vertex 6 uncovered; (0, 4) is the first pair that works.
        g = cycle_power(2)
        assert find_dominating_nonadjacent_pair(g) == (0, 4)

    def test_pair_really_dominates(self):
        g = cycle_power(3)
        u, w = find_dominating_nonadjacent_pair(g)
        covered = set(neighbors(g, u)) | set(neighbors(g, w)) | {u, w}
        assert covered == set(range(g.n))
        assert not g.has_edge(u, w)


class TestExtractRegular:
    def test_c5_trace(self):
        cert = extract_regular(cycle(5))
        assert cert.clique == (0, 1)
        assert cert.guaranteed_bound == 2
        assert cert.witness["u"] == 0
        assert cert.witness["w"] == 2
        assert cert.witness["x"] == 1
        assert cert.witness["U1"] == [] and cert.witness["W1"] == []

    @pytest.mark.parametrize("k", range(1, 7))
    def test_sharp_family(self, k):
        g = cycle_power(k)
        cert = extract_regular(g)
        assert cert.size == k + 1
        assert cert.precondition_met
        assert check_certificate(g, cert)
        assert len(max_clique_exact(g)) == k + 1

    @pytest.mark.parametrize("k", range(2, 7))
    def test_internal_counts(self, k):
        # Re-derive every intermediate quantity from the graph and the
        # witness, independently of the extractor's own assertions.
        g = cycle_power(k)
        cert = extract_regular(g)
        w = cert.witness
        assert w["route"] == "dominating-pair"
        u, wv, x = w["u"], w["w"], w["x"]
        x_set = common_neighbors(g, u, wv)
        assert x_set == (x,)
        assert g.degree(u) + g.degree(wv) - len(x_set) == g.n - 2 == 4 * k - 1
        u1, w1 = set(w["U1"]), set(w["W1"])
        assert u1 == set(neighbors(g, x)) & (set(neighbors(g, u)) - {x})
        assert w1 == set(neighbors(g, x)) & (set(neighbors(g, wv)) - {x})
        assert is_clique(g, u1)
        assert is_clique(g, w1)
        cover_u = u1 | {u, x}
        cover_w = w1 | {wv, x}
        outside = set(range(g.n)) - set(w["U2"]) - set(w["W2"])
        assert cover_u | cover_w == outside
        assert cover_u & cover_w == {x}
        assert len(outside) == 2 * k + 1

    def test_structure_route_when_no_pair_exists(self, monkeypatch):
        # Every valid small instance happens to have a dominating pair,
        # so force the fallback: with the pair search silenced, an
        # alpha<=2 instance must route through the decomposition.
        monkeypatch.setattr(
            "c4free.extraction.find_dominating_nonadjacent_pair", lambda g: None
        )
        cert = extract_regular(cycle(5))
        assert cert.method == METHOD_STRUCTURE
        assert cert.witness["route"] == "structure"
        assert cert.size >= 2

    def test_missing_pair_with_triple_is_a_guarantee_violation(self, monkeypatch):
        from c4free import InvariantViolation

        monkeypatch.setattr(
            "c4free.extraction.find_dominating_nonadjacent_pair", lambda g: None
        )
        with pytest.raises(InvariantViolation):
            extract_regular(cycle_power(2))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_relabeled_instances(self, k):
        # A vertex permutation must not change the guarantee, only the
        # witness labels.
        from c4free.generators import SplitMix64

        g = cycle_power(k)
        rng = SplitMix64(1000 + k)
        perm = list(range(g.n))
        for i in range(g.n - 1, 0, -1):
            j = rng.next_below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in edges(g)])
        cert = extract_regular(relabeled)
        assert cert.size == k + 1
        assert check_certificate(relabeled, cert)

    def test_rejects_wrong_vertex_count(self):
        with pytest.raises(GraphInputError):
            extract_regular(cycle(6))

    def test_rejects_non_regular(self):
        g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
        with pytest.raises(GraphInputError):
            extract_regular(g)


class TestBestPairIntersection:
    def test_cycle_power_two_tie_break(self):
        g = cycle_power(2)
        assert best_pair_intersection(g, [0, 3, 6]) == (0, 3, (1, 2))

    def test_star_leaves(self):
        g = star(5)
        xi, xj, clique = best_pair_intersection(g, [1, 2, 3, 4, 5])
        assert (xi, xj) == (1, 2)
        assert clique == (0,)

    def test_disjoint_cliques_empty(self):
        g = disjoint_cliques(3, 4)
        assert best_pair_intersection(g, [0, 4, 8]) == (0, 4, ())

    def test_too_small_rejected(self):
        with pytest.raises(GraphInputError):
            best_pair_intersection(cycle(5), [0])

    def test_dependent_set_rejected(self):
        with pytest.raises(GraphInputError):
            best_pair_intersection(cycle(5), [0, 1])


class TestExtractGeneral:
    def test_c5_covering_route(self):
        cert = extract_general(cycle(5))
        assert cert.guaranteed_bound == Fraction(1, 3)
        assert cert.clique == (0, 4)
        assert cert.witness["route"] == "covering"

    def test_k6_returns_everything(self):
        cert = extract_general(complete(6))
        assert cert.clique == (0, 1, 2, 3, 4, 5)
        assert cert.guaranteed_bound == Fraction(25, 17)

    def test_cycle_power_two(self):
        g = cycle_power(2)
        cert = extract_general(g)
        assert cert.guaranteed_bound == Fraction(16, 22)
        assert cert.size >= 2
        assert cert.size <= len(max_clique_exact(g))

    def test_isolated_vertex_graph(self):
        cert = extract_general(edgeless(3))
        assert cert.clique == (0,)
        assert cert.guaranteed_bound == 0
        assert cert.precondition_met

    def test_augmentation_when_greedy_set_is_poor(self):
        # Star-labeled P3: the greedy scan picks only the center, whose
        # private-neighbor set {1, 2} is not a clique, so the extractor
        # must swap to the leaf pair before covering.
        g = build_graph(3, [(0, 1), (0, 2)])
        cert = extract_general(g)
        assert cert.witness["augmentations"] == 1
        assert cert.witness["independent_set"] == [1, 2]
        assert cert.size >= 1

    def test_rejects_graph_with_induced_c4(self):
        with pytest.raises(GraphInputError):
            extract_general(cycle(4))

    def test_rejects_empty_graph(self):
        with pytest.raises(GraphInputError):
            extract_general(edgeless(0))

    def test_exact_alpha_mode(self):
        cert = extract_general(cycle(5), exact_alpha=True)
        assert cert.witness["alpha_mode"] == "exact"
        assert cert.witness["augmentations"] == 0
        assert cert.clique == (0, 4)

    def test_exact_alpha_handles_poor_greedy_labeling(self):
        # The labeling that forces the greedy path to augment works
        # directly when starting from a maximum independent set.
        g = build_graph(3, [(0, 1), (0, 2)])
        cert = extract_general(g, exact_alpha=True)
        assert cert.witness["independent_set"] == [1, 2]
        assert cert.witness["augmentations"] == 0

    def test_exact_alpha_respects_oracle_limit(self):
        from c4free import OracleLimitError, random_c4free

        g = random_c4free(10, Fraction(2, 5), 0)
        assert g.min_degree() >= 1
        with pytest.raises(OracleLimitError):
            extract_general(g, exact_alpha=True, oracle_limit=5)

    @settings(max_examples=40, deadline=None)
    @given(c4free_graphs(max_n=18))
    def test_exact_alpha_agrees_on_the_bound(self, g):
        if g.n == 0 or g.min_degree() == 0:
            return
        greedy = extract_general(g)
        exact = extract_general(g, exact_alpha=True)
        assert exact.guaranteed_bound == greedy.guaranteed_bound
        assert Fraction(exact.size) >= exact.guaranteed_bound

    @settings(max_examples=60, deadline=None)
    @given(c4free_graphs(max_n=24))
    def test_bound_and_soundness(self, g):
        if g.n == 0:
            return
        cert = extract_general(g)
        delta = g.min_degree()
        bound = Fraction(delta * delta, 2 * g.n + delta)
        assert cert.guaranteed_bound == (bound if delta else Fraction(0))
        assert cert.size >= math.ceil(bound)
        assert is_clique(g, cert.clique)
        assert cert.size <= len(max_clique_exact(g))

    @settings(max_examples=40, deadline=None)
    @given(c4free_graphs(max_n=16))
    def test_adding_universal_vertex_never_shrinks_result(self, g):
        if g.n == 0:
            return
        bigger = build_graph(
            g.n + 1, list(edges(g)) + [(v, g.n) for v in range(g.n)]
        )
        assert extract_general(bigger).size >= extract_general(g).size


class TestExtractTriple:
    def test_cycle_power_two(self):
        cert = extract_triple(cycle_power(2))
        assert cert.method == METHOD_TRIPLE
        assert cert.clique == (1, 2)
        assert cert.guaranteed_bound == Fraction(1)
        assert cert.size > 1

    def test_star_negative_bound(self):
        cert = extract_triple(star(5))
        assert cert.clique == (0,)
        assert cert.guaranteed_bound == Fraction(-1)
        assert cert.precondition_met

    def test_p4_structure_route(self):
        cert = extract_triple(path(4))
        assert cert.method == METHOD_STRUCTURE
        assert cert.clique == (0, 1)
        assert cert.size >= math.ceil(Fraction(8, 5))

    def test_empty_intersection_is_honest(self):
        g = disjoint_cliques(3, 4)
        cert = extract_triple(g)
        assert cert.clique == ()
        assert Fraction(cert.size) > cert.guaranteed_bound

    def test_high_degree_clears_precondition_flag(self):
        cert = extract_triple(complete(6))
        assert not cert.precondition_met

    @settings(max_examples=60, deadline=None)
    @given(c4free_graphs(max_n=24))
    def test_bound_and_soundness(self, g):
        if g.n == 0:
            return
        cert = extract_triple(g)
        delta = g.min_degree()
        bound = Fraction(delta) - Fraction(g.n, 3)
        assert cert.guaranteed_bound == bound
        if cert.method == METHOD_TRIPLE:
            assert Fraction(cert.size) > bound
        else:
            assert cert.size >= math.ceil(Fraction(2 * g.n, 5))
        assert is_clique(g, cert.clique)
        assert cert.size <= len(max_clique_exact(g)) or cert.size == 0


class TestExtractLargeAlpha:
    def test_star_hypothesis_not_met(self):
        g = star(9)
        cert = extract_large_alpha(g, list(range(1, 10)), Fraction(1, 2))
        assert not cert.precondition_met
        assert cert.witness["threshold"] == "199"
        assert cert.clique == (0,)
        assert cert.size == 1

    def test_blown_c5(self):
        g = clique_substitution(cycle(5), [3, 3, 3, 3, 3])
        cert = extract_large_alpha(g, [0, 6], Fraction(3, 10))
        assert cert.clique == (3, 4, 5)
        assert cert.guaranteed_bound == Fraction(224, 75)
        assert not cert.precondition_met
        assert cert.witness["bound_satisfied"]
        assert cert.witness["threshold"] == str(Fraction(901, 96))

    def test_disjoint_cliques_fallback(self):
        g = disjoint_cliques(3, 4)
        cert = extract_large_alpha(g, [0, 4, 8], Fraction(1, 2))
        assert cert.clique == (0,)
        assert not cert.precondition_met
        assert cert.witness["route"] == "single-vertex"

    def test_witness_reports_both_degree_symbols(self):
        g = cycle(5)
        cert = extract_large_alpha(g, [0, 2], Fraction(1, 2))
        assert cert.witness["d"] == cert.witness["min_degree_delta"] == 2

    def test_dependent_set_rejected(self):
        with pytest.raises(GraphInputError):
            extract_large_alpha(cycle(5), [0, 1], Fraction(1, 2))

    @pytest.mark.parametrize("members, bad", [([0, 5], 5), ([7, -1, 2, 5], -1), ([9, 6], 6)])
    def test_out_of_range_member_names_the_least(self, members, bad):
        message = rf"^vertex {bad} out of range for n=5$"
        with pytest.raises(GraphInputError, match=message):
            extract_large_alpha(cycle(5), members, Fraction(1, 2))

    def test_bad_epsilon_rejected(self):
        for eps in (Fraction(0), Fraction(1), Fraction(3, 2)):
            with pytest.raises(GraphInputError):
                extract_large_alpha(cycle(5), [0, 2], eps)

    @settings(max_examples=60, deadline=None)
    @given(c4free_graphs(max_n=20), st.integers(min_value=1, max_value=9))
    def test_conditional_bound_never_falsified(self, g, eps_num):
        if g.n == 0:
            return
        eps = Fraction(eps_num, 10)
        s = greedy_maximal_independent_set(g)
        cert = extract_large_alpha(g, s, eps)
        if cert.precondition_met:
            assert Fraction(cert.size) >= cert.guaranteed_bound
        assert is_clique(g, cert.clique)


class TestExtractDirac:
    def test_preset_fields_on_dense_blowup(self):
        from c4free import extract_dirac, w5_blowup

        g = w5_blowup([3, 3, 3, 3, 3, 3])
        cert = extract_dirac(g, [3, 9], Fraction(1, 2))
        assert cert.method == "large-alpha"
        assert cert.witness["preset"] == "dirac"
        assert cert.witness["degree_at_least_half"]
        assert cert.witness["dirac_threshold"] == "7"
        assert cert.guaranteed_bound == Fraction(g.n, 8)
        assert not cert.precondition_met  # t = 2 is below 3/eps + 1 = 7

    def test_degree_condition_reported_when_missed(self):
        from c4free import extract_dirac

        cert = extract_dirac(cycle(5), [0, 2], Fraction(1, 2))
        assert not cert.witness["degree_at_least_half"]
        assert not cert.precondition_met

    def test_simplified_threshold_implies_general_one(self):
        # Whenever the preset precondition holds, the underlying
        # hypothesis holds too, so the general bound is also certified.
        from c4free import extract_dirac

        g = complete(8)
        cert = extract_dirac(g, [0], Fraction(1, 2))
        assert not cert.precondition_met
        assert cert.witness["general_bound"]


class TestDegreeSquareCensus:
    def test_cycle_power_two_values(self):
        census = degree_square_census(cycle_power(2), [0, 3, 6])
        assert census["sum_deg_sq"] == 24
        assert census["sum_sizes"] == 12
        assert census["sum_pairwise"] == 12
        assert census["cs_floor"] == Fraction(16)

    @settings(max_examples=80, deadline=None)
    @given(c4free_graphs(max_n=20))
    def test_identity_and_inequality(self, g):
        if g.n == 0:
            return
        s = greedy_maximal_independent_set(g)
        census = degree_square_census(g, s)
        assert census["sum_deg_sq"] == census["sum_sizes"] + census["sum_pairwise"]
        assert Fraction(census["sum_deg_sq"]) >= census["cs_floor"]

    @settings(max_examples=40, deadline=None)
    @given(c4free_graphs(max_n=14), st.randoms(use_true_random=False))
    def test_identity_on_arbitrary_independent_sets(self, g, rnd):
        if g.n == 0:
            return
        from c4free import find_independent_set_of_size

        t = rnd.randint(1, max(g.n // 3, 1))
        s = find_independent_set_of_size(g, t)
        if s is None:
            return
        census = degree_square_census(g, s)
        assert census["sum_deg_sq"] == census["sum_sizes"] + census["sum_pairwise"]


@st.composite
def member_lists(draw, g):
    """Independent, dependent, duplicated, out-of-range or short member lists."""
    kind = draw(st.sampled_from(["independent", "duplicated", "any", "short"]))
    if kind == "any":
        return draw(st.lists(st.integers(-2, g.n + 2), max_size=8))
    if kind == "short":
        return draw(st.lists(st.integers(0, max(g.n - 1, 0)), max_size=1))
    greedy = greedy_maximal_independent_set(g)
    members = draw(st.lists(st.sampled_from(greedy), max_size=8)) if greedy else []
    if kind == "duplicated":
        members += members
    return draw(st.permutations(members))


def _outcome(func, *args):
    try:
        return func(*args)
    except GraphInputError as exc:
        return (type(exc), str(exc))


class TestPairScanReferences:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_best_pair_intersection_matches_reference(self, data):
        g = data.draw(c4free_graphs(max_n=16))
        members = data.draw(member_lists(g))
        assert _outcome(best_pair_intersection, g, members) == _outcome(
            reference_best_pair_intersection, g, members
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_degree_square_census_matches_reference(self, data):
        g = data.draw(c4free_graphs(max_n=16))
        members = data.draw(member_lists(g))
        assert _outcome(degree_square_census, g, members) == _outcome(
            reference_degree_square_census, g, members
        )

    def test_pair_meets_is_lazy(self):
        # Four and a half million pairs: only the first is made.
        meets = _pair_meets(edgeless(3000), range(3000))
        assert iter(meets) is meets
        assert next(meets) == (0, 1, 0)


class TestCertificateSoundness:
    @settings(max_examples=60, deadline=None)
    @given(c4free_graphs(max_n=24))
    def test_every_method_stays_below_omega(self, g):
        if g.n == 0:
            return
        omega = len(max_clique_exact(g))
        for cert in (extract_general(g), extract_triple(g)):
            assert check_certificate(g, cert)
            assert cert.size <= omega


class TestCertificateGate:
    """Every extractor refuses a route that hands back a bad clique.

    Each test forces one route to return a non-clique or an undersized set;
    on valid input none of these routes can, so the refusal is an
    InvariantViolation.
    """

    def test_regular_structure_route_message(self, monkeypatch):
        monkeypatch.setattr(
            "c4free.extraction.find_dominating_nonadjacent_pair", lambda g: None
        )
        with pytest.raises(InvariantViolation) as exc:
            extract_regular(cycle_power(2))
        assert str(exc.value) == (
            "guarantee violated: no dominating non-adjacent pair although the "
            "graph has an independent triple (independent set of size 3 found: (0, 3, 6))"
        )

    def test_regular_wrong_pair(self, monkeypatch):
        # An adjacent pair dominates nothing the degree count can use.
        monkeypatch.setattr(
            "c4free.extraction.find_dominating_nonadjacent_pair",
            lambda g: (0, 1),
        )
        with pytest.raises(InvariantViolation):
            extract_regular(cycle_power(2))

    def test_general_covering_pick_non_clique(self, monkeypatch):
        # Star-labelled P3: with the augmentation silenced, the covering
        # route picks the centre's bucket {0, 1, 2}, which is not a clique.
        monkeypatch.setattr(
            "c4free.extraction._first_nonadjacent_in_buckets", lambda g, buckets: None
        )
        with pytest.raises(InvariantViolation):
            extract_general(build_graph(3, [(0, 1), (0, 2)]))

    def test_triple_non_clique(self, monkeypatch):
        # (0, 3) is a non-edge of cycle_power(2), and 2 > d - n/3 = 1.
        monkeypatch.setattr(
            "c4free.extraction.best_pair_intersection", lambda g, s: (0, 3, (0, 3))
        )
        with pytest.raises(InvariantViolation):
            extract_triple(cycle_power(2))

    def test_triple_undersized(self, monkeypatch):
        monkeypatch.setattr(
            "c4free.extraction.best_pair_intersection", lambda g, s: (0, 3, (1,))
        )
        with pytest.raises(InvariantViolation):
            extract_triple(cycle_power(2))

    def test_large_alpha_non_clique(self, monkeypatch):
        monkeypatch.setattr(
            "c4free.extraction.best_pair_intersection", lambda g, s: (0, 2, (0, 2))
        )
        with pytest.raises(InvariantViolation):
            extract_large_alpha(cycle(5), [0, 2], Fraction(1, 2))

    def test_large_alpha_empty_under_hypothesis(self, monkeypatch):
        # K7 minus the edge 01 meets the hypothesis for {0, 1} at eps 99/100
        # (threshold 24/(99/100 * 25) + 1 < 2), and not at eps 1/2.
        monkeypatch.setattr(
            "c4free.extraction.best_pair_intersection", lambda g, s: (0, 1, ())
        )
        g = build_graph(7, [e for e in edges(complete(7)) if e != (0, 1)])
        cert = extract_large_alpha(g, [0, 1], Fraction(1, 2))
        assert cert.witness["route"] == "single-vertex"
        with pytest.raises(InvariantViolation):
            extract_large_alpha(g, [0, 1], Fraction(99, 100))

    def test_dirac_non_clique(self, monkeypatch):
        from c4free import extract_dirac, w5_blowup

        monkeypatch.setattr(
            "c4free.extraction.best_pair_intersection", lambda g, s: (3, 9, (3, 9))
        )
        with pytest.raises(InvariantViolation):
            extract_dirac(w5_blowup([3, 3, 3, 3, 3, 3]), [3, 9], Fraction(1, 2))
