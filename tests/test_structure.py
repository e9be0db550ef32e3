from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from c4free import (
    GraphInputError,
    HypothesisViolation,
    StructureCertificate,
    alpha2_decompose,
    build_graph,
    clique_from_certificate,
    complement,
    cycle_power,
    find_certificate_violation,
    is_c4_free,
    is_clique,
    max_independent_set_exact,
    structure,
    verify_certificate,
    w5_base,
    w5_blowup,
)
from c4free import graph as graph_module
from c4free.generators import _co_bipartite_c4free
from c4free.graph import _graph_of
from c4free.structure import KIND_COMPLEMENT_BIPARTITE, KIND_W5_SUBSTITUTION, _best_clique
from c4free.suites import SuiteConfig, _structure_instances, run_suite
from helpers import (
    c4free_graphs,
    cycle,
    edges,
    path,
    raw_graphs,
    reference_alpha2_decompose,
    reference_clique_from_certificate,
    reference_find_certificate_violation,
    relabelled,
    relabelled_w5_blowup,
    substituted,
)


class TestAlpha2Decompose:
    def test_p4_complement_bipartite(self):
        cert = alpha2_decompose(path(4))
        assert cert.kind == KIND_COMPLEMENT_BIPARTITE
        assert cert.groups == ((0, 1), (2, 3))

    def test_c5_is_a_wheel_substitution(self):
        cert = alpha2_decompose(cycle(5))
        assert cert.kind == KIND_W5_SUBSTITUTION
        assert cert.groups == ((), (0,), (1,), (2,), (3,), (4,))

    def test_doubled_hub_blowup(self):
        g = w5_blowup([2, 1, 1, 1, 1, 1])
        cert = alpha2_decompose(g)
        assert cert.kind == KIND_W5_SUBSTITUTION
        assert cert.groups == ((0, 1), (2,), (3,), (4,), (5,), (6,))

    def test_rejects_graph_with_induced_c4(self):
        with pytest.raises(GraphInputError):
            alpha2_decompose(cycle(4))

    def test_independent_triple_raises_with_witness(self):
        with pytest.raises(HypothesisViolation) as exc:
            alpha2_decompose(cycle_power(2))
        assert exc.value.witness == (0, 3, 6)

    def test_path_with_three_vertices_raises(self):
        with pytest.raises(HypothesisViolation):
            alpha2_decompose(path(5))

    def test_single_vertex(self):
        cert = alpha2_decompose(build_graph(1, []))
        assert cert.kind == KIND_COMPLEMENT_BIPARTITE
        assert cert.groups == ((0,), ())


PARTS_MISSING = "complement-bipartite certificate is missing its parts"
GROUPS_MISSING = "w5-substitution certificate is missing its six groups"


class TestVerifyCertificate:
    def test_round_trip_p4(self):
        g = path(4)
        assert verify_certificate(g, alpha2_decompose(g))

    def test_round_trip_wheel(self):
        g = w5_blowup([2, 3, 1, 2, 1, 1])
        assert verify_certificate(g, alpha2_decompose(g))

    def test_c5_claiming_complement_bipartite_fails(self):
        cert = StructureCertificate(KIND_COMPLEMENT_BIPARTITE, ((0, 1, 2), (3, 4)))
        assert not verify_certificate(cycle(5), cert)

    def test_swapped_groups_fail_with_witness(self):
        g = w5_base()
        cert = alpha2_decompose(g)
        groups = list(cert.groups)
        groups[1], groups[3] = groups[3], groups[1]
        tampered = StructureCertificate(KIND_W5_SUBSTITUTION, tuple(groups))
        violation = find_certificate_violation(g, tampered)
        assert violation is not None
        assert "adjacent" in violation

    def test_missing_vertex_detected(self):
        cert = StructureCertificate(KIND_COMPLEMENT_BIPARTITE, ((0, 1), (2,)))
        assert find_certificate_violation(path(4), cert) == "vertex 3 is not covered"

    def test_overlapping_groups_detected(self):
        cert = StructureCertificate(KIND_COMPLEMENT_BIPARTITE, ((0, 1), (1, 2, 3)))
        violation = find_certificate_violation(path(4), cert)
        assert violation == "vertex 1 appears in two groups"

    @pytest.mark.parametrize(
        "kind, groups, message",
        [
            (KIND_COMPLEMENT_BIPARTITE, ((0, 1, 2, 3),), PARTS_MISSING),
            (KIND_COMPLEMENT_BIPARTITE, ((0, 1), (2,), (3,)), PARTS_MISSING),
            (KIND_COMPLEMENT_BIPARTITE, (), PARTS_MISSING),
            (KIND_W5_SUBSTITUTION, (), GROUPS_MISSING),
            (KIND_W5_SUBSTITUTION, ((0,), (1,), (2,), (3,), ()), GROUPS_MISSING),
            (KIND_W5_SUBSTITUTION, ((), (0,), (1,), (2,), (3,), (), ()), GROUPS_MISSING),
        ],
        ids=["one-part", "three-parts", "no-parts", "no-groups", "five-groups", "seven-groups"],
    )
    def test_wrong_group_count_is_refused(self, kind, groups, message):
        # Refused with the message of a certificate without its groups, not
        # by a failed unpacking.
        cert = StructureCertificate(kind, groups)
        assert find_certificate_violation(path(4), cert) == message
        assert not verify_certificate(path(4), cert)
        with pytest.raises(GraphInputError) as exc:
            clique_from_certificate(path(4), cert)
        assert str(exc.value) == f"invalid structure certificate: {message}"

    def test_unknown_kind_is_refused(self):
        cert = StructureCertificate("x", ((0, 1), (2, 3)))
        assert find_certificate_violation(path(4), cert) == "unknown certificate kind 'x'"
        assert not verify_certificate(path(4), cert)


class TestCliqueFromCertificate:
    def test_p4(self):
        g = path(4)
        clique = clique_from_certificate(g, alpha2_decompose(g))
        assert clique == (0, 1)

    def test_w5(self):
        g = w5_base()
        clique = clique_from_certificate(g, alpha2_decompose(g))
        assert len(clique) == 3
        assert clique == (0, 1, 2)

    def test_c5(self):
        clique = clique_from_certificate(cycle(5), alpha2_decompose(cycle(5)))
        assert clique == (0, 1)

    def test_invalid_certificate_rejected(self):
        cert = StructureCertificate(KIND_COMPLEMENT_BIPARTITE, ((0, 1, 2), (3, 4)))
        with pytest.raises(GraphInputError):
            clique_from_certificate(cycle(5), cert)

    @settings(max_examples=80, deadline=None)
    @given(
        sizes=st.tuples(
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=3),
            st.integers(min_value=1, max_value=3),
        )
    )
    def test_two_fifths_bound_on_blowups(self, sizes):
        g = w5_blowup(list(sizes))
        if g.n == 0:
            return
        cert = alpha2_decompose(g)
        assert verify_certificate(g, cert)
        clique = clique_from_certificate(g, cert)
        assert is_clique(g, clique)
        assert len(clique) >= math.ceil(Fraction(2 * g.n, 5))


class TestDichotomyOverFamilies:
    def test_generated_families_always_decompose(self):
        config = SuiteConfig(suite="structure", seed=20240, samples=60, max_n=30)
        for _, g in _structure_instances(config):
            assert is_c4_free(g)
            assert len(max_independent_set_exact(g)) <= 2
            cert = alpha2_decompose(g)
            assert verify_certificate(g, cert)
            clique = clique_from_certificate(g, cert)
            assert len(clique) >= math.ceil(Fraction(2 * g.n, 5))


class TestViolationMessages:
    # One tampered certificate per check, each with more than one offending
    # pair; the message names the first pair in ascending order.
    W5 = w5_blowup([2, 3, 3, 3, 3, 3])  # hub 0-1, groups of three from 2 up
    G1, G2, G3, G4, G5 = (2, 3, 4), (5, 6, 7), (8, 9, 10), (11, 12, 13), (14, 15, 16)

    @pytest.mark.parametrize(
        "hub, groups, message",
        [
            ((1,), ((0, 5, 12, 13), G1, (6, 7), G3, (11, 14, 15, 16)),
             "group 1 is not a clique: 5 and 12 are non-adjacent"),
            ((0, 2, 3), ((1, 4), G2, G3, G4, G5),
             "hub vertex 2 is non-adjacent to group 3 vertex 8"),
            ((1,), ((0, 2, 3, 4), G3, G2, G4, G5),
             "group 1 vertex 2 is non-adjacent to group 2 vertex 8"),
            ((0,), (G1, G2, (1, 8, 9, 10), G4, G5),
             "group 1 vertex 2 is adjacent to group 3 vertex 1"),
        ],
        ids=["group-not-clique", "hub-missing-edge", "consecutive-missing-edge",
             "non-consecutive-edge"],
    )
    def test_w5_substitution_messages(self, hub, groups, message):
        cert = StructureCertificate(KIND_W5_SUBSTITUTION, (hub, *groups))
        assert find_certificate_violation(self.W5, cert) == message

    def test_part_not_a_clique_message(self):
        two_triangles = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        cert = StructureCertificate(KIND_COMPLEMENT_BIPARTITE, ((0, 1), (2, 3, 4, 5)))
        assert find_certificate_violation(two_triangles, cert) == (
            "part 2 is not a clique: 2 and 3 are non-adjacent"
        )


@st.composite
def alpha2_graphs(draw):
    """A relabelled 5-wheel blow-up or a co-bipartite C4-free graph, n <= 40."""
    if draw(st.booleans()):
        rim = draw(st.lists(st.integers(1, 6), min_size=5, max_size=5))
        return relabelled_w5_blowup([draw(st.integers(0, 10)), *rim], draw(st.integers(0, 2**32)))
    n = draw(st.integers(0, 40))
    side_mask = draw(st.integers(0, (1 << n) - 1))
    return _co_bipartite_c4free(n, side_mask, draw(st.integers(0, 2**64 - 1)))


def _outcome(read, g, cert):
    try:
        return read(g, cert)
    except GraphInputError as exc:
        return str(exc)


@st.composite
def tampered(draw, g, cert):
    """cert with one change: a vertex moved, repeated or dropped, a group
    emptied, -1 or n added, two groups swapped, or the hub swapped with a
    group."""
    groups = [list(grp) for grp in cert.groups]
    slots = range(len(groups))
    filled = [i for i in slots if groups[i]]
    change = draw(st.sampled_from(["move", "repeat", "drop", "empty", "outside", "swap", "hub"]))
    if change in ("move", "repeat", "drop") and filled:
        i = draw(st.sampled_from(filled))
        v = groups[i][draw(st.integers(0, len(groups[i]) - 1))]
        if change != "repeat":
            groups[i].remove(v)
        if change != "drop":
            j = draw(st.sampled_from([j for j in slots if change == "repeat" or j != i]))
            groups[j].insert(draw(st.integers(0, len(groups[j]))), v)
    elif change == "empty":
        groups[draw(st.sampled_from(slots))] = []
    elif change == "outside":
        j = draw(st.sampled_from(slots))
        groups[j].insert(draw(st.integers(0, len(groups[j]))), draw(st.sampled_from([-1, g.n])))
    elif change == "swap" or (change == "hub" and len(groups) == 6):
        i = 0 if change == "hub" else draw(st.sampled_from(slots))
        j = draw(st.sampled_from([j for j in slots if j != i]))
        groups[i], groups[j] = groups[j], groups[i]
    return StructureCertificate(cert.kind, tuple(map(tuple, groups)))


class TestAgainstReference:
    @settings(max_examples=200, deadline=None)
    @given(g=alpha2_graphs())
    def test_same_certificate_and_clique(self, g):
        cert = alpha2_decompose(g)
        assert cert.to_json_dict() == reference_alpha2_decompose(g).to_json_dict()
        clique = reference_clique_from_certificate(g, cert)
        assert clique_from_certificate(g, cert) == clique
        assert _best_clique(cert) == clique
        assert find_certificate_violation(g, cert) is None

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), g=alpha2_graphs())
    def test_same_message_on_one_change(self, data, g):
        cert = data.draw(tampered(g, alpha2_decompose(g)))
        message = reference_find_certificate_violation(g, cert)
        assert find_certificate_violation(g, cert) == message
        assert _outcome(clique_from_certificate, g, cert) == (
            _outcome(reference_clique_from_certificate, g, cert)
        )


def test_one_check_per_consumer(monkeypatch):
    # alpha2_decompose checks its W5 output and the suite checks every
    # certificate once; the clique is read off without a further check.
    calls = []
    check = structure.find_certificate_violation
    monkeypatch.setattr(
        structure, "find_certificate_violation", lambda g, cert: calls.append(cert) or check(g, cert)
    )
    report = run_suite(SuiteConfig(suite="structure", seed=1, samples=20, max_n=30))
    assert report.all_passed()
    w5 = sum(record["method"] == KIND_W5_SUBSTITUTION for record in report.records)
    assert 0 < w5 < len(report.records) == 20
    assert len(calls) == 2 * w5 + (len(report.records) - w5)


# The decomposition and the certificate check run on true-twin class minima
# and expand to whole classes; the references run vertex by vertex.


def _decomposition(decompose, g):
    # The certificate, or the message and witness of the refusal.
    try:
        return decompose(g).to_json_dict()
    except HypothesisViolation as exc:
        return str(exc), exc.witness


@st.composite
def substitutions(draw, bases, least: int = 0):
    """A clique substitution into a drawn base, relabelled at random."""
    base = draw(bases)
    sizes = draw(st.lists(st.integers(least, 3), min_size=base.n, max_size=base.n))
    g = substituted(base, sizes)
    perm = draw(st.permutations(range(g.n)))
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in edges(g)])


# How a vertex off the 5-cycle 0-1-2-3-4 may meet it: all of it, three
# consecutive vertices, or any subset.
RIM_PATTERNS = st.one_of(
    st.sampled_from([0b11111] + [sum(1 << (i + d) % 5 for d in (-1, 0, 1)) for i in range(5)]),
    st.integers(0, 0b11111),
)


@st.composite
def wheel_like_bases(draw):
    """A 5-cycle and up to three more vertices, joined to each other at random."""
    extra = draw(st.integers(1, 3))
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    for w in range(5, 5 + extra):
        pattern = draw(RIM_PATTERNS)
        pairs += [(v, w) for v in range(5) if pattern >> v & 1]
        pairs += [(v, w) for v in range(5, w) if draw(st.booleans())]
    return build_graph(5 + extra, pairs)


def _marked_clean(g):
    # The same rows with the recognition verdict set to clean. Only inputs
    # that hold an induced 4-cycle reach an unclassifiable vertex, a failed
    # group check or a complement odd cycle longer than 5, so the C4 check
    # has to be passed over to compare those refusals.
    return _graph_of(g.adj, c4free=True)


# A 5-cycle and a vertex 5 that meets four of its vertices; a 5-cycle and two
# non-adjacent vertices that meet all of it, so the hub is not a clique.
WHEEL_AND_FOUR = build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                                 (5, 0), (5, 1), (5, 2), (5, 3)])
HUB_PAIR = build_graph(7, [(i, (i + 1) % 5) for i in range(5)] + [
    (v, w) for v in range(5) for w in (5, 6)
])


class TestOnTwinClasses:
    @settings(max_examples=200, deadline=None)
    @given(g=substitutions(st.one_of(
        c4free_graphs(max_n=9), st.sampled_from([cycle(7), cycle_power(2), path(5)])
    )))
    def test_c4free_inputs_match_reference(self, g):
        # Small C4-free bases mostly have independence number 3 or more.
        assert _decomposition(alpha2_decompose, g) == (
            _decomposition(reference_alpha2_decompose, g)
        )

    @settings(max_examples=300, deadline=None)
    @given(g=st.one_of(substitutions(wheel_like_bases(), 1), substitutions(raw_graphs(max_n=8))))
    @example(g=WHEEL_AND_FOUR)
    @example(g=HUB_PAIR)
    @example(g=complement(cycle(7)))
    def test_refusals_past_the_c4_check_match_reference(self, g):
        g = _marked_clean(g)
        assert _decomposition(alpha2_decompose, g) == (
            _decomposition(reference_alpha2_decompose, g)
        )

    def test_unclassifiable_twin_class(self):
        # The class {3, 6, 7} fails, and its least vertex is the one named.
        g = _marked_clean(relabelled(substituted(WHEEL_AND_FOUR, (1, 1, 1, 1, 1, 3)), 0))
        assert g._twins[1][3] == 0b11001000
        message = ("vertex 3 is adjacent to neither all of (0, 2, 5, 1, 4) nor "
                   "exactly three consecutive of them")
        for decompose in (alpha2_decompose, reference_alpha2_decompose):
            assert _decomposition(decompose, g) == (message, 3)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), g=alpha2_graphs())
    def test_one_vertex_moved_out_of_its_class(self, data, g):
        cert = alpha2_decompose(g)
        groups = [list(grp) for grp in cert.groups]
        classes = g._twins[1]
        split = [v for v in range(g.n) if classes[v] & (classes[v] - 1)]
        if not split:
            return
        v = data.draw(st.sampled_from(split))
        i = next(i for i, grp in enumerate(groups) if v in grp)
        groups[i].remove(v)
        j = data.draw(st.sampled_from([j for j in range(len(groups)) if j != i]))
        groups[j].insert(data.draw(st.integers(0, len(groups[j]))), v)
        moved = StructureCertificate(cert.kind, tuple(map(tuple, groups)))
        assert find_certificate_violation(g, moved) == (
            reference_find_certificate_violation(g, moved)
        )

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), g=alpha2_graphs())
    def test_groups_drawn_at_random(self, data, g):
        # Every vertex in a random group: most classes are split.
        cert = alpha2_decompose(g)
        groups = [[] for _ in cert.groups]
        for v in data.draw(st.permutations(range(g.n))):
            groups[data.draw(st.integers(0, len(groups) - 1))].append(v)
        drawn = StructureCertificate(cert.kind, tuple(map(tuple, groups)))
        assert find_certificate_violation(g, drawn) == (
            reference_find_certificate_violation(g, drawn)
        )

    def test_work_on_class_minima(self, monkeypatch):
        # The colouring runs on the 6 class minima of an n = 180 blow-up, whose
        # classes and verdict are computed once; a co-bipartite instance comes
        # with both from its generator's final check.
        core, seen = structure._bipartition, []
        monkeypatch.setattr(
            structure, "_bipartition", lambda h, verts: seen.append((h, verts)) or core(h, verts)
        )
        g = relabelled_w5_blowup((30,) * 6, 1)
        expected = reference_alpha2_decompose(g).to_json_dict()
        h = _co_bipartite_c4free(40, 0x5555555555, 3)
        assert "_twins" in h.__dict__ and h.__dict__["_witness"] is None

        def no_scan(*args):
            raise AssertionError("the verdict was computed again")

        monkeypatch.setattr(graph_module, "_scan_induced_c4", no_scan)
        assert alpha2_decompose(g).to_json_dict() == expected
        assert alpha2_decompose(h).to_json_dict() == reference_alpha2_decompose(h).to_json_dict()
        (co, verts), _ = seen
        assert verts.bit_count() == 6
        assert [row for v, row in enumerate(co.adj) if not verts >> v & 1] == [0] * 174
