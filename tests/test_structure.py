from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from c4free import (
    GraphInputError,
    HypothesisViolation,
    StructureCertificate,
    alpha2_decompose,
    build_graph,
    clique_from_certificate,
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
from c4free.generators import _co_bipartite_c4free
from c4free.structure import KIND_COMPLEMENT_BIPARTITE, KIND_W5_SUBSTITUTION, _best_clique
from c4free.suites import SuiteConfig, _structure_instances, run_suite
from helpers import (
    cycle,
    path,
    reference_alpha2_decompose,
    reference_clique_from_certificate,
    reference_find_certificate_violation,
    relabelled_w5_blowup,
)


class TestAlpha2Decompose:
    def test_p4_complement_bipartite(self):
        cert = alpha2_decompose(path(4))
        assert cert.kind == KIND_COMPLEMENT_BIPARTITE
        assert cert.parts == ((0, 1), (2, 3))

    def test_c5_is_a_wheel_substitution(self):
        cert = alpha2_decompose(cycle(5))
        assert cert.kind == KIND_W5_SUBSTITUTION
        assert cert.hub == ()
        assert cert.cycle_groups == ((0,), (1,), (2,), (3,), (4,))

    def test_doubled_hub_blowup(self):
        g = w5_blowup([2, 1, 1, 1, 1, 1])
        cert = alpha2_decompose(g)
        assert cert.kind == KIND_W5_SUBSTITUTION
        assert cert.hub == (0, 1)
        assert cert.cycle_groups == ((2,), (3,), (4,), (5,), (6,))

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
        assert cert.parts == ((0,), ())


class TestVerifyCertificate:
    def test_round_trip_p4(self):
        g = path(4)
        assert verify_certificate(g, alpha2_decompose(g))

    def test_round_trip_wheel(self):
        g = w5_blowup([2, 3, 1, 2, 1, 1])
        assert verify_certificate(g, alpha2_decompose(g))

    def test_c5_claiming_complement_bipartite_fails(self):
        cert = StructureCertificate(
            kind=KIND_COMPLEMENT_BIPARTITE, parts=((0, 1, 2), (3, 4))
        )
        assert not verify_certificate(cycle(5), cert)

    def test_swapped_groups_fail_with_witness(self):
        g = w5_base()
        cert = alpha2_decompose(g)
        groups = list(cert.cycle_groups)
        groups[0], groups[2] = groups[2], groups[0]
        tampered = StructureCertificate(
            kind=KIND_W5_SUBSTITUTION, hub=cert.hub, cycle_groups=tuple(groups)
        )
        violation = find_certificate_violation(g, tampered)
        assert violation is not None
        assert "adjacent" in violation

    def test_missing_vertex_detected(self):
        cert = StructureCertificate(kind=KIND_COMPLEMENT_BIPARTITE, parts=((0, 1), (2,)))
        assert find_certificate_violation(path(4), cert) == "vertex 3 is not covered"

    def test_overlapping_groups_detected(self):
        cert = StructureCertificate(
            kind=KIND_COMPLEMENT_BIPARTITE, parts=((0, 1), (1, 2, 3))
        )
        violation = find_certificate_violation(path(4), cert)
        assert violation == "vertex 1 appears in two groups"

    @pytest.mark.parametrize(
        "parts", [((0, 1, 2, 3),), ((0, 1), (2,), (3,)), ()], ids=["one", "three", "none"]
    )
    def test_other_than_two_parts_is_refused(self, parts):
        # Refused with the message of a certificate without parts, not by a
        # failed unpacking.
        message = "complement-bipartite certificate is missing its parts"
        cert = StructureCertificate(kind=KIND_COMPLEMENT_BIPARTITE, parts=parts)
        assert find_certificate_violation(path(4), cert) == message
        assert not verify_certificate(path(4), cert)
        with pytest.raises(GraphInputError) as exc:
            clique_from_certificate(path(4), cert)
        assert str(exc.value) == f"invalid structure certificate: {message}"


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
        cert = StructureCertificate(
            kind=KIND_COMPLEMENT_BIPARTITE, parts=((0, 1, 2), (3, 4))
        )
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
        cert = StructureCertificate(kind=KIND_W5_SUBSTITUTION, hub=hub, cycle_groups=groups)
        assert find_certificate_violation(self.W5, cert) == message

    def test_part_not_a_clique_message(self):
        two_triangles = build_graph(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
        cert = StructureCertificate(
            kind=KIND_COMPLEMENT_BIPARTITE, parts=((0, 1), (2, 3, 4, 5))
        )
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


def _groups(cert):
    if cert.kind == KIND_COMPLEMENT_BIPARTITE:
        return [list(part) for part in cert.parts]
    return [list(cert.hub)] + [list(q) for q in cert.cycle_groups]


def _with_groups(cert, groups):
    groups = [tuple(grp) for grp in groups]
    if cert.kind == KIND_COMPLEMENT_BIPARTITE:
        return StructureCertificate(kind=cert.kind, parts=tuple(groups))
    return StructureCertificate(kind=cert.kind, hub=groups[0], cycle_groups=tuple(groups[1:]))


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
    groups = _groups(cert)
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
    return _with_groups(cert, groups)


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
