"""Structure of C4-free graphs whose independence number is at most 2.

Such a graph either has a bipartite complement (so two cliques cover
it), or it is a clique substitution into the 5-wheel. The decomposition
returns a certificate that can be re-checked edge by edge without
trusting the algorithm, and either kind of certificate yields a clique
on at least two fifths of the vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .graph import (
    Graph,
    GraphInputError,
    InvariantViolation,
    OddCycle,
    VertexSet,
    _mask_of,
    bipartition,
    complement,
    is_clique,
    require_c4free,
)

KIND_COMPLEMENT_BIPARTITE = "complement-bipartite"
KIND_W5_SUBSTITUTION = "w5-substitution"


class HypothesisViolation(RuntimeError):
    """The input was not C4-free with independence number at most 2.

    Carries a concrete witness (an independent triple, an odd cycle of
    the wrong length, an unclassifiable vertex, or a bad group pair).
    """

    def __init__(self, message: str, witness: object = None) -> None:
        super().__init__(message)
        self.witness = witness


@dataclass(frozen=True)
class StructureCertificate:
    """Either a two-clique cover or a six-group 5-wheel substitution.

    For kind "complement-bipartite" the two parts partition the vertex
    set and each part is a clique. For kind "w5-substitution" the hub
    group plus five cycle groups partition the vertex set, every group
    is a clique, the hub is complete to all cycle groups, consecutive
    cycle groups are complete to each other, and non-consecutive ones
    span no edges.
    """

    kind: str
    parts: Optional[tuple[VertexSet, VertexSet]] = None
    hub: Optional[VertexSet] = None
    cycle_groups: Optional[tuple[VertexSet, ...]] = None

    def to_json_dict(self) -> dict:
        out: dict = {"format_version": 1, "kind": self.kind}
        if self.kind == KIND_COMPLEMENT_BIPARTITE:
            assert self.parts is not None
            out["parts"] = [list(self.parts[0]), list(self.parts[1])]
        else:
            assert self.hub is not None and self.cycle_groups is not None
            out["hub"] = list(self.hub)
            out["cycle_groups"] = [list(q) for q in self.cycle_groups]
        return out


def alpha2_decompose(g: Graph) -> StructureCertificate:
    """Decompose a C4-free graph with independence number at most 2.

    Runs the 2-coloring on the complement. If the complement is
    bipartite the two color classes are cliques in g. Otherwise the
    shortest odd cycle in the complement must have length exactly 5
    (length 3 would be an independent triple in g; length 7 or more
    would force an induced 4-cycle in g), and every vertex off that
    cycle is adjacent either to all five of its vertices (hub group) or
    to exactly three consecutive ones along the 5-cycle those vertices
    induce in g (the matching cycle group). Any vertex or group pair
    that does not fit raises HypothesisViolation with a witness.
    """
    require_c4free(g)
    result = bipartition(complement(g))
    if not isinstance(result, OddCycle):
        return StructureCertificate(kind=KIND_COMPLEMENT_BIPARTITE, parts=result)

    cyc = result.vertices
    if len(cyc) == 3:
        raise HypothesisViolation(
            f"independent set of size 3 found: {cyc}", witness=cyc
        )
    if len(cyc) != 5:  # unreachable for truly C4-free inputs
        raise HypothesisViolation(
            f"complement has a chordless odd cycle of length {len(cyc)}: {cyc}",
            witness=cyc,
        )

    # Consecutive on the complement cycle means non-adjacent in g, so the
    # five vertices induce a 5-cycle in g in every-other order.
    rim = [cyc[0], cyc[2], cyc[4], cyc[1], cyc[3]]
    rim_masks = [1 << v for v in rim]
    on_cycle = sum(rim_masks)

    hub: list[int] = []
    groups: list[list[int]] = [[rim[i]] for i in range(5)]
    triples = [
        sum(rim_masks[(i + d) % 5] for d in (-1, 0, 1)) for i in range(5)
    ]
    for w in range(g.n):
        if on_cycle & (1 << w):
            continue
        pattern = g.adj[w] & on_cycle
        if pattern == on_cycle:
            hub.append(w)
            continue
        for i in range(5):
            if pattern == triples[i]:
                groups[i].append(w)
                break
        else:
            raise HypothesisViolation(
                f"vertex {w} is adjacent to neither all of {tuple(rim)} nor "
                "exactly three consecutive of them",
                witness=w,
            )

    # Canonical labeling: group 1 holds the smallest cycle vertex, and the
    # orientation makes group 2's smallest member minimal.
    anchor = rim.index(min(cyc))
    forward = [sorted(groups[(anchor + d) % 5]) for d in range(5)]
    backward = [sorted(groups[(anchor - d) % 5]) for d in range(5)]
    ordered = forward if forward[1][0] < backward[1][0] else backward

    cert = StructureCertificate(
        kind=KIND_W5_SUBSTITUTION,
        hub=tuple(sorted(hub)),
        cycle_groups=tuple(tuple(q) for q in ordered),
    )
    failure = find_certificate_violation(g, cert)
    if failure is not None:
        raise HypothesisViolation(f"group structure check failed: {failure}")
    return cert


def find_certificate_violation(g: Graph, cert: StructureCertificate) -> Optional[str]:
    """First invariant of the certificate that fails against g, or None.

    Checked edge by edge with no reliance on how the certificate was
    produced.
    """
    if cert.kind == KIND_COMPLEMENT_BIPARTITE:
        if cert.parts is None:
            return "complement-bipartite certificate is missing its parts"
        p1, p2 = cert.parts
        named = [("part 1", p1), ("part 2", p2)]
    elif cert.kind == KIND_W5_SUBSTITUTION:
        if cert.hub is None or cert.cycle_groups is None or len(cert.cycle_groups) != 5:
            return "w5-substitution certificate is missing its six groups"
        named = [("hub", cert.hub)]
        named += [(f"group {i + 1}", grp) for i, grp in enumerate(cert.cycle_groups)]
    else:
        return f"unknown certificate kind {cert.kind!r}"

    issue = _check_partition(g, [grp for _, grp in named])
    if issue:
        return issue
    for name, grp in named:
        bad = _first_pair(g, grp, grp, adjacent=False)
        if bad:
            return f"{name} is not a clique: {bad[0]} and {bad[1]} are non-adjacent"
    if cert.kind == KIND_COMPLEMENT_BIPARTITE:
        return None

    # (group, group, must be complete): hub to every cycle group, consecutive
    # cycle groups, then cycle groups two apart, which must span no edge.
    relations = [(0, i, True) for i in range(1, 6)]
    relations += [(i, i % 5 + 1, True) for i in range(1, 6)]
    relations += [(i, (i + 1) % 5 + 1, False) for i in range(1, 6)]
    for a, b, complete in relations:
        bad = _first_pair(g, named[a][1], named[b][1], adjacent=not complete)
        if bad:
            state = "non-adjacent" if complete else "adjacent"
            return f"{named[a][0]} vertex {bad[0]} is {state} to {named[b][0]} vertex {bad[1]}"
    return None


def verify_certificate(g: Graph, cert: StructureCertificate) -> bool:
    return find_certificate_violation(g, cert) is None


def _check_partition(g: Graph, groups: list) -> Optional[str]:
    seen = 0
    for grp in groups:
        for v in grp:
            if not (0 <= v < g.n):
                return f"vertex {v} out of range"
            if seen & (1 << v):
                return f"vertex {v} appears in two groups"
            seen |= 1 << v
    if seen != g.full_mask:
        missing = next(v for v in range(g.n) if not (seen & (1 << v)))
        return f"vertex {missing} is not covered"
    return None


def _first_pair(g: Graph, a, b, adjacent: bool) -> Optional[tuple[int, int]]:
    # First pair (u, v) in ascending order, u in a, v in b, u != v, whose
    # adjacency in g equals `adjacent`. Called with a == b and adjacent
    # False it finds the first non-adjacent pair inside one group: the
    # smallest member with a non-neighbor in the group comes first, and
    # that non-neighbor cannot lie below it.
    b_mask = _mask_of(b)
    for u in sorted(a):
        hits = b_mask & (g.adj[u] if adjacent else ~g.adj[u]) & ~(1 << u)
        if hits:
            return (u, (hits & -hits).bit_length() - 1)
    return None


def clique_from_certificate(g: Graph, cert: StructureCertificate) -> VertexSet:
    """Clique of size at least ceil(2n/5) read off a valid certificate.

    Bipartite-complement kind: the larger part (at least half the
    vertices). Wheel kind: the best of the five cliques hub + group i +
    group i+1; their sizes sum to 2n plus three times the hub size, so
    the best one has at least 2n/5 vertices.
    """
    failure = find_certificate_violation(g, cert)
    if failure is not None:
        raise GraphInputError(f"invalid structure certificate: {failure}")
    if cert.kind == KIND_COMPLEMENT_BIPARTITE:
        assert cert.parts is not None
        p1, p2 = cert.parts
        best = p1 if len(p1) >= len(p2) else p2
    else:
        assert cert.hub is not None and cert.cycle_groups is not None
        best = None
        for i in range(5):
            candidate = tuple(
                sorted(
                    {*cert.hub, *cert.cycle_groups[i], *cert.cycle_groups[(i + 1) % 5]}
                )
            )
            if best is None or len(candidate) > len(best):
                best = candidate
        assert best is not None
    if not is_clique(g, best):  # pragma: no cover - implied by verification
        raise InvariantViolation(f"certificate clique {best} is not a clique")
    return best
