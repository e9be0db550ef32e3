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
    _bipartition,
    _bit_indices,
    _classes_of,
    _co_rows,
    _graph_of,
    _mask_of,
    _to_vertexset,
    is_clique,
    require_c4free,
)

KIND_COMPLEMENT_BIPARTITE = "complement-bipartite"
KIND_W5_SUBSTITUTION = "w5-substitution"

# Per kind: the names of its groups in certificate order, and what a
# certificate without exactly that many groups is missing.
GROUP_NAMES = {
    KIND_COMPLEMENT_BIPARTITE: (("part 1", "part 2"), "its parts"),
    KIND_W5_SUBSTITUTION: (("hub", *(f"group {i}" for i in range(1, 6))), "its six groups"),
}


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

    For kind "complement-bipartite" the groups are (part 1, part 2): they
    partition the vertex set and each is a clique. For kind
    "w5-substitution" the groups are (hub, group 1, ..., group 5): they
    partition the vertex set, every group is a clique, the hub is
    complete to all cycle groups, consecutive cycle groups are complete
    to each other, and non-consecutive ones span no edges.
    """

    kind: str
    groups: tuple[VertexSet, ...]

    def to_json_dict(self) -> dict:
        out: dict = {"format_version": 1, "kind": self.kind}
        groups = [list(grp) for grp in self.groups]
        if self.kind == KIND_COMPLEMENT_BIPARTITE:
            out["parts"] = groups
        else:
            out["hub"], out["cycle_groups"] = groups[0], groups[1:]
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

    Each step runs on the true-twin class minima, and its result is
    expanded to whole classes (README).
    """
    require_c4free(g)
    reps = g._twins[0]
    result = _bipartition(_graph_of(_co_rows(g, reps)), reps)
    if not isinstance(result, OddCycle):
        parts = tuple(_to_vertexset(_classes_of(g, side)) for side in result)
        return StructureCertificate(KIND_COMPLEMENT_BIPARTITE, parts)

    cyc = result.vertices
    if len(cyc) == 3:
        raise HypothesisViolation(f"independent set of size 3 found: {cyc}", witness=cyc)
    if len(cyc) != 5:  # unreachable for truly C4-free inputs
        raise HypothesisViolation(
            f"complement has a chordless odd cycle of length {len(cyc)}: {cyc}", witness=cyc
        )

    # Consecutive on the complement cycle means non-adjacent in g, so the
    # five vertices induce a 5-cycle in g in every-other order.
    rim = [cyc[0], cyc[2], cyc[4], cyc[1], cyc[3]]
    rim_masks = [1 << v for v in rim]
    on_cycle = sum(rim_masks)

    # Patterns on the cycle: all five for the hub, three consecutive per group.
    patterns = [on_cycle]
    patterns += [rim_masks[i - 1] | rim_masks[i] | rim_masks[(i + 1) % 5] for i in range(5)]
    groups = [0] + rim_masks
    for w in _bit_indices(reps ^ on_cycle):
        pattern = g.adj[w] & on_cycle
        if pattern not in patterns:
            raise HypothesisViolation(
                f"vertex {w} is adjacent to neither all of {tuple(rim)} nor "
                "exactly three consecutive of them",
                witness=w,
            )
        groups[patterns.index(pattern)] |= 1 << w
    groups = [_classes_of(g, grp) for grp in groups]

    # Canonical labeling: group 1 holds the smallest cycle vertex, and the
    # orientation makes group 2's smallest member minimal.
    anchor = rim.index(min(cyc))
    forward = [groups[1 + (anchor + d) % 5] for d in range(5)]
    backward = [groups[1 + (anchor - d) % 5] for d in range(5)]
    ordered = forward if forward[1] & -forward[1] < backward[1] & -backward[1] else backward

    cert = StructureCertificate(
        KIND_W5_SUBSTITUTION, tuple(_to_vertexset(q) for q in [groups[0], *ordered])
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
    if cert.kind not in GROUP_NAMES:
        return f"unknown certificate kind {cert.kind!r}"
    names, missing = GROUP_NAMES[cert.kind]
    if len(cert.groups) != len(names):
        return f"{cert.kind} certificate is missing {missing}"

    # One pass over the groups in their order builds the group masks and
    # checks that they partition the vertex set.
    masks, seen = [], 0
    for grp in cert.groups:
        before = seen
        for v in grp:
            if not (0 <= v < g.n):
                return f"vertex {v} out of range"
            if seen >> v & 1:
                return f"vertex {v} appears in two groups"
            seen |= 1 << v
        masks.append(seen ^ before)
    if seen != g.full_mask:
        return f"vertex {(~seen & seen + 1).bit_length() - 1} is not covered"

    # (group, group, must be complete): each group with itself, then the hub to
    # every cycle group, consecutive cycle groups, and cycle groups two apart,
    # which must span no edge. The pair named is the least u, then the least v.
    # True twins have one closed row, so only the least member of each class
    # in a group is tested, even where a group splits a class.
    relations = [(a, a, True) for a in range(len(names))]
    if cert.kind == KIND_W5_SUBSTITUTION:
        relations += [(0, i, True) for i in range(1, 6)]
        relations += [(i, i % 5 + 1, True) for i in range(1, 6)]
        relations += [(i, (i + 1) % 5 + 1, False) for i in range(1, 6)]
    classes = g._twins[1]
    for a, b, complete in relations:
        rest = masks[a]
        while rest:
            u = (rest & -rest).bit_length() - 1
            rest &= ~classes[u]
            closed = g.adj[u] | 1 << u
            hits = masks[b] & ~closed if complete else masks[b] & closed
            if hits:
                v = (hits & -hits).bit_length() - 1
                if a == b:
                    return f"{names[a]} is not a clique: {u} and {v} are non-adjacent"
                state = "non-adjacent" if complete else "adjacent"
                return f"{names[a]} vertex {u} is {state} to {names[b]} vertex {v}"
    return None


def verify_certificate(g: Graph, cert: StructureCertificate) -> bool:
    return find_certificate_violation(g, cert) is None


def _best_clique(cert: StructureCertificate) -> VertexSet:
    # The first largest of the two parts, or of the five cliques hub + group
    # i + group i+1. Read off without a check: callers check the certificate.
    if cert.kind == KIND_COMPLEMENT_BIPARTITE:
        return max(cert.groups, key=len)
    hub, *rim = map(_mask_of, cert.groups)
    cliques = [hub | rim[i] | rim[(i + 1) % 5] for i in range(5)]
    return _to_vertexset(max(cliques, key=int.bit_count))


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
    best = _best_clique(cert)
    if not is_clique(g, best):  # pragma: no cover - implied by verification
        raise InvariantViolation(f"certificate clique {best} is not a clique")
    return best
