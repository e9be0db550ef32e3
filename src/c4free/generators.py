"""Generators for the extremal graph families and seeded random instances.

All constructions are deterministic. Random instances come from
splitmix64 (pinned by name and version in suite configs) so the same
(n, p, seed) triple reproduces the same graph on any platform.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

from .graph import (
    FoundC4,
    Graph,
    GraphInputError,
    InvariantViolation,
    _above,
    _bit_indices,
    _scan_induced_c4,
    build_graph,
    find_induced_c4,
    require_c4free,
)

RNG_NAME = "splitmix64-v1"

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 pseudo-random stream (Steele, Lea and Flood's mixer).

    Eight lines of integer arithmetic, identical on every platform and
    easy to reimplement elsewhere, which is why seeds are portable.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound); plain modulo, documented bias."""
        if bound <= 0:
            raise GraphInputError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound

    def chance(self, p: Fraction) -> bool:
        """True with probability p, decided by exact integer comparison."""
        x = self.next_u64()
        return x * p.denominator < p.numerator << 64


def cycle_power(k: int) -> Graph:
    """Cycle on 4k+1 vertices plus all chords of circular distance <= k.

    2k-regular and free of induced 4-cycles; both are asserted on the
    constructed graph.
    """
    if k < 1:
        raise GraphInputError(f"k must be at least 1, got {k}")
    n = 4 * k + 1
    edges = []
    for i in range(n):
        for d in range(1, k + 1):
            j = (i + d) % n
            edges.append((i, j))
    g = build_graph(n, edges)
    if any(deg != 2 * k for deg in g.degrees()):
        raise InvariantViolation(f"cycle_power({k}) is not {2 * k}-regular")
    witness = find_induced_c4(g)
    if witness is not None:
        raise InvariantViolation(
            f"cycle_power({k}) contains an induced 4-cycle {witness.vertices}"
        )
    return g


def clique_substitution(base: Graph, sizes: Sequence[int]) -> Graph:
    """Replace each base vertex by a clique; size 0 deletes the vertex.

    Two groups are joined completely iff their base vertices were
    adjacent. Groups are laid out contiguously in ascending base-vertex
    order. The closure property (a C4-free base gives a C4-free result)
    is asserted on the output.
    """
    if len(sizes) != base.n:
        raise GraphInputError(
            f"sizes has length {len(sizes)}, base has {base.n} vertices"
        )
    for s in sizes:
        if s < 0:
            raise GraphInputError(f"group sizes must be non-negative, got {s}")
    require_c4free(base)

    # Row of a vertex: its own group and the groups of its base neighbours,
    # less the vertex itself.
    group = []
    total = 0
    for s in sizes:
        group.append(((1 << s) - 1) << total)
        total += s
    adj = []
    for u, s in enumerate(sizes):
        row = group[u]
        for v in _bit_indices(base.adj[u]):
            row |= group[v]
        start = len(adj)
        adj.extend(row ^ (1 << i) for i in range(start, start + s))
    g = Graph(n=total, adj=tuple(adj), edge_count=sum(row.bit_count() for row in adj) // 2)
    witness = find_induced_c4(g)
    if witness is not None:  # pragma: no cover - closure property
        raise InvariantViolation(
            f"clique substitution produced an induced 4-cycle {witness.vertices}"
        )
    return g


def w5_base() -> Graph:
    """The 5-wheel: hub 0 joined to the cycle 1-2-3-4-5-1."""
    edges = [(0, i) for i in range(1, 6)]
    edges += [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    return build_graph(6, edges)


def w5_blowup(sizes: Sequence[int]) -> Graph:
    """Clique substitution into the 5-wheel; sizes order (hub, v1..v5).

    Any output has independence number at most 2: the hub group meets
    everything and no three of the five rim positions are pairwise
    non-consecutive.
    """
    if len(sizes) != 6:
        raise GraphInputError(f"expected 6 sizes (hub, v1..v5), got {len(sizes)}")
    return clique_substitution(w5_base(), sizes)


def _sample_edge_masks(n: int, p: Fraction, seed: int) -> list[int]:
    # Pair order (0,1), (0,2), ..., (0,n-1), (1,2), ...: one stream draw each.
    rng = SplitMix64(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.chance(p):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def random_c4free(
    n: int, p: Union[Fraction, float, str], seed: int, *, skip_isolated: bool = False
) -> Optional[Graph]:
    """Seeded random graph repaired to be free of induced 4-cycles.

    Edges are sampled independently with probability p, then while the
    pair-scan detector finds an induced cycle (a, b, c, d) the edge
    (a, b) is deleted. Edge count strictly decreases per repair step, so
    the loop terminates; the bias of the repaired distribution is not
    quantified. After a deletion the scan resumes at row min(a, b, x),
    x the least vertex of N(a) ∩ N(b) with a non-neighbour above it in
    that set: only {a, b} and the non-adjacent pairs inside N(a) ∩ N(b)
    can turn bad, so the deletions are those of a scan restarted at row 0.

    With skip_isolated, a sample with an isolated vertex is not repaired and
    None is returned. A deletion keeps a and b adjacent to d and c, so
    repair never isolates a vertex: these are exactly the draws that would
    end with one.
    """
    prob = Fraction(p)
    if not (0 <= prob <= 1):
        raise GraphInputError(f"edge probability must be in [0, 1], got {prob}")
    if n < 0:
        raise GraphInputError(f"vertex count must be non-negative, got {n}")
    adj = _sample_edge_masks(n, prob, seed)
    if skip_isolated and not all(adj):
        return None
    return _repair(adj, n, _delete_edge)


def _co_bipartite_c4free(n: int, side_mask: int, seed: int) -> Graph:
    """Complement of a random bipartite graph, repaired by chords.

    While the scan finds an induced cycle (a, b, c, d) the chord (a, c) is
    added: both sides stay cliques, so the complement stays bipartite, and
    missing pairs strictly decrease, so the loop ends. The scan then resumes
    at row min(a, y), y the least vertex of N(a) XOR N(c) other than a and
    c, since only pairs joining a or c to that set gain a common neighbour.
    """
    rng = SplitMix64(seed)
    half = Fraction(1, 2)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            same_side = bool(side_mask >> u & 1) == bool(side_mask >> v & 1)
            if same_side or rng.chance(half):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return _repair(adj, n, _add_chord)


def _repair(adj: list[int], n: int, fix: Callable[[list[int], FoundC4], int]) -> Graph:
    # fix returns the first row its repair can have made bad. The loop ends
    # only on a clean scan from row 0, so no output rests on that bound alone.
    start = 0
    while (witness := _scan_induced_c4(adj, n, start)) is not None:
        start = fix(adj, witness)
    if start and (witness := _scan_induced_c4(adj, n)) is not None:
        raise InvariantViolation(f"repair resumed past the induced 4-cycle {witness.vertices}")
    return Graph(n=n, adj=tuple(adj), edge_count=sum(row.bit_count() for row in adj) // 2)


def _delete_edge(adj: list[int], witness: FoundC4) -> int:
    a, b = witness.a, witness.b
    adj[a] &= ~(1 << b)
    adj[b] &= ~(1 << a)
    common = adj[a] & adj[b]
    for x in _bit_indices(common & ((1 << min(a, b)) - 1)):
        if common & ~adj[x] & _above(x):
            return x
    return min(a, b)


def _add_chord(adj: list[int], witness: FoundC4) -> int:
    a, c = witness.a, witness.c
    adj[a] |= 1 << c
    adj[c] |= 1 << a
    diff = (adj[a] ^ adj[c]) & ~(1 << a | 1 << c)
    return min(a, (diff & -diff).bit_length() - 1) if diff else a
