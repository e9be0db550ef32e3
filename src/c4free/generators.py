"""Generators for the extremal graph families and seeded random instances.

All constructions are deterministic. Random instances come from
splitmix64 (pinned by name and version in suite configs) so the same
(n, p, seed) triple reproduces the same graph on any platform.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from typing import Optional, Sequence, Union

from .graph import (
    Graph,
    GraphInputError,
    InvariantViolation,
    _bit_indices,
    _graph_of,
    _scan_induced_c4,
    find_induced_c4,
    require_c4free,
)

RNG_NAME = "splitmix64-v1"

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """splitmix64 pseudo-random stream (Steele, Lea and Flood's mixer).

    Eight lines of integer arithmetic, identical on every platform and
    easy to reimplement elsewhere, which is why seeds are portable.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        """Uniform-ish draw in [0, bound); plain modulo, documented bias."""
        if bound <= 0:
            raise GraphInputError(f"bound must be positive, got {bound}")
        return self.next_u64() % bound


# The edge samplers run the stream in chunks of _LANES draws held in one int:
# draw j of a chunk sits in bits [128j, 128j + 64), so each 64x64-bit product
# of the mixer fits in its 128-bit slot.
_LANES = 1024
_ONES = int.from_bytes((b"\1" + bytes(15)) * _LANES, "little")
_LANE_MASK = _ONES * _MASK64
# Lane j: (j + 1) * gamma mod 2**64, the state of draw j less the chunk's seed.
_STEPS = int.from_bytes(
    b"".join(map(int.to_bytes, range(1, _LANES + 1), repeat(16), repeat("little"))), "little"
) * _GAMMA & _LANE_MASK
_DIGITS = bytes.maketrans(b"\0\1", b"01")
# Pair slots of a row on side 0 or side 1: 1 for a same-side pair, % for a cross pair.
_SLOTS = (bytes.maketrans(b"\0\1", b"\1%"), bytes.maketrans(b"\0\1", b"%\1"))


def _draws_below(seed: int, count: int, threshold: int) -> bytearray:
    """Byte k is 1 iff output k of SplitMix64(seed) is below threshold."""
    flags = bytearray(count)
    for start in range(0, count, _LANES):
        m = min(_LANES, count - start)
        low = (1 << 128 * m) - 1
        ones, lanes = _ONES & low, _LANE_MASK & low
        # next_u64 on every lane; the AND after each shift clears the bits
        # shifted in from the lane above.
        z = ((seed + start * _GAMMA & _MASK64) * ones + (_STEPS & low)) & lanes
        z = ((z ^ z >> 30) & lanes) * 0xBF58476D1CE4E5B9 & lanes
        z = ((z ^ z >> 27) & lanes) * 0x94D049BB133111EB & lanes
        z = (z ^ z >> 31) & lanes
        # threshold + 2**64 - 1 - z carries into bit 64 of its lane iff z < threshold.
        below = (threshold + _MASK64) * ones - z
        flags[start:start + m] = below.to_bytes(16 * m, "little")[8::16]
    return flags


def _pair_rows(n: int, flags: bytes) -> list[int]:
    """Adjacency rows from one 0/1 byte per pair (0,1), (0,2), ..., (n-2,n-1)."""
    # Reversed, the pairs fill the lower triangle of an n x n grid of digits
    # row by row, where row and column r both stand for vertex n-1-r. Read as
    # a binary numeral, a grid row or column then has bit v at vertex v: the
    # row of vertex n-1-r is grid row r left of the diagonal, column r below.
    tri = flags[::-1].translate(_DIGITS)
    grid = bytearray(b"0") * (n * n)
    for r in range(1, n):
        grid[r * n:r * n + r] = tri[r * (r - 1) // 2:r * (r + 1) // 2]
    return [int(grid[r * n:r * n + r] + grid[r * (n + 1)::n], 2) for r in reversed(range(n))]


def cycle_power(k: int) -> Graph:
    """Cycle on 4k+1 vertices plus all chords of circular distance <= k.

    2k-regular and free of induced 4-cycles; both are asserted on the
    constructed graph. As the rows are checked to be rotations of one
    another, the 4-cycle check scans row 0 alone; the graph keeps its verdict.
    """
    if k < 1:
        raise GraphInputError(f"k must be at least 1, got {k}")
    n = 4 * k + 1
    # Vertex 0 sees labels 1..k and n-k..n-1; vertex i sees that band rotated by i.
    band = ((1 << k) - 1) * (2 | 1 << (n - k))
    rows = [(band << i | band >> (n - i)) & ((1 << n) - 1) for i in range(n)]
    if any(row.bit_count() != 2 * k for row in rows):
        raise InvariantViolation(f"cycle_power({k}) is not {2 * k}-regular")
    _require_circulant_c4free(rows)
    return _graph_of(rows, c4free=True)


def _require_circulant_c4free(rows: Sequence[int]) -> None:
    # Each row must be the one before it rotated by one place. Rotation is
    # then an automorphism, which carries any induced 4-cycle onto one
    # through vertex 0, and row 0 of the pair scan meets that cycle at the
    # vertex opposite 0. So row 0 of the scan finds what the full scan finds.
    n = len(rows)
    full = (1 << n) - 1
    for i in range(1, n):
        if rows[i] != (rows[i - 1] << 1 | rows[i - 1] >> n - 1) & full:
            raise InvariantViolation(f"row {i} of a circulant is not row {i - 1} rotated by one")
    if (witness := _scan_induced_c4(rows, n, u_mask=1)) is not None:
        raise InvariantViolation(f"circulant contains an induced 4-cycle {tuple(witness)}")


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
        row = group[u] | sum(group[v] for v in _bit_indices(base.adj[u]))
        start = len(adj)
        adj.extend(row ^ (1 << i) for i in range(start, start + s))
    g = _graph_of(adj)
    witness = find_induced_c4(g)
    if witness is not None:  # pragma: no cover - closure property
        raise InvariantViolation(
            f"clique substitution produced an induced 4-cycle {witness.vertices}"
        )
    return g


# The 5-wheel, built once so that its cached verdict serves every w5_blowup.
_W5 = _graph_of([0b111110, 0b100101, 0b001011, 0b010101, 0b101001, 0b010011])


def w5_base() -> Graph:
    """The 5-wheel: hub 0 joined to the cycle 1-2-3-4-5-1."""
    return _W5


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
    # One stream draw per pair in pair order; an integer draw is below p * 2**64
    # iff it is below the ceiling.
    threshold = -((-p.numerator << 64) // p.denominator)
    return _pair_rows(n, _draws_below(seed, n * (n - 1) // 2, threshold))


def random_c4free(
    n: int, p: Union[Fraction, float, str], seed: int, *, skip_isolated: bool = False
) -> Optional[Graph]:
    """Seeded random graph repaired to be free of induced 4-cycles.

    Edges are sampled independently with probability p, then while the
    pair-scan detector finds an induced cycle (a, b, c, d) the edge
    (a, b) is deleted. Edge count strictly decreases per repair step, so
    the loop terminates; the bias of the repaired distribution is not
    quantified. The scan deletes in its frame and goes on in row a, with
    (a, c) and (a, b) pending again; it resumes lower only at x, the least
    vertex of N(a) ∩ N(b) below a with a non-neighbour above it there. Only
    {a, b} and the non-adjacent pairs inside N(a) ∩ N(b) can turn bad, so
    the deletions are those of a scan restarted at row 0. Sparse rows drop
    pairs with under two common neighbours by a two-hop filter first.

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
    return _repair(adj, n)


def _co_bipartite_sample(n: int, side_mask: int, seed: int) -> list[int]:
    side = bytes(side_mask >> v & 1 for v in range(n))
    # Same-side pairs are edges. Each cross pair is a %c slot, filled in pair
    # order from the stream with p = 1/2.
    slots = b"".join(side[u + 1:].translate(_SLOTS[side[u]]) for u in range(n))
    draws = _draws_below(seed, slots.count(b"%"), 1 << 63)
    return _pair_rows(n, slots.replace(b"%", b"%c") % tuple(draws))


def _co_bipartite_c4free(n: int, side_mask: int, seed: int) -> Graph:
    """Complement of a random bipartite graph, repaired by chords.

    Works on the complement H, h[u] the cross pairs at u that are not edges.
    A pair (x, w) of H, x < w, lies on an induced cycle (x, p, w, q) iff w
    is outside I, the AND of h[p] over D: the p != x on x's side with a q in
    h[p] but not in h[x]. Each row, in order, takes the chord of its lowest
    bad pair while it has one, as a scan from row 0 would. The chord grows
    D by h[w] only, so I is kept, and it never spoils a lower row (README),
    so no row is visited twice. H ends a chain graph (no induced 2K2); the
    graph's own verdict, one scan of its class minima, checks the result.
    """
    full = (1 << n) - 1
    sides = (full & ~side_mask, full & side_mask)
    rows = _co_bipartite_sample(n, side_mask, seed)
    h = [sides[1 ^ side_mask >> u & 1] & ~row for u, row in enumerate(rows)]
    for x in range(n):
        hx = h[x]
        if hx >> x + 1:
            # Rows across from x, and row x itself, miss other: D meets it.
            other = sides[1 ^ side_mask >> x & 1] & ~hx
            inter, members = -1, 0
            for p, hp in enumerate(h):
                if hp & other:
                    inter &= hp
                    members |= 1 << p
            while bad := hx & ~inter & -1 << x + 1:
                w = (bad & -bad).bit_length() - 1
                hx ^= 1 << w
                h[w] ^= 1 << x
                grow = h[w] & ~members
                members |= grow
                while grow:
                    low = grow & -grow
                    grow ^= low
                    inter &= h[low.bit_length() - 1]
            h[x] = hx
    g = _graph_of([full ^ 1 << u ^ hu for u, hu in enumerate(h)])
    if (witness := g._witness) is not None:
        raise InvariantViolation(f"chord repair left the induced 4-cycle {witness.vertices}")
    return g


def _repair(adj: list[int], n: int) -> Graph:
    # The scan deletes inside its frame and returns a row only when a deletion
    # can have spoiled a lower one. Whenever an edge went, the loop ends on a
    # clean scan from row 0, so no output rests on that bound alone, and the
    # graph carries that scan's verdict.
    sampled = list(adj)
    start: Optional[int] = 0
    while start is not None:
        start = _scan_induced_c4(adj, n, start, repair=True)
    if adj != sampled and (witness := _scan_induced_c4(adj, n)) is not None:
        raise InvariantViolation(f"repair resumed past the induced 4-cycle {witness.vertices}")
    return _graph_of(adj, c4free=True)
