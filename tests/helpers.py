"""Shared builders, brute-force oracles and reference copies for the tests.

The brute-force oracles deliberately avoid the library's search code:
cliques and independent sets are found by enumerating subsets, so they
stay an independent cross-check for the branch-and-bound oracle. The
``reference_*`` functions are verbatim copies of the plain code that a
faster or smaller path in ``graph.py``, ``generators.py``, ``edgelist.py``,
``extraction.py``, ``structure.py`` or ``suites.py`` replaced; differential
tests require equal results.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from hypothesis import strategies as st

from c4free import (
    Graph,
    GraphInputError,
    bipartition,
    build_graph,
    complement,
    find_induced_c4,
    random_c4free,
    w5_blowup,
)
from c4free.edgelist import CLI_VERTEX_LIMIT, ParseError
from c4free.generators import _SLOTS, SplitMix64, _draws_below, _pair_rows
from c4free.graph import (
    FoundC4,
    InvariantViolation,
    OddCycle,
    VertexSet,
    _above,
    _bit_indices,
    _canonical_cycle,
    _check_vertex,
    _graph_of,
    _mask_of,
    _scan_induced_c4,
    _shortest_odd_cycle,
    _to_vertexset,
    is_clique,
    is_independent_set,
    require_c4free,
)
from c4free.structure import (
    KIND_COMPLEMENT_BIPARTITE,
    KIND_W5_SUBSTITUTION,
    HypothesisViolation,
    StructureCertificate,
)
from c4free.suites import SuiteConfig


def neighbors(g: Graph, v: int) -> tuple[int, ...]:
    return _to_vertexset(g.adj[v])


def edges(g: Graph) -> list[tuple[int, int]]:
    """All edges (u, v) with u < v in ascending lexicographic order."""
    return [(u, v) for u in range(g.n) for v in _bit_indices(g.adj[u] & _above(u))]


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(n: int) -> Graph:
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def edgeless(n: int) -> Graph:
    return build_graph(n, [])


def house() -> Graph:
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])


def disjoint_cliques(count: int, size: int) -> Graph:
    edges = []
    for c in range(count):
        base = c * size
        edges.extend(
            (base + i, base + j) for i in range(size) for j in range(i + 1, size)
        )
    return build_graph(count * size, edges)


def reference_scan(adj: Sequence[int], n: int, start: int = 0) -> Optional[FoundC4]:
    """The plain pair scan that ``graph._scan_induced_c4`` must agree with.

    For each non-adjacent pair (u, v), u >= start, in lexicographic order,
    look for a non-adjacent pair (p, q) inside N(u) ∩ N(v); first hit wins.
    """
    for u in range(start, n):
        nonadj = ~adj[u] & _above(u) & ((1 << n) - 1) & ~(1 << u)
        for v in _bit_indices(nonadj):
            common = adj[u] & adj[v]
            if common.bit_count() < 2:
                continue
            for p in _bit_indices(common):
                cand = common & ~adj[p] & _above(p)
                if cand:
                    q = (cand & -cand).bit_length() - 1
                    return FoundC4(u, p, v, q)
    return None


# Verbatim copies of the BFS tree of ``graph._bfs`` and the row writer of
# ``edgelist._edge_lines``, which stepped once per edge where the code that
# replaced them steps once per vertex.


def reference_bfs(g: Graph, source: int) -> list[int]:
    # BFS tree from source, neighbours in ascending order: parent of every
    # vertex reached (the source is its own parent), -1 elsewhere.
    parent = [-1] * g.n
    parent[source] = source
    queue = [source]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in _bit_indices(g.adj[u]):
            if parent[v] < 0:
                parent[v] = u
                queue.append(v)
    return parent


def reference_edge_lines(g: Graph) -> Iterator[str]:
    # The header, then the edges of each row with an edge to a later vertex.
    yield f"{g.n} {g.edge_count}\n"
    for u, row in enumerate(g.adj):
        if row >> u + 1:
            yield f"{u} " + f"\n{u} ".join(map(str, _bit_indices(row & _above(u)))) + "\n"


# Verbatim copy of the line-by-line edge-list parser that the bulk path in
# ``edgelist.py`` sits in front of.


def _reference_parse_ints(line: str, count: int, line_no: int) -> list[int]:
    tokens = line.split()
    if len(tokens) != count:
        raise ParseError(f"expected {count} integers, got {line!r}", line_no)
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise ParseError(f"not an integer: {tok!r}", line_no) from None
    return values


def reference_parse_graph(text: str, max_n: Optional[int] = CLI_VERTEX_LIMIT) -> Graph:
    header: Optional[tuple[int, int]] = None
    edges: list[tuple[int, int]] = []
    last_line_no = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        last_line_no = line_no
        if raw.lstrip().startswith("#"):
            continue
        if header is None:
            n, m = _reference_parse_ints(raw, 2, line_no)
            if n < 0 or m < 0:
                raise ParseError(f"negative counts in header: {n} {m}", line_no)
            if max_n is not None and n > max_n:
                raise ParseError(f"n={n} exceeds the vertex limit {max_n}", line_no)
            header = (n, m)
            continue
        if len(edges) >= header[1]:
            raise ParseError(f"trailing garbage after {header[1]} edges: {raw!r}", line_no)
        u, v = _reference_parse_ints(raw, 2, line_no)
        n = header[0]
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"vertex out of range 0..{n - 1} in edge {u} {v}", line_no)
        if u == v:
            raise ParseError(f"self-loop at vertex {u}", line_no)
        edges.append((u, v))
    if header is None:
        raise ParseError("missing header line 'n m'", last_line_no + 1)
    if len(edges) != header[1]:
        raise ParseError(
            f"header declared {header[1]} edges, found {len(edges)}",
            last_line_no + 1,
        )
    g = build_graph(header[0], edges)
    if g.edge_count != header[1]:
        # Error path only: the data lines after the header are the edges.
        lines = [no for no, raw in enumerate(text.splitlines(), start=1)
                 if not raw.lstrip().startswith("#")]
        seen: set[frozenset[int]] = set()
        for line_no, (u, v) in zip(lines[1:], edges):
            if frozenset((u, v)) in seen:
                raise ParseError(f"duplicate edge {u} {v}", line_no)
            seen.add(frozenset((u, v)))
    return g


def reference_random_corpus(config: SuiteConfig) -> Iterator[tuple[dict, Graph]]:
    """``suites._random_corpus`` as it was: repair every draw, then discard."""
    rng = SplitMix64(config.seed)
    produced = 0
    while produced < config.samples:
        n = 5 + rng.next_below(max(config.max_n - 4, 1))
        style = rng.next_below(10)
        if style < 8:
            avg_deg = 1 + rng.next_below(min(6, n - 1))
            p = Fraction(avg_deg, max(n - 1, 1))
        elif style == 8:
            p = Fraction(1, 2)
        else:
            p = Fraction(9, 10)
        inst_seed = rng.next_u64()
        g = random_c4free(n, p, inst_seed)
        if g.min_degree() < 1:
            continue
        params = {"kind": "random", "n": n, "p": str(p), "seed": inst_seed}
        produced += 1
        yield params, g


# Verbatim copies of the per-pair samplers that the lane kernel in
# ``generators.py`` replaced, and of the ``SplitMix64.chance`` they drew with.


class ReferenceSplitMix64(SplitMix64):
    def chance(self, p: Fraction) -> bool:
        """True with probability p, decided by exact integer comparison."""
        x = self.next_u64()
        return x * p.denominator < p.numerator << 64


def reference_sample_edge_masks(n: int, p: Fraction, seed: int) -> list[int]:
    # Pair order (0,1), (0,2), ..., (0,n-1), (1,2), ...: one stream draw each.
    rng = ReferenceSplitMix64(seed)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            if rng.chance(p):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


def reference_co_bipartite_sample(n: int, side_mask: int, seed: int) -> list[int]:
    """The sampling loop of ``generators._co_bipartite_c4free``, before repair."""
    rng = ReferenceSplitMix64(seed)
    half = Fraction(1, 2)
    adj = [0] * n
    for u in range(n):
        for v in range(u + 1, n):
            same_side = bool(side_mask >> u & 1) == bool(side_mask >> v & 1)
            if same_side or rng.chance(half):
                adj[u] |= 1 << v
                adj[v] |= 1 << u
    return adj


# Verbatim copy of the co-bipartite generator that the row kernel on the
# complement in ``generators._co_bipartite_c4free`` replaced: the lane
# sampler, then the resumed repair loop, adding the chord (a, c) of each
# witness and resuming at the first row that the chord can have made bad.


def reference_co_bipartite_c4free(n: int, side_mask: int, seed: int) -> Graph:
    side = bytes(side_mask >> v & 1 for v in range(n))
    # Same-side pairs are edges. Each cross pair is a %c slot, filled in pair
    # order from the stream with p = 1/2.
    slots = b"".join(side[u + 1:].translate(_SLOTS[side[u]]) for u in range(n))
    draws = _draws_below(seed, slots.count(b"%"), 1 << 63)
    return _repair(_pair_rows(n, slots.replace(b"%", b"%c") % tuple(draws)), n, _add_chord)


def _repair(adj: list[int], n: int, fix: Callable[[list[int], FoundC4], int]) -> Graph:
    # fix returns the first row its repair can have made bad. The loop ends
    # only on a clean scan from row 0, so no output rests on that bound alone,
    # and the graph carries that scan's verdict.
    start = 0
    while (witness := _scan_induced_c4(adj, n, start)) is not None:
        start = fix(adj, witness)
    if start and (witness := _scan_induced_c4(adj, n)) is not None:
        raise InvariantViolation(f"repair resumed past the induced 4-cycle {witness.vertices}")
    return _graph_of(adj, c4free=True)


def _add_chord(adj: list[int], witness: FoundC4) -> int:
    a, c = witness.a, witness.c
    adj[a] |= 1 << c
    adj[c] |= 1 << a
    diff = (adj[a] ^ adj[c]) & ~(1 << a | 1 << c)
    return min(a, (diff & -diff).bit_length() - 1) if diff else a


def restart_repair(
    adj: Sequence[int], n: int, chord: bool
) -> tuple[tuple[int, ...], list[FoundC4]]:
    """Reference repair: rescan from row 0 after every fix; the graph and the witnesses.

    A deletion toggles off the edge (a, b) of the witness, a chord toggles
    on the missing pair (a, c).
    """
    adj = list(adj)
    fixes = []
    while (witness := reference_scan(adj, n)) is not None:
        fixes.append(witness)
        x, y = (witness.a, witness.c) if chord else (witness.a, witness.b)
        adj[x] ^= 1 << y
        adj[y] ^= 1 << x
    return tuple(adj), fixes


# Verbatim copy of the deletion repair of ``generators.random_c4free`` that
# the in-frame deletion of ``graph._scan_induced_c4`` replaced: one scan per
# deletion, resumed at the first row the deletion can have made bad.


def reference_repair(adj: list[int], n: int) -> Graph:
    # _delete_edge returns the first row its deletion can have made bad. The
    # loop ends only on a clean scan from row 0, so no output rests on that
    # bound alone, and the graph carries that scan's verdict.
    start = 0
    while (witness := _scan_induced_c4(adj, n, start)) is not None:
        start = _delete_edge(adj, witness)
    if start and (witness := _scan_induced_c4(adj, n)) is not None:
        raise InvariantViolation(f"repair resumed past the induced 4-cycle {witness.vertices}")
    return _graph_of(adj, c4free=True)


def _delete_edge(adj: list[int], witness: FoundC4) -> int:
    a, b = witness.a, witness.b
    adj[a] &= ~(1 << b)
    adj[b] &= ~(1 << a)
    common = adj[a] & adj[b]
    for x in _bit_indices(common & ((1 << min(a, b)) - 1)):
        if common & ~adj[x] & -1 << x + 1:
            return x
    return min(a, b)


def skipping_scan(real_scan: Callable) -> Callable:
    """A stand-in for the scan whose repair mode goes wrong on purpose.

    It makes the first deletion, then names a resume row past the end, as a
    resume rule that skips rows would; other calls go to real_scan.
    """

    def scan(adj, n, start=0, verts=-1, budget=None, repair=False):
        witness = real_scan(adj, n, start, verts, budget)
        if not repair or witness is None:
            return witness
        _delete_edge(adj, witness)
        return n

    return scan


class LoggedRows(list):
    """Adjacency rows that log every write, so a repair's deletions can be read back.

    Each write is kept as (row, bits cleared) and must only clear bits. A
    deletion of the edge (a, b) writes row a, then row b.
    """

    def __init__(self, rows: Iterable[int]) -> None:
        super().__init__(rows)
        self.writes: list[tuple[int, int]] = []

    def __setitem__(self, index, value):
        old = self[index]
        assert value & ~old == 0, f"row {index} gained {value & ~old:#x}"
        self.writes.append((index, old ^ value))
        super().__setitem__(index, value)

    def deletions(self) -> list[tuple[int, int]]:
        pairs = list(zip(self.writes[::2], self.writes[1::2]))
        assert len(pairs) * 2 == len(self.writes)
        for (a, cleared_a), (b, cleared_b) in pairs:
            assert (cleared_a, cleared_b) == (1 << b, 1 << a)
        return [(a, b) for (a, _), (b, _) in pairs]


# Verbatim copies of the per-source BFS odd-cycle search, the queue BFS
# 2-colouring, the sequential greedy coloring and the recursive branch and bound, with its opening
# existence search, that the bit-parallel code in ``graph.py`` replaced.


def _reference_bfs(g: Graph, source: int) -> tuple[list[int], list[int]]:
    dist = [-1] * g.n
    parent = [-1] * g.n
    dist[source] = 0
    queue = [source]
    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        for v in _bit_indices(g.adj[u]):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def reference_shortest_odd_cycle(g: Graph) -> tuple[int, ...]:
    # Minimum over sources s and edges (u, v) with dist_s(u) = dist_s(v) of
    # the closed walk length 2*dist+1; the minimum odd closed walk is a
    # simple chordless cycle. First achiever in (s, u, v) scan order wins.
    best_len: Optional[int] = None
    best: Optional[tuple[int, int, int, list[int]]] = None
    for s in range(g.n):
        dist, parent = _reference_bfs(g, s)
        for u in range(g.n):
            if dist[u] < 0:
                continue
            for v in _bit_indices(g.adj[u] & _above(u)):
                if dist[v] != dist[u]:
                    continue
                length = 2 * dist[u] + 1
                if best_len is None or length < best_len:
                    best_len = length
                    best = (s, u, v, parent)
        if best_len == 3:
            break
    if best is None:
        raise InvariantViolation("odd cycle requested in a bipartite graph")
    s, u, v, parent = best
    path_u = [u]
    while path_u[-1] != s:
        path_u.append(parent[path_u[-1]])
    path_u.reverse()  # s .. u
    path_v = [v]
    while path_v[-1] != s:
        path_v.append(parent[path_v[-1]])
    # s .. u then v .. (s excluded): cyclic order s -> u -> v -> s.
    cycle = path_u + path_v[:-1]
    if len(set(cycle)) != len(cycle):  # pragma: no cover - minimality argument
        raise InvariantViolation("shortest odd closed walk was not simple")
    return _canonical_cycle(cycle)


def reference_bipartition(g: Graph) -> Union[tuple[tuple[int, ...], tuple[int, ...]], OddCycle]:
    """2-color by BFS per component, or return a chordless odd cycle.

    On success part one holds the lowest-indexed vertex of every
    component; the witness on failure is the shortest odd cycle, which
    is always induced.
    """
    color = [-1] * g.n
    odd = False
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = [s]
        head = 0
        while head < len(queue) and not odd:
            u = queue[head]
            head += 1
            for v in _bit_indices(g.adj[u]):
                if color[v] < 0:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    odd = True
                    break
        if odd:
            break
    if odd:
        return OddCycle(_shortest_odd_cycle(g))
    part0 = tuple(v for v in range(g.n) if color[v] == 0)
    part1 = tuple(v for v in range(g.n) if color[v] == 1)
    return (part0, part1)


def reference_color_order(adj: tuple[int, ...], mask: int) -> list[tuple[int, int]]:
    # Greedy coloring of the vertices in mask; returns (vertex, bound) with
    # vertices grouped by color class, bound = class index + 1.
    classes: list[int] = []
    for v in _bit_indices(mask):
        for i in range(len(classes)):
            if not (adj[v] & classes[i]):
                classes[i] |= 1 << v
                break
        else:
            classes.append(1 << v)
    order = []
    for i, cls in enumerate(classes):
        for v in _bit_indices(cls):
            order.append((v, i + 1))
    return order


def reference_clique_search(adj: tuple[int, ...], cand: int, beat: int, stop: int) -> int:
    # Size of the largest clique inside cand when it exceeds beat, else beat.
    # Branches that cannot beat the best size so far are cut by the greedy
    # coloring bound, and the search ends once a clique of size stop is found.
    if cand.bit_count() <= beat:
        return beat
    best = beat

    def expand(size: int, mask: int) -> None:
        nonlocal best
        if not mask or size >= stop:
            if size > best:
                best = size
            return
        order = reference_color_order(adj, mask)
        for v, bound in reversed(order):
            if size + bound <= best:
                return
            expand(size + 1, mask & adj[v])
            if best >= stop:
                return
            mask &= ~(1 << v)

    expand(0, cand)
    return best


def reference_lex_first_clique(adj: tuple[int, ...], cand: int, k: int) -> Optional[int]:
    # Lexicographically least k-clique inside cand, as a mask, or None.
    # Greedy prefix extension: each chosen vertex is the smallest whose
    # upward neighborhood still completes to the required size.
    if reference_clique_search(adj, cand, k - 1, k) < k:
        return None
    chosen = 0
    remaining = cand
    for depth in range(k):
        need_rest = k - depth - 1
        for v in _bit_indices(remaining):
            nxt = remaining & adj[v] & _above(v)
            if reference_clique_search(adj, nxt, need_rest - 1, need_rest) == need_rest:
                chosen |= 1 << v
                remaining = nxt
                break
        else:  # pragma: no cover - the search said a completion exists
            raise InvariantViolation("lexicographic clique extension lost its target")
    return chosen


def reference_max_clique(g: Graph) -> tuple[int, ...]:
    """``max_clique_exact`` as it was built from the two references above."""
    omega = reference_clique_search(g.adj, g.full_mask, 0, g.n)
    mask = reference_lex_first_clique(g.adj, g.full_mask, omega)
    assert mask is not None
    return _to_vertexset(mask)


def reference_independent_set_of_size(g: Graph, t: int) -> Optional[tuple[int, ...]]:
    """``find_independent_set_of_size`` as it was built from the references."""
    mask = reference_lex_first_clique(complement(g).adj, g.full_mask, t)
    return None if mask is None else _to_vertexset(mask)


# Verbatim copies of the three-way set classifier that the clique and
# independent-set predicates replaced, and of the edge-list clique
# substitution that now builds its rows from group masks.


class SetClass(NamedTuple):
    kind: str  # "clique" | "independent" | "neither"
    also_independent: bool


def reference_classify_set(g: Graph, members: Iterable[int]) -> SetClass:
    """Classify a vertex set as clique, independent, or neither.

    Sets of size <= 1 are both; they report kind "clique" with the
    also_independent flag raised.
    """
    verts = sorted(set(members))
    for v in verts:
        _check_vertex(g, v)
    if len(verts) <= 1:
        return SetClass("clique", True)
    mask = _mask_of(verts)
    all_adjacent = True
    none_adjacent = True
    for v in verts:
        inside = g.adj[v] & mask
        if inside != mask & ~(1 << v):
            all_adjacent = False
        if inside:
            none_adjacent = False
    if all_adjacent:
        return SetClass("clique", False)
    if none_adjacent:
        return SetClass("independent", False)
    return SetClass("neither", False)


def reference_clique_substitution(base: Graph, sizes: Sequence[int]) -> Graph:
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

    offsets = []
    total = 0
    for s in sizes:
        offsets.append(total)
        total += s

    def group(u: int) -> range:
        return range(offsets[u], offsets[u] + sizes[u])

    edges = []
    for u in range(base.n):
        for i in group(u):
            for j in group(u):
                if i < j:
                    edges.append((i, j))
        for v in range(u + 1, base.n):
            if base.has_edge(u, v):
                for i in group(u):
                    for j in group(v):
                        edges.append((i, j))
    g = build_graph(total, edges)
    witness = find_induced_c4(g)
    if witness is not None:  # pragma: no cover - closure property
        raise InvariantViolation(
            f"clique substitution produced an induced 4-cycle {witness.vertices}"
        )
    return g


# Verbatim copies of the two pair scans over an independent set that
# ``extraction._pair_meets`` replaced.


def reference_best_pair_intersection(
    g: Graph, members: Sequence[int]
) -> tuple[int, int, VertexSet]:
    """Pair of the independent set with the largest common neighborhood.

    Pairs are scanned in lexicographic order and ties keep the first
    pair. Because g has no induced 4-cycle, the winning intersection
    spans a clique; that is asserted.
    """
    s = sorted(set(members))
    if len(s) < 2:
        raise GraphInputError(f"need at least 2 vertices, got {len(s)}")
    if not is_independent_set(g, s):
        raise GraphInputError(f"set {tuple(s)} is not independent")
    best: Optional[tuple[int, int, int]] = None
    best_size = -1
    for i in range(len(s)):
        for j in range(i + 1, len(s)):
            mask = g.adj[s[i]] & g.adj[s[j]]
            size = mask.bit_count()
            if size > best_size:
                best_size = size
                best = (s[i], s[j], mask)
    assert best is not None
    xi, xj, mask = best
    clique = _to_vertexset(mask)
    if not is_clique(g, clique):
        raise GraphInputError(
            f"common neighborhood of {xi} and {xj} is not a clique; "
            "the graph has an induced 4-cycle"
        )
    return (xi, xj, clique)


def reference_degree_square_census(g: Graph, members: Iterable[int]) -> dict:
    """Exact tallies for the incidence between an independent set and V.

    Writing deg(v) for the number of set members adjacent to v, returns
    sum deg(v)^2, sum |A_i|, and the ordered pairwise intersection total
    sum_{i != j} |A_i ∩ A_j|; the first always equals the sum of the
    other two. Also returns the Cauchy-Schwarz floor t^2*d^2/n, which
    never exceeds the square sum when the set is independent.
    """
    s = sorted(set(members))
    if not is_independent_set(g, s):
        raise GraphInputError(f"set {tuple(s)} is not independent")
    s_mask = _mask_of(s)
    sum_deg_sq = 0
    for v in range(g.n):
        deg = (g.adj[v] & s_mask).bit_count()
        sum_deg_sq += deg * deg
    sum_sizes = sum(g.adj[x].bit_count() for x in s)
    sum_pairwise = 0
    for i in range(len(s)):
        for j in range(len(s)):
            if i != j:
                sum_pairwise += (g.adj[s[i]] & g.adj[s[j]]).bit_count()
    delta = g.min_degree()
    t = len(s)
    cs_floor = Fraction(t * t * delta * delta, g.n) if g.n else Fraction(0)
    return {
        "sum_deg_sq": sum_deg_sq,
        "sum_sizes": sum_sizes,
        "sum_pairwise": sum_pairwise,
        "cs_floor": cs_floor,
    }


# Verbatim copies of the structure checker (with its partition and pair
# helpers), the decomposition and the clique reader that the group-mask
# versions in ``structure.py`` replaced.


def reference_alpha2_decompose(g: Graph) -> StructureCertificate:
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
        return StructureCertificate(kind=KIND_COMPLEMENT_BIPARTITE, groups=result)

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
        groups=(tuple(sorted(hub)), *(tuple(q) for q in ordered)),
    )
    failure = reference_find_certificate_violation(g, cert)
    if failure is not None:
        raise HypothesisViolation(f"group structure check failed: {failure}")
    return cert


def reference_find_certificate_violation(g: Graph, cert: StructureCertificate) -> Optional[str]:
    """First invariant of the certificate that fails against g, or None.

    Checked edge by edge with no reliance on how the certificate was
    produced.
    """
    if cert.kind == KIND_COMPLEMENT_BIPARTITE:
        if len(cert.groups) != 2:
            return "complement-bipartite certificate is missing its parts"
        p1, p2 = cert.groups
        named = [("part 1", p1), ("part 2", p2)]
    elif cert.kind == KIND_W5_SUBSTITUTION:
        if len(cert.groups) != 6:
            return "w5-substitution certificate is missing its six groups"
        named = [("hub", cert.groups[0])]
        named += [(f"group {i + 1}", grp) for i, grp in enumerate(cert.groups[1:])]
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


def reference_clique_from_certificate(g: Graph, cert: StructureCertificate) -> VertexSet:
    """Clique of size at least ceil(2n/5) read off a valid certificate.

    Bipartite-complement kind: the larger part (at least half the
    vertices). Wheel kind: the best of the five cliques hub + group i +
    group i+1; their sizes sum to 2n plus three times the hub size, so
    the best one has at least 2n/5 vertices.
    """
    failure = reference_find_certificate_violation(g, cert)
    if failure is not None:
        raise GraphInputError(f"invalid structure certificate: {failure}")
    if cert.kind == KIND_COMPLEMENT_BIPARTITE:
        p1, p2 = cert.groups
        best = p1 if len(p1) >= len(p2) else p2
    else:
        hub, *rim = cert.groups
        best = None
        for i in range(5):
            candidate = tuple(sorted({*hub, *rim[i], *rim[(i + 1) % 5]}))
            if best is None or len(candidate) > len(best):
                best = candidate
        assert best is not None
    if not is_clique(g, best):  # pragma: no cover - implied by verification
        raise InvariantViolation(f"certificate clique {best} is not a clique")
    return best


def relabelled(g: Graph, seed: int) -> Graph:
    """g with vertex labels shuffled by ``random.Random(seed)``."""
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in edges(g)])


def relabelled_w5_blowup(sizes: Sequence[int], seed: int) -> Graph:
    """``w5_blowup(sizes)`` with vertex labels shuffled by ``random.Random(seed)``."""
    return relabelled(w5_blowup(sizes), seed)


def brute_omega(g: Graph) -> int:
    """Clique number by raw subset enumeration; fine up to ~12 vertices."""
    for size in range(g.n, 1, -1):
        for subset in itertools.combinations(range(g.n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return min(g.n, 1)


def brute_alpha(g: Graph) -> int:
    for size in range(g.n, 1, -1):
        for subset in itertools.combinations(range(g.n), size):
            if not any(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                return size
    return min(g.n, 1)


@st.composite
def raw_graphs(draw, max_n: int = 10):
    """Arbitrary graphs from explicit edge subsets."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    else:
        edges = []
    return build_graph(n, edges)


@st.composite
def component_graphs(draw, max_n: int = 40):
    """Relabelled graphs of up to four random parts, with isolated vertices.

    The edge probability is 0 or 1 often enough that empty and complete
    graphs occur.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    parts = draw(st.integers(min_value=1, max_value=4))
    isolated = draw(st.integers(min_value=0, max_value=n))
    p = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0, max_value=1)))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**32)))
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [
        (perm[u], perm[v]) for u, v in itertools.combinations(range(n - isolated), 2)
        if u % parts == v % parts and rng.random() < p
    ])


@st.composite
def c4free_graphs(draw, max_n: int = 20):
    """Seeded C4-free instances; shrinking works on the seed triple."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    num = draw(st.integers(min_value=0, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    return random_c4free(n, Fraction(num, 10), seed)


def substituted(base: Graph, sizes: Sequence[int]) -> Graph:
    """Clique substitution with no check on the base: its induced 4-cycles stay."""
    groups = []
    total = 0
    for s in sizes:
        groups.append(range(total, total + s))
        total += s
    pairs = [(u, u) for u in range(base.n)] + edges(base)
    return build_graph(total, [
        (i, j) for u, v in pairs for i in groups[u] for j in groups[v] if i < j
    ])


@st.composite
def twin_rich_graphs(draw, max_base: int = 7, max_size: int = 4):
    """Clique substitutions into small bases, relabelled at random.

    Raw bases may hold induced 4-cycles, repaired ones do not; a size of 0
    deletes the base vertex.
    """
    base = draw(st.one_of(raw_graphs(max_n=max_base), c4free_graphs(max_n=max_base)))
    sizes = draw(st.lists(
        st.integers(min_value=0, max_value=max_size), min_size=base.n, max_size=base.n
    ))
    g = substituted(base, sizes)
    perm = draw(st.permutations(range(g.n)))
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in edges(g)])
