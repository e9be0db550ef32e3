"""Immutable bitset graphs and the exact desk-scale oracles built on them.

Vertices are integers 0..n-1. Adjacency is one Python int per vertex
(bit v of ``adj[u]`` is set iff u~v), so neighborhood intersections,
domination checks, and clique search all reduce to integer bit
operations. Every operation here is a pure function of its inputs and
breaks ties lexicographically, so equal inputs always give identical
outputs.
"""

from __future__ import annotations

import itertools
from binascii import b2a_base64
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, getitem, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

VertexSet = tuple[int, ...]

ORACLE_LIMIT_DEFAULT = 48


class GraphInputError(ValueError):
    """An operation was called with inputs that violate its contract."""


class OracleLimitError(GraphInputError):
    """An exact oracle was asked about a graph above the configured limit."""


class InvariantViolation(RuntimeError):
    """A guarantee that must hold for valid inputs failed.

    Signals either an input that lied about its preconditions or an
    implementation bug; never a normal outcome, never silently ignored.
    """


def _bit_indices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _to_vertexset(mask: int) -> VertexSet:
    return tuple(_bit_indices(mask))


def _mask_of(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def _above(v: int) -> int:
    # All bits strictly above position v (negative int: infinite ones).
    return -1 << (v + 1)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph, immutable after construction."""

    n: int
    adj: tuple[int, ...]
    edge_count: int

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def has_edge(self, u: int, v: int) -> bool:
        return (self.adj[u] >> v) & 1 == 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def min_degree(self) -> int:
        return min(self.degrees()) if self.n else 0

    # The two cached values below live in the instance __dict__, outside the
    # dataclass fields, so equality, hashing and repr ignore them; adj is an
    # immutable tuple, so they never go stale.

    @cached_property
    def _twins(self) -> tuple[int, tuple[int, ...]]:
        # True-twin classes, the vertices with one closed neighbourhood: the
        # mask of class minima and each vertex's class mask. A twin-free
        # graph has n singleton classes and every vertex as a minimum.
        closed = [row | 1 << v for v, row in enumerate(self.adj)]
        classes: dict[int, int] = {}
        for v, key in enumerate(closed):
            classes[key] = classes.get(key, 0) | 1 << v
        reps = sum(members & -members for members in classes.values())
        return reps, tuple(classes[key] for key in closed)

    @cached_property
    def _witness(self) -> Optional[FoundC4]:
        # The first witness of the pair scan lies on class minima: a
        # smaller twin of any of its four vertices gives a witness the scan
        # meets earlier. So the scan of the minima alone finds it. The rows
        # never change, so the scan may build block tables once it has met
        # about as many pairs (2n) as building them costs.
        return _scan_induced_c4(self.adj, self.n, 0, self._twins[0], 2 * self.n)


def _graph_of(adj: Sequence[int], c4free: bool = False) -> Graph:
    """Graph from adjacency rows; c4free records a clean scan already made."""
    g = Graph(n=len(adj), adj=tuple(adj), edge_count=sum(row.bit_count() for row in adj) // 2)
    if c4free:
        g.__dict__["_witness"] = None
    return g


class FoundC4(NamedTuple):
    """Witness quadruple (a, b, c, d): edges ab, bc, cd, da; non-edges ac, bd."""

    a: int
    b: int
    c: int
    d: int

    @property
    def vertices(self) -> VertexSet:
        return (self.a, self.b, self.c, self.d)


class OddCycle(NamedTuple):
    """Chordless odd cycle in cyclic vertex order."""

    vertices: VertexSet


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate edges collapse, self-loops refuse."""
    if n < 0:
        raise GraphInputError(f"vertex count must be non-negative, got {n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphInputError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise GraphInputError(f"self-loop at vertex {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _graph_of(adj)


def _check_vertex(g: Graph, v: int) -> None:
    if not (0 <= v < g.n):
        raise GraphInputError(f"vertex {v} out of range for n={g.n}")


def common_neighbors(g: Graph, u: int, v: int) -> VertexSet:
    """N(u) ∩ N(v), excluding u and v themselves."""
    if u == v:
        raise GraphInputError(f"common_neighbors needs distinct vertices, got {u} twice")
    _check_vertex(g, u)
    _check_vertex(g, v)
    mask = g.adj[u] & g.adj[v] & ~(1 << u) & ~(1 << v)
    return _to_vertexset(mask)


def _members_mask(g: Graph, members: Iterable[int]) -> int:
    # Checked in ascending order, so an error names the least bad vertex.
    verts = sorted(set(members))
    for v in verts:
        _check_vertex(g, v)
    return _mask_of(verts)


def is_clique(g: Graph, members: Iterable[int]) -> bool:
    """Every two members are adjacent; sets of size <= 1 count."""
    mask = _members_mask(g, members)
    return all((mask & ~g.adj[v]) == 1 << v for v in _bit_indices(mask))


def is_independent_set(g: Graph, members: Iterable[int]) -> bool:
    """No two members are adjacent; sets of size <= 1 count."""
    mask = _members_mask(g, members)
    return not any(g.adj[v] & mask for v in _bit_indices(mask))


# base64 writes one character for each 6 bits, most significant first.
_B64_VALUES = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(64))
)


def _block_tables(adj: Sequence[int], n: int) -> tuple[int, list[list[int]], list[list[int]]]:
    # For each block of six labels, from the highest down, the ORs of its
    # rows and the ANDs of its closed rows, one entry for each of the 64
    # subsets. Written in size bytes, a multiple of 3, a mask's base64
    # characters are its blocks; the blocks at or above n are empty. The
    # tables take about 20 times the memory of adj, 41 MiB at n = 4093;
    # eight-label blocks take three times that, four-label ones more lookups.
    size = 3 * -(-n // 24)
    ors, ands = [], []
    for base in reversed(range(0, 8 * size, 6)):
        block = range(base, min(base + 6, n))
        for tables, sub, op, rows in (
            (ors, [0], or_, [adj[v] for v in block]),
            (ands, [-1], and_, [adj[v] | 1 << v for v in block]),
        ):
            for row in rows:
                sub += [op(entry, row) for entry in sub]
            tables.append(sub)
    return size, ors, ands


def _fold(op: Callable[[int, int], int], tables: list[list[int]], size: int, mask: int) -> int:
    # op over the entries that the blocks of mask select: one C-level lookup
    # per block.
    digits = b2a_base64(mask.to_bytes(size, "big"), newline=False).translate(_B64_VALUES)
    return reduce(op, map(getitem, tables, digits))


def _grown(adj: Sequence[int], clique: int, grow: int) -> int:
    # clique grown greedily, in ascending order, by members of grow, the
    # vertices adjacent to all of it.
    while grow:
        bit = grow & -grow
        clique |= bit
        grow &= adj[bit.bit_length() - 1]
    return clique


def _scan_induced_c4(
    adj: Sequence[int],
    n: int,
    start: int = 0,
    verts: int = -1,
    budget: Optional[int] = None,
    repair: bool = False,
    u_mask: int = -1,
) -> Union[FoundC4, int, None]:
    # For each non-adjacent pair (u, v) of verts, u >= start and u in u_mask,
    # in lexicographic order, look for a non-adjacent pair (p, q) of verts
    # inside N(u) ∩ N(v); first hit wins.
    # Each common neighbourhood found to be a clique is grown greedily, in
    # ascending order, to a maximal clique inside N(u) and kept for the row.
    # A later common neighbourhood inside a kept clique holds no non-adjacent
    # pair, so skipping it leaves the first witness unchanged.
    # A row with fewer than a quarter as many neighbours as pending pairs
    # first keeps only the v with two neighbours in the row, counted by
    # bit-sliced ORs over its members' rows: the others fail the next test.
    # Given a budget, block tables are built at the first row whose earlier
    # rows hold that many pairs, and from there each clique settles its pairs
    # in bulk: C grows at once to K = C ∪ (row ∩ ⋂_{p∈C} N(p)) when that is a
    # clique, and every pending v with no neighbour in row \ K is dropped, as
    # N(u) ∩ N(v) ⊆ K. No budget, no tables: repair changes adj as it goes.
    # With repair, a witness (u, p, v, q) is fixed, not returned: the edge up
    # is deleted and row u goes on with v and p pending again. Pending pairs
    # are taken lowest first and the pairs already passed only lost common
    # neighbours, so the deletions are those of a scan restarted from row 0.
    # The rows below u are clean, so p and q lie above u: a lower one of them
    # would give a witness in its own row. Besides {u, p} only the
    # non-adjacent pairs inside N(u) ∩ N(p) can turn bad; when one has its
    # lower member below u, the least such member is returned as the row to
    # resume at. A kept clique stays a clique and p is in no later common
    # neighbourhood, so the kept cliques stand. Returns None at the end.
    full = verts & (1 << n) - 1
    tables = None
    for u in _bit_indices(full & u_mask & -1 << start):
        row = adj[u] & full
        nonadj = full & ~row & (-1 << (u + 1))
        if budget is not None and tables is None:
            if budget <= 0:
                size, ors, ands = tables = _block_tables(adj, n)
            budget -= nonadj.bit_count()
        if 4 * row.bit_count() < nonadj.bit_count():
            once = twice = 0
            for w in _bit_indices(row):
                twice |= once & adj[w]
                once |= adj[w]
            nonadj &= twice
        cliques: list[int] = []
        while nonadj:
            low = nonadj & -nonadj
            nonadj ^= low
            v = low.bit_length() - 1
            common = row & adj[v]
            if not common & (common - 1):
                continue
            for clique in cliques:
                if not common & ~clique:
                    break
            else:
                if tables is not None:
                    closed = _fold(and_, ands, size, common)
                    if not common & ~closed:
                        clique = row & closed
                        if clique & ~_fold(and_, ands, size, clique):
                            clique = _grown(adj, common, clique ^ common)
                        nonadj &= _fold(or_, ors, size, row & ~clique)
                        continue
                # Members above p are the only candidates for q, so the
                # last member is never tested.
                rest = common
                grow = row
                while True:
                    bit = rest & -rest
                    rest ^= bit
                    p = bit.bit_length() - 1
                    grow &= adj[p]
                    if not rest:
                        cliques.append(_grown(adj, common, grow))
                        break
                    cand = rest & ~adj[p]
                    if not cand:
                        continue
                    if not repair:
                        return FoundC4(u, p, v, (cand & -cand).bit_length() - 1)
                    adj[u] ^= bit
                    adj[p] ^= 1 << u
                    row ^= bit
                    shared = row & adj[p]
                    for x in _bit_indices(shared & (1 << u) - 1):
                        if shared & ~adj[x] & -1 << x + 1:
                            return x
                    nonadj |= low | bit
                    break
    return None


def find_induced_c4(g: Graph) -> Optional[FoundC4]:
    """First induced 4-cycle in deterministic pair-scan order, or None.

    Computed once per graph; graphs from the repair loop come with it.
    """
    return g._witness


def has_induced_c4_naive(g: Graph) -> bool:
    """Independent detector: enumerate all 4-subsets directly.

    A quadruple induces C4 iff it spans exactly 4 edges and the two
    missing pairs are disjoint. Used to cross-check the pair scan.
    """
    for quad in itertools.combinations(range(g.n), 4):
        non_edges = [
            (x, y)
            for x, y in itertools.combinations(quad, 2)
            if not g.has_edge(x, y)
        ]
        if len(non_edges) == 2 and len({*non_edges[0], *non_edges[1]}) == 4:
            return True
    return False


def is_c4_free(g: Graph) -> bool:
    return find_induced_c4(g) is None


def require_c4free(g: Graph) -> None:
    witness = find_induced_c4(g)
    if witness is not None:
        raise GraphInputError(
            f"graph contains an induced 4-cycle on vertices {witness.vertices}"
        )


def complement(g: Graph) -> Graph:
    return _graph_of(_co_rows(g, g.full_mask))


def _co_rows(g: Graph, verts: int) -> list[int]:
    # Rows of the complement of the subgraph that verts induces; 0 off verts.
    return [verts & ~row ^ 1 << v if verts >> v & 1 else 0 for v, row in enumerate(g.adj)]


# ---------------------------------------------------------------------------
# Maximal / exact independent sets and cliques
# ---------------------------------------------------------------------------


def _maximal_extend(g: Graph, seed_mask: int) -> int:
    # Ascending-index greedy completion to a maximal independent set.
    mask = seed_mask
    for v in range(g.n):
        if mask & (1 << v):
            continue
        if not (g.adj[v] & mask):
            mask |= 1 << v
    return mask


def greedy_maximal_independent_set(g: Graph) -> VertexSet:
    """Ascending-index greedy scan; result is independent and maximal."""
    return _to_vertexset(_maximal_extend(g, 0))


def _suffix_bounds(adj: Sequence[int], mask: int, weight: Sequence[int]) -> list[tuple[int, int]]:
    # Greedy colouring of mask in descending vertex order, each class peeled
    # as a bitset. A class opens at its highest vertex, and a clique takes at
    # most one vertex per class, so the heaviest members of the classes
    # opened at or above v bound the weight of any clique in mask whose least
    # vertex is v. Returns (v, bound) in descending v, so list.pop() yields
    # ascending v.
    order = []
    rest = mask
    hi = mask.bit_length()
    bound = 0
    while rest:
        cand = rest
        top = 0
        while cand:
            v = cand.bit_length() - 1
            bit = 1 << v
            rest ^= bit
            cand &= ~adj[v] ^ bit
            if weight[v] > top:
                top = weight[v]
        bound += top
        lo = rest.bit_length()
        seg = mask & ((1 << hi) - (1 << lo))
        while seg:
            v = seg.bit_length() - 1
            order.append((v, bound))
            seg ^= 1 << v
        hi = lo
    return order


def _lex_clique(
    adj: Sequence[int], cand: int, stop: int, weight: Sequence[int], best: int = 0
) -> int:
    # The first clique in cand, in lexicographic preorder, of the largest
    # weight above best, as a mask; the search ends early at a weight of
    # stop or more, and gives 0 when no clique is heavier than best. With
    # unit weights and best 0 that is the lexicographically least clique of
    # size min(omega(cand), stop). Depth first in ascending vertex order with
    # an explicit stack, so the depth is not bounded by Python's recursion
    # limit. A clique is kept only when it beats the best weight so far, so
    # of the cliques of the largest weight the first one reached is kept. A
    # node stops branching once weight + bound <= best; bounds never
    # increase along ascending v, so every later vertex is cut as well.
    if stop <= 0:
        return 0
    best_mask = 0
    stack: list[tuple[int, int, int, list[tuple[int, int]]]] = []
    size, chosen, mask, order = 0, 0, cand, _suffix_bounds(adj, cand, weight)
    while True:
        if order and size + order[-1][1] > best:
            v = order.pop()[0]
            bit = 1 << v
            mask ^= bit
            clique = chosen | bit
            grown = size + weight[v]
            if grown > best:
                best, best_mask = grown, clique
                if best >= stop:
                    return best_mask
            sub = mask & adj[v]
            if sub:
                stack.append((size, chosen, mask, order))
                size, chosen, mask, order = grown, clique, sub, _suffix_bounds(adj, sub, weight)
        elif stack:
            size, chosen, mask, order = stack.pop()
        else:
            return best_mask


def _classes_of(g: Graph, reps: int) -> int:
    # The union of the true-twin classes of the vertices in reps.
    return sum(map(g._twins[1].__getitem__, _bit_indices(reps)))


def _check_limit(g: Graph, limit: int) -> None:
    if g.n > limit:
        raise OracleLimitError(f"oracle limit: n={g.n} exceeds limit {limit}")


def _reversed(mask: int, n: int) -> int:
    # Bit v moved to bit n - 1 - v.
    return int(format(mask, "b").zfill(n)[::-1], 2)


def max_clique_exact(g: Graph, limit: int = ORACLE_LIMIT_DEFAULT) -> VertexSet:
    """Maximum clique by branch and bound; lexicographically least on ties.

    A maximum clique holds whole true-twin classes, and two such cliques
    compare as their sets of class minima do, so the search runs on the
    minima weighted by class size and expands the result to whole classes.
    """
    _check_limit(g, limit)
    reps, classes = g._twins
    mask = _lex_clique(g.adj, reps, g.n, [members.bit_count() for members in classes])
    return _to_vertexset(_classes_of(g, mask))


def max_independent_set_exact(g: Graph, limit: int = ORACLE_LIMIT_DEFAULT) -> VertexSet:
    """Maximum independent set; lexicographically least on ties.

    The clique search of find_independent_set_of_size, in two runs. The
    size comes first, from a run on the reversed labelling, which meets a
    large set early on sparse graphs. The second run keeps only sets of that
    size, so it cuts every branch unable to reach it and ends at the first
    one, the least.
    """
    _check_limit(g, limit)
    reps, ones = g._twins[0], [1] * g.n
    co = _co_rows(g, reps)
    flipped = [_reversed(row, g.n) for row in reversed(co)]
    alpha = _lex_clique(flipped, _reversed(reps, g.n), g.n, ones).bit_count()
    return _to_vertexset(_lex_clique(co, reps, alpha, ones, alpha - 1))


def find_independent_set_of_size(g: Graph, t: int) -> Optional[VertexSet]:
    """Lexicographically least independent set of size exactly t, or None.

    A clique search in the complement on the true-twin class minima: an
    independent set meets a class at most once, and trading its member for
    the class minimum keeps it independent and makes it smaller.
    """
    if t < 1:
        raise GraphInputError(f"size must be at least 1, got {t}")
    reps = g._twins[0]
    mask = _lex_clique(_co_rows(g, reps), reps, t, [1] * g.n)
    return _to_vertexset(mask) if mask.bit_count() == t else None


# ---------------------------------------------------------------------------
# Bipartiteness with a chordless odd cycle witness
# ---------------------------------------------------------------------------


def _bfs(g: Graph, source: int) -> list[int]:
    # BFS tree from source, neighbours in ascending order: parent of every
    # vertex reached (the source is its own parent), -1 elsewhere. Each
    # dequeued vertex adopts its unseen neighbours in one mask, so the loop
    # steps once per vertex, not once per edge.
    parent = [-1] * g.n
    parent[source] = source
    queue = [source]
    seen = 1 << source
    for u in queue:
        fresh = g.adj[u] & ~seen
        seen |= fresh
        for v in _bit_indices(fresh):
            parent[v] = u
            queue.append(v)
    return parent


def _least_odd_walk(adj: tuple[int, ...], s: int, limit: int) -> Optional[tuple[int, int, int]]:
    # Layered bitset BFS from s. In the first layer holding an edge, u is its
    # least vertex with a neighbour in the layer (all of them lie above u)
    # and v is the least such neighbour: the first (u, v) of the plain scan
    # at s. Returns (2*dist+1, u, v), or None when no layer gives a walk
    # shorter than limit.
    seen = layer = 1 << s
    length = 1
    while layer and length < limit:
        reach = 0
        for u in _bit_indices(layer):
            inner = adj[u] & layer
            if inner:
                return length, u, (inner & -inner).bit_length() - 1
            reach |= adj[u]
        layer = reach & ~seen
        seen |= layer
        length += 2
    return None


def _shortest_odd_cycle(g: Graph, verts: int = -1) -> VertexSet:
    # Minimum over sources s and edges (u, v) with dist_s(u) = dist_s(v) of
    # the closed walk length 2*dist+1; the minimum odd closed walk is a
    # simple chordless cycle. First achiever in (s, u, v) scan order wins:
    # a later source replaces it only with a strictly shorter walk. The
    # search ends at length 3.
    # Sources are the vertices of verts, whose rows must stay inside it.
    best: Optional[tuple[int, int, int]] = None
    limit = 2 * g.n
    for s in _bit_indices(verts & g.full_mask):
        found = _least_odd_walk(g.adj, s, limit)
        if found is None:
            continue
        limit, u, v = found
        best = (s, u, v)
        if limit == 3:
            break
    if best is None:
        raise InvariantViolation("odd cycle requested in a bipartite graph")
    s, u, v = best
    parent = _bfs(g, s)
    path_u, path_v = paths = [[u], [v]]
    for path in paths:
        while path[-1] != s:
            path.append(parent[path[-1]])
    # s .. u then v .. (s excluded): cyclic order s -> u -> v -> s.
    cycle = path_u[::-1] + path_v[:-1]
    if len(set(cycle)) != len(cycle):  # pragma: no cover - minimality argument
        raise InvariantViolation("shortest odd closed walk was not simple")
    return _canonical_cycle(cycle)


def _canonical_cycle(cycle: list[int]) -> VertexSet:
    # Rotate so the minimum vertex leads, then orient toward its smaller
    # cycle neighbor.
    start = cycle.index(min(cycle))
    rotated = cycle[start:] + cycle[:start]
    if rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + rotated[1:][::-1]
    return tuple(rotated)


def bipartition(g: Graph) -> Union[tuple[VertexSet, VertexSet], OddCycle]:
    """2-color by BFS per component, or return a chordless odd cycle.

    Each component is layered by a bitset BFS from its lowest-indexed
    vertex, which goes to part one with the other even layers. An edge
    inside a layer closes an odd walk; the witness is then the shortest
    odd cycle, which is always induced.
    """
    result = _bipartition(g, g.full_mask)
    return result if isinstance(result, OddCycle) else tuple(map(_to_vertexset, result))


def _bipartition(g: Graph, verts: int) -> Union[tuple[int, int], OddCycle]:
    # bipartition on the vertices of verts, whose rows must stay inside it,
    # with the parts as masks.
    sides = [0, 0]
    rest = verts
    while rest:
        layer = rest & -rest
        parity = 0
        while layer:
            rest ^= layer
            reach = 0
            for u in _bit_indices(layer):
                if g.adj[u] & layer:
                    return OddCycle(_shortest_odd_cycle(g, verts))
                reach |= g.adj[u]
            sides[parity] |= layer
            layer = reach & rest
            parity ^= 1
    return sides[0], sides[1]
