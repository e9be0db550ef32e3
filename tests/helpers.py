"""Shared builders and brute-force oracles for the test suite.

The oracles here deliberately avoid the library's search code: cliques
and independent sets are found by enumerating subsets, so they stay an
independent cross-check for the branch-and-bound oracle.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

from hypothesis import strategies as st

from c4free import Graph, build_graph, random_c4free
from c4free.graph import FoundC4, _above, _bit_indices


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
def c4free_graphs(draw, max_n: int = 20):
    """Seeded C4-free instances; shrinking works on the seed triple."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    num = draw(st.integers(min_value=0, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**64 - 1))
    from fractions import Fraction

    return random_c4free(n, Fraction(num, 10), seed)
