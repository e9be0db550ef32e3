"""Certified clique extractors for graphs with no induced 4-cycle.

Each extractor returns a CliqueCertificate: the clique itself, the
method that produced it, the exact rational lower bound the method
guarantees on this instance, and a witness with enough data to re-check
the run. Bounds are computed in exact rational arithmetic throughout;
floating point never touches a comparison.

The four methods and their guarantees, writing n for the vertex count
and d for the minimum degree:

* regular:     2k-regular on 4k+1 vertices gives a clique of size k+1;
* general:     any C4-free graph gives a clique of size d^2/(2n+d);
* triple:      when d <= 11n/15, a clique larger than d - n/3;
* large-alpha: an independent set of size t >= (n^2-d^2)/(eps*d^2)+1
               gives a clique of size (1-eps)*d^2/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Iterator, Optional, Sequence

from .graph import (
    ORACLE_LIMIT_DEFAULT,
    Graph,
    GraphInputError,
    InvariantViolation,
    VertexSet,
    _above,
    _bit_indices,
    _mask_of,
    _maximal_extend,
    _to_vertexset,
    common_neighbors,
    find_independent_set_of_size,
    is_clique,
    is_independent_set,
    max_independent_set_exact,
    require_c4free,
)
from .structure import HypothesisViolation, _best_clique, alpha2_decompose

METHOD_REGULAR = "regular"
METHOD_GENERAL = "general"
METHOD_TRIPLE = "triple"
METHOD_LARGE_ALPHA = "large-alpha"
METHOD_STRUCTURE = "structure"

# Methods whose guarantee is a strict inequality on the clique size.
STRICT_METHODS = frozenset({METHOD_TRIPLE})


@dataclass(frozen=True)
class CliqueCertificate:
    clique: VertexSet
    method: str
    guaranteed_bound: Fraction
    precondition_met: bool
    witness: dict

    @property
    def size(self) -> int:
        return len(self.clique)

    def to_json_dict(self, g: Graph) -> dict:
        return {
            "format_version": 1,
            "kind": "clique-certificate",
            "graph": {"n": g.n, "edge_count": g.edge_count},
            "method": self.method,
            "clique": list(self.clique),
            "size": self.size,
            "guaranteed_bound": str(self.guaranteed_bound),
            "precondition_met": self.precondition_met,
            # Kept for format_version 1 readers: a certificate that fails
            # its checks is never built, the extractor raises instead.
            "verified": True,
            "witness": self.witness,
        }


def check_certificate(g: Graph, cert: CliqueCertificate) -> bool:
    """Re-check a certificate against the graph without trusting its producer."""
    if any(not (0 <= v < g.n) for v in cert.clique):
        return False
    if not is_clique(g, cert.clique):
        return False
    if cert.precondition_met:
        size = Fraction(cert.size)
        if cert.method in STRICT_METHODS:
            return size > cert.guaranteed_bound
        return size >= cert.guaranteed_bound
    return True


def _certified(
    g: Graph,
    clique: VertexSet,
    method: str,
    bound: Fraction,
    precondition_met: bool,
    witness: dict,
) -> CliqueCertificate:
    # The one exit of every extractor: a certificate that fails its own
    # re-check is never handed out.
    cert = CliqueCertificate(clique, method, bound, precondition_met, witness)
    if not check_certificate(g, cert):
        raise InvariantViolation(
            f"guarantee violated: {method} set {clique} fails its certificate "
            f"(bound {bound}, precondition met: {precondition_met})"
        )
    return cert


def _min_degree(g: Graph) -> int:
    require_c4free(g)
    if g.n == 0:
        raise GraphInputError("cannot extract a clique from the empty graph")
    return g.min_degree()


def _structure_route(
    g: Graph, bound: Fraction, precondition_met: bool, witness: dict, reason: str
) -> CliqueCertificate:
    # The alpha <= 2 fallback: the decomposition's clique has at least
    # ceil(2n/5) vertices.
    try:
        struct_cert = alpha2_decompose(g)
    except HypothesisViolation as exc:
        raise InvariantViolation(f"guarantee violated: {reason} ({exc})") from exc
    clique = _best_clique(struct_cert)
    two_fifths = -((-2 * g.n) // 5)
    if len(clique) < two_fifths:
        raise InvariantViolation(
            f"structure route clique of size {len(clique)} misses ceil(2n/5) = {two_fifths}"
        )
    witness = {"route": "structure", "structure_kind": struct_cert.kind, **witness}
    return _certified(g, clique, METHOD_STRUCTURE, bound, precondition_met, witness)


def _independent(g: Graph, members: Iterable[int]) -> list[int]:
    s = sorted(set(members))
    if not is_independent_set(g, s):
        raise GraphInputError(f"set {tuple(s)} is not independent")
    return s


def _pair_meets(g: Graph, s: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    # (x, y, N(x) ∩ N(y)) for the pairs of s in lexicographic order, made one
    # at a time: a user's independent set may hold thousands of vertices.
    return ((x, y, g.adj[x] & g.adj[y]) for x, y in combinations(s, 2))


def _regular_k(g: Graph) -> int:
    # The regular method's input: 2k-regular on n = 4k+1 vertices, k >= 1.
    n = g.n
    if n < 5 or n % 4 != 1:
        raise GraphInputError(f"vertex count must be 4k+1 with k >= 1, got n={n}")
    k = (n - 1) // 4
    if any(deg != 2 * k for deg in g.degrees()):
        raise GraphInputError(f"graph is not {2 * k}-regular")
    return k


def find_dominating_nonadjacent_pair(g: Graph) -> Optional[tuple[int, int]]:
    """First non-adjacent pair (u, w), lexicographic, whose closed neighborhoods cover V."""
    full = g.full_mask
    for u in range(g.n):
        candidates = ~g.adj[u] & _above(u) & full
        for v in _bit_indices(candidates):
            covered = g.adj[u] | g.adj[v] | (1 << u) | (1 << v)
            if covered == full:
                return (u, v)
    return None


def best_pair_intersection(
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
    meets = _pair_meets(g, _independent(g, s))
    xi, xj, mask = max(meets, key=lambda meet: meet[2].bit_count())  # first of the largest
    clique = _to_vertexset(mask)
    if not is_clique(g, clique):
        raise GraphInputError(
            f"common neighborhood of {xi} and {xj} is not a clique; "
            "the graph has an induced 4-cycle"
        )
    return (xi, xj, clique)


# ---------------------------------------------------------------------------
# Regular extractor
# ---------------------------------------------------------------------------


def extract_regular(g: Graph) -> CliqueCertificate:
    """Clique of size k+1 in a 2k-regular C4-free graph on 4k+1 vertices.

    A dominating non-adjacent pair (u, w) is searched first. When one
    exists, the degree count d(u)+d(w)-|X| = n-2 forces the common
    neighborhood X to be a single vertex x, the sets U1 = N(x) inside
    N(u) and W1 = N(x) inside N(w) span cliques, and the two cliques
    U1+{u,x} and W1+{w,x} meet only in x while covering 2k+1 vertices,
    so the larger has at least k+1. When no pair exists the graph must
    have independence number at most 2 and the structure decomposition
    yields a clique of size at least (8k+2)/5 >= k+1.
    """
    k = _regular_k(g)
    n = g.n
    require_c4free(g)
    bound = Fraction(k + 1)

    pair = find_dominating_nonadjacent_pair(g)
    if pair is None:
        return _structure_route(
            g, bound, True, {"k": k},
            "no dominating non-adjacent pair although the graph has an independent triple",
        )

    u, w = pair
    x_set = common_neighbors(g, u, w)
    count = g.degree(u) + g.degree(w) - len(x_set)
    if count != n - 2 or len(x_set) != 1:
        raise InvariantViolation(
            f"guarantee violated: d(u)+d(w)-|X| = {count}, expected {n - 2}; "
            f"|X| = {len(x_set)}, expected 1"
        )
    x = x_set[0]
    u_side = g.adj[u] & ~(1 << x)
    w_side = g.adj[w] & ~(1 << x)
    u1 = g.adj[x] & u_side
    w1 = g.adj[x] & w_side
    u2 = u_side & ~u1
    w2 = w_side & ~w1
    for name, mask in (("U1", u1), ("W1", w1)):
        if not is_clique(g, _to_vertexset(mask)):
            raise InvariantViolation(f"guarantee violated: {name} does not span a clique")

    clique_u = u1 | (1 << u) | (1 << x)
    clique_w = w1 | (1 << w) | (1 << x)
    covered = g.full_mask & ~(u2 | w2)
    if covered.bit_count() != 2 * k + 1:
        raise InvariantViolation(
            f"guarantee violated: |V - (U2+W2)| = {covered.bit_count()}, "
            f"expected {2 * k + 1}"
        )
    if clique_u | clique_w != covered or clique_u & clique_w != 1 << x:
        raise InvariantViolation(
            "guarantee violated: cover cliques do not partition around x"
        )
    best = clique_u if clique_u.bit_count() >= clique_w.bit_count() else clique_w
    witness = {
        "route": "dominating-pair",
        "u": u,
        "w": w,
        "x": x,
        "U1": list(_to_vertexset(u1)),
        "W1": list(_to_vertexset(w1)),
        "U2": list(_to_vertexset(u2)),
        "W2": list(_to_vertexset(w2)),
        "cover_size": covered.bit_count(),
        "k": k,
    }
    return _certified(g, _to_vertexset(best), METHOD_REGULAR, bound, True, witness)


# ---------------------------------------------------------------------------
# General minimum-degree extractor
# ---------------------------------------------------------------------------


def _single_s_neighbor_sets(g: Graph, s_mask: int) -> dict[int, int]:
    # For each x in S, the mask of vertices outside S whose unique
    # S-neighbor is x.
    buckets = {x: 0 for x in _bit_indices(s_mask)}
    for y in range(g.n):
        if s_mask & (1 << y):
            continue
        hits = g.adj[y] & s_mask
        if hits.bit_count() == 1:
            buckets[hits.bit_length() - 1] |= 1 << y
    return buckets


def extract_general(
    g: Graph,
    *,
    exact_alpha: bool = False,
    oracle_limit: int = ORACLE_LIMIT_DEFAULT,
) -> CliqueCertificate:
    """Clique of size at least d^2/(2n+d) in any C4-free graph.

    Grows a maximal independent set S by ascending-index greedy scan.
    If S reaches t = ceil(2n/d) vertices, the counting bound
    t*d <= sum |A_i| < n + sum |A_i ∩ A_j| makes the best pairwise
    common neighborhood larger than (t*d-n)/C(t,2) >= d^2/(2n+d).
    Otherwise the C(s,2) pairwise intersections plus the s sets
    {x_i} + B_i (B_i = vertices whose unique S-neighbor is x_i) cover
    the graph; when every B_i + {x_i} spans a clique the largest
    covering set has at least n/C(s+1,2) >= d^2/(2n+d) vertices. If
    some B_i contains a non-adjacent pair y, z, then S - {x_i} + {y, z}
    is a larger independent set; S is replaced by its maximal extension
    and the scan repeats, so the loop ends after at most n rounds.

    With exact_alpha=True the scan starts from a maximum independent
    set instead (exponential-time oracle, so only for graphs within
    oracle_limit); a maximum set can never own a non-clique bucket, so
    the augmentation step becomes an invariant check.
    """
    delta = _min_degree(g)
    n = g.n
    if delta == 0:
        witness = {"route": "isolated-vertex", "min_degree": 0}
        return _certified(g, (0,), METHOD_GENERAL, Fraction(0), True, witness)

    bound = Fraction(delta * delta, 2 * n + delta)
    t = -((-2 * n) // delta)  # ceil(2n/delta)
    if exact_alpha:
        s_mask = _mask_of(max_independent_set_exact(g, limit=oracle_limit))
    else:
        s_mask = _maximal_extend(g, 0)
    augmentations = 0
    alpha_mode = "exact" if exact_alpha else "greedy"

    while True:
        s_list = list(_bit_indices(s_mask))
        if len(s_list) >= t:
            head = s_list[:t]
            xi, xj, clique = best_pair_intersection(g, head)
            witness = {"route": "pair-scan", "independent_set": head, "pair": [xi, xj]}
            break

        buckets = _single_s_neighbor_sets(g, s_mask)
        bad = _first_nonadjacent_in_buckets(g, buckets)
        if bad is not None:
            if exact_alpha:
                raise InvariantViolation(
                    f"maximum independent set has a non-clique bucket at {bad}"
                )
            x, y, z = bad
            seed = (s_mask & ~(1 << x)) | (1 << y) | (1 << z)
            new_mask = _maximal_extend(g, seed)
            assert new_mask.bit_count() > s_mask.bit_count()
            s_mask = new_mask
            augmentations += 1
            continue

        cover_sets = [mask for _, _, mask in _pair_meets(g, s_list)]
        cover_sets += [buckets[x] | (1 << x) for x in s_list]
        if reduce(or_, cover_sets) != g.full_mask:
            raise InvariantViolation("covering sets missed a vertex")
        clique = _to_vertexset(max(cover_sets, key=int.bit_count))
        witness = {"route": "covering", "independent_set": s_list, "cover_sets": len(cover_sets)}
        break

    witness.update(t=t, min_degree=delta, augmentations=augmentations, alpha_mode=alpha_mode)
    return _certified(g, clique, METHOD_GENERAL, bound, True, witness)


def _first_nonadjacent_in_buckets(
    g: Graph, buckets: dict[int, int]
) -> Optional[tuple[int, int, int]]:
    for x in sorted(buckets):
        for y in _bit_indices(buckets[x]):
            missing = buckets[x] & ~g.adj[y] & _above(y)
            if missing:
                z = (missing & -missing).bit_length() - 1
                return (x, y, z)
    return None


# ---------------------------------------------------------------------------
# Independent-triple extractor
# ---------------------------------------------------------------------------


def extract_triple(g: Graph) -> CliqueCertificate:
    """Clique strictly larger than d - n/3 via an independent triple.

    With an independent triple, 3d <= sum |A_i| < n + sum pairwise
    intersections forces one common neighborhood above d - n/3. Without
    one the independence number is at most 2 and the structure route
    yields a clique of size at least ceil(2n/5), which dominates
    d - n/3 whenever d <= 11n/15 (the precondition this method reports).
    """
    delta = _min_degree(g)
    n = g.n
    bound = Fraction(delta) - Fraction(n, 3)
    precondition_met = Fraction(delta) <= Fraction(11 * n, 15)

    triple = find_independent_set_of_size(g, 3)
    if triple is None:
        witness = {"two_fifths": -((-2 * n) // 5), "min_degree": delta}
        return _structure_route(
            g, bound, precondition_met, witness, "no independent triple yet no structure"
        )
    xi, xj, clique = best_pair_intersection(g, triple)
    # Holds whether or not the precondition does, so it is checked here.
    if not Fraction(len(clique)) > bound:
        raise InvariantViolation(
            f"triple route clique of size {len(clique)} is not above {bound}"
        )
    witness = {
        "route": "triple",
        "independent_set": list(triple),
        "pair": [xi, xj],
        "min_degree": delta,
    }
    return _certified(g, clique, METHOD_TRIPLE, bound, precondition_met, witness)


# ---------------------------------------------------------------------------
# Large-independent-set extractor
# ---------------------------------------------------------------------------


def extract_large_alpha(
    g: Graph, members: Sequence[int], eps: Fraction
) -> CliqueCertificate:
    """Clique of size at least (1-eps)*d^2/n from a large independent set.

    The hypothesis t >= (n^2-d^2)/(eps*d^2)+1 is evaluated exactly and
    reported as precondition_met rather than enforced; the pair scan
    runs regardless and the conditional guarantee is asserted only when
    the hypothesis holds. The statement mixes the symbols d and the
    minimum degree; both are reported in the witness with d read as the
    minimum degree.
    """
    eps = Fraction(eps)
    if not (0 < eps < 1):
        raise GraphInputError(f"epsilon must be strictly between 0 and 1, got {eps}")
    delta = _min_degree(g)
    n = g.n
    s = _independent(g, members)

    t = len(s)
    bound = (1 - eps) * Fraction(delta * delta, n)
    if delta > 0:
        threshold = Fraction(n * n - delta * delta) / (eps * delta * delta) + 1
        precondition_met = Fraction(t) >= threshold
        threshold_str = str(threshold)
    else:
        precondition_met = False
        threshold_str = "undefined (min degree 0)"

    clique: VertexSet = ()
    pair = None
    if t >= 2:
        xi, xj, clique = best_pair_intersection(g, s)
        pair = [xi, xj]
    # Without the hypothesis an empty common neighbourhood falls back to one
    # vertex; with it, an empty one fails the certificate.
    route = "pair-scan"
    if not (clique or precondition_met):
        route, clique = "single-vertex", (0,)
    witness = {
        "independent_set": list(s),
        "t": t,
        "epsilon": str(eps),
        "min_degree_delta": delta,
        "d": delta,
        "d_interpretation": "d read as the minimum degree",
        "threshold": threshold_str,
        "route": route,
        "pair": pair,
        "bound_satisfied": bool(Fraction(len(clique)) >= bound),
    }
    return _certified(g, clique, METHOD_LARGE_ALPHA, bound, precondition_met, witness)


def extract_dirac(
    g: Graph, members: Sequence[int], eps: Fraction
) -> CliqueCertificate:
    """Preset of the large-independent-set extractor for min degree >= n/2.

    Under that degree condition the hypothesis simplifies: an
    independent set of size t >= 3/eps + 1 already guarantees a clique
    of size (1-eps)*n/4, because (n^2-d^2)/(eps*d^2) <= 3/eps when
    d >= n/2 and (1-eps)*d^2/n >= (1-eps)*n/4. The certificate carries
    the simplified threshold and bound; precondition_met reflects both
    the degree condition and the simplified set-size condition.
    """
    eps = Fraction(eps)
    inner = extract_large_alpha(g, members, eps)
    n = g.n
    delta = g.min_degree()
    degree_ok = Fraction(delta) >= Fraction(n, 2)
    threshold = 3 / eps + 1
    t = inner.witness["t"]
    pm = degree_ok and Fraction(t) >= threshold
    bound = (1 - eps) * Fraction(n, 4)
    witness = {
        **inner.witness,
        "preset": "dirac",
        "dirac_threshold": str(threshold),
        "degree_at_least_half": degree_ok,
        "general_bound": str(inner.guaranteed_bound),
        "general_precondition_met": inner.precondition_met,
    }
    return _certified(g, inner.clique, METHOD_LARGE_ALPHA, bound, pm, witness)


def degree_square_census(g: Graph, members: Iterable[int]) -> dict:
    """Exact tallies for the incidence between an independent set and V.

    Writing deg(v) for the number of set members adjacent to v, returns
    sum deg(v)^2, sum |A_i|, and the ordered pairwise intersection total
    sum_{i != j} |A_i ∩ A_j|; the first always equals the sum of the
    other two. Also returns the Cauchy-Schwarz floor t^2*d^2/n, which
    never exceeds the square sum when the set is independent.
    """
    s = _independent(g, members)
    s_mask = _mask_of(s)
    sum_deg_sq = sum((row & s_mask).bit_count() ** 2 for row in g.adj)
    sum_sizes = sum(g.adj[x].bit_count() for x in s)
    sum_pairwise = 2 * sum(mask.bit_count() for _, _, mask in _pair_meets(g, s))
    delta = g.min_degree()
    t = len(s)
    cs_floor = Fraction(t * t * delta * delta, g.n) if g.n else Fraction(0)
    return {
        "sum_deg_sq": sum_deg_sq,
        "sum_sizes": sum_sizes,
        "sum_pairwise": sum_pairwise,
        "cs_floor": cs_floor,
    }
