"""Cliques and structure in graphs with no induced 4-cycle.

Certified clique extraction, structure decomposition for independence
number at most 2, generators for the sharp extremal families, exact
small-graph oracles, and deterministic verification suites.
"""

__version__ = "0.1.0"

from .graph import (
    Graph,
    GraphInputError,
    InvariantViolation,
    OddCycle,
    OracleLimitError,
    bipartition,
    build_graph,
    common_neighbors,
    complement,
    find_independent_set_of_size,
    find_induced_c4,
    greedy_maximal_independent_set,
    has_induced_c4_naive,
    is_c4_free,
    is_clique,
    is_independent_set,
    max_clique_exact,
    max_independent_set_exact,
)
from .generators import (
    clique_substitution,
    cycle_power,
    random_c4free,
    w5_base,
    w5_blowup,
)
from .structure import (
    HypothesisViolation,
    StructureCertificate,
    alpha2_decompose,
    clique_from_certificate,
    find_certificate_violation,
    verify_certificate,
)
from .extraction import (
    best_pair_intersection,
    check_certificate,
    degree_square_census,
    extract_dirac,
    extract_general,
    extract_large_alpha,
    extract_regular,
    extract_triple,
    find_dominating_nonadjacent_pair,
)
from .edgelist import ParseError, parse_graph, serialize_graph
from .suites import Report, SuiteConfig, run_suite

import types as _types

# The imports above are the one list of exports.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
)
