"""Largest achievable minimum distance of locally recoverable codes.

For code parameters (n, k, r) the best minimum distance is either the
locality-aware Singleton bound d* = n - k - ceil(k/r) + 2 or d* - 1.
This package decides which, exhibits a witness multigraph when the bound
is attained, and turns the witness into an explicitly verified optimal
parity-check matrix over a prime field.
"""

from .codec import (
    LinearCode,
    PrimeField,
    build_parity_check,
    code_from_json,
    code_to_json,
    construct_optimal_lrc,
    default_field,
    encode,
    min_distance,
    repair_symbol,
    verify_locality,
)
from .constructions import (
    DegreeSequence,
    almost_regular,
    balanced_forest,
    cycle_graph,
    is_graphic,
    realize,
    saturated_pair_graph,
    turan_graph,
)
from .decider import Decision, decide
from .extremal import (
    ExtremalResult,
    free_multigraph,
    max_size_girth,
    max_size_multigraph,
    max_size_simple,
    t_bound,
)
from .multigraph import (
    ForbiddenFamily,
    Multigraph,
    density_profile,
    is_family_free,
    k_density,
    multigraph_from_json,
    multigraph_to_json,
)
from .params import CodeParams, derive_params
from .tanner import (
    FullTannerGraph,
    PrunedGraph,
    f2p,
    graph_to_pruned,
    neighborhood_size,
    p2f,
    reduce_check_nodes,
    refine,
    tanner_from_json,
    tanner_min_distance,
    tanner_to_json,
)

__all__ = [
    "CodeParams",
    "Decision",
    "DegreeSequence",
    "ExtremalResult",
    "ForbiddenFamily",
    "FullTannerGraph",
    "LinearCode",
    "Multigraph",
    "PrimeField",
    "PrunedGraph",
    "almost_regular",
    "balanced_forest",
    "build_parity_check",
    "code_from_json",
    "code_to_json",
    "construct_optimal_lrc",
    "cycle_graph",
    "decide",
    "default_field",
    "density_profile",
    "derive_params",
    "encode",
    "f2p",
    "free_multigraph",
    "graph_to_pruned",
    "is_family_free",
    "is_graphic",
    "k_density",
    "max_size_girth",
    "max_size_multigraph",
    "max_size_simple",
    "min_distance",
    "multigraph_from_json",
    "multigraph_to_json",
    "neighborhood_size",
    "p2f",
    "realize",
    "reduce_check_nodes",
    "refine",
    "repair_symbol",
    "saturated_pair_graph",
    "t_bound",
    "tanner_from_json",
    "tanner_min_distance",
    "tanner_to_json",
    "turan_graph",
    "verify_locality",
]
