"""Largest achievable minimum distance of locally recoverable codes.

For code parameters (n, k, r) the best minimum distance is either the
locality-aware Singleton bound d* = n - k - ceil(k/r) + 2 or d* - 1.
This package decides which, exhibits a witness multigraph when the bound
is attained, and turns the witness into an explicitly verified optimal
parity-check matrix over a prime field.

Only the entry points and the types they take or return are exported
here; everything else lives in its module, e.g.
``from lrcdist.multigraph import is_family_free``.
"""

from .codec import (
    LinearCode,
    PrimeField,
    code_from_json,
    code_to_json,
    construct_optimal_lrc,
    encode,
    min_distance,
    repair_symbol,
    verify_locality,
)
from .decider import Decision, decide
from .extremal import ExtremalResult, max_size_girth, max_size_multigraph, max_size_simple
from .multigraph import ForbiddenFamily, Multigraph, multigraph_from_json, multigraph_to_json
from .params import CodeParams, derive_params
from .tanner import FullTannerGraph, PrunedGraph, f2p, graph_to_pruned, p2f, refine, tanner_min_distance

__all__ = [
    "CodeParams",
    "Decision",
    "ExtremalResult",
    "ForbiddenFamily",
    "FullTannerGraph",
    "LinearCode",
    "Multigraph",
    "PrimeField",
    "PrunedGraph",
    "code_from_json",
    "code_to_json",
    "construct_optimal_lrc",
    "decide",
    "derive_params",
    "encode",
    "f2p",
    "graph_to_pruned",
    "max_size_girth",
    "max_size_multigraph",
    "max_size_simple",
    "min_distance",
    "multigraph_from_json",
    "multigraph_to_json",
    "p2f",
    "refine",
    "repair_symbol",
    "tanner_min_distance",
    "verify_locality",
]
