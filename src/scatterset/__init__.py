"""Exact, parameterized, and approximate solvers for d-scattered sets.

A d-scattered set is a collection of vertices whose pairwise shortest-path
distances are all at least d (d = 2 recovers independent sets).  The package
bundles: a counting/maximizing dynamic program over nice tree decompositions,
a vertex-cover-parameterized solver for unit weights, a distance-rounding
approximation scheme, decomposition tooling (heuristic, depth-balancing,
nice form), hardness-instance generators, and brute-force oracles.
"""

from __future__ import annotations

from .decomp import (
    NiceDecomposition,
    NiceNode,
    TreeDecomposition,
    Violation,
    balance,
    decomposition_depth,
    format_td,
    heuristic_decomposition,
    make_nice,
    nice_to_tree,
    parse_td,
    validate_decomposition,
    validate_nice,
)
from .gadgets import (
    CnfFormula,
    GadgetOutput,
    McisInstance,
    gen_fvs_unweighted,
    gen_seth,
    gen_td_eth,
    gen_w1_vc,
    parse_cnf,
    parse_mcis,
)
from .graph_core import (
    ParseError,
    WeightedGraph,
    all_pairs_distances,
    connected_components,
    dijkstra_from,
    distances_within,
    format_dss,
    induced_subgraph,
    is_scattered,
    parse_graph,
    scattered_violation,
    vertex_set,
)
from .oracle import (
    RandomSpec,
    brute_force_count,
    brute_force_max,
    gen_random_graph,
)
from .tw_approx import approx_max_scattered
from .tw_exact import (
    count_scattered,
    dp_over_decomposition,
    max_scattered,
    solve_via_treedepth,
)
from .vc_fpt import compute_vertex_cover, max_scattered_vc

__version__ = "0.1.0"

__all__ = [
    "CnfFormula",
    "GadgetOutput",
    "McisInstance",
    "NiceDecomposition",
    "NiceNode",
    "ParseError",
    "RandomSpec",
    "TreeDecomposition",
    "Violation",
    "WeightedGraph",
    "all_pairs_distances",
    "approx_max_scattered",
    "balance",
    "brute_force_count",
    "brute_force_max",
    "compute_vertex_cover",
    "connected_components",
    "count_scattered",
    "decomposition_depth",
    "dijkstra_from",
    "distances_within",
    "dp_over_decomposition",
    "format_dss",
    "format_td",
    "gen_fvs_unweighted",
    "gen_random_graph",
    "gen_seth",
    "gen_td_eth",
    "gen_w1_vc",
    "heuristic_decomposition",
    "induced_subgraph",
    "is_scattered",
    "make_nice",
    "max_scattered",
    "max_scattered_vc",
    "nice_to_tree",
    "parse_cnf",
    "parse_graph",
    "parse_mcis",
    "parse_td",
    "scattered_violation",
    "solve_via_treedepth",
    "validate_decomposition",
    "validate_nice",
    "vertex_set",
    "__version__",
]
