"""Weighted edge-degree-constrained subgraphs for maximum-weight b-matching,
with offline builders, exact/greedy solvers, and a random-order streaming
algorithm."""

from .edcs import (
    BuildTrace,
    EdcsParams,
    LocalSearchError,
    ViolationReport,
    build_wb_edcs,
    parameters_for,
    potential,
    validate,
)
from .generators import (
    GenSpec,
    MulticopyInstance,
    TightInstance,
    multicopy_instance,
    random_instance,
    tight_instance,
)
from .graph import (
    Capacities,
    MultiGraph,
    Subgraph,
    relevant_subgraph,
)
from .graph_io import GraphFormatError, format_graph, parse_graph, read_graph, write_graph
from .matching import (
    BMatching,
    OracleBudgetExceeded,
    bipartition_sides,
    branch_and_bound_b_matching,
    max_weight_b_matching_exact,
    max_weight_b_matching_greedy,
)
from .streaming import (
    EdgeStream,
    StreamInvariantError,
    StreamRunResult,
    StreamRunStats,
    file_order_stream,
    make_stream,
    run_single_pass,
    run_with_fallbacks,
)

__version__ = "0.1.0"

__all__ = [
    "BMatching",
    "BuildTrace",
    "Capacities",
    "EdcsParams",
    "EdgeStream",
    "GenSpec",
    "GraphFormatError",
    "LocalSearchError",
    "MultiGraph",
    "MulticopyInstance",
    "OracleBudgetExceeded",
    "StreamInvariantError",
    "StreamRunResult",
    "StreamRunStats",
    "Subgraph",
    "TightInstance",
    "ViolationReport",
    "bipartition_sides",
    "branch_and_bound_b_matching",
    "build_wb_edcs",
    "file_order_stream",
    "format_graph",
    "make_stream",
    "max_weight_b_matching_exact",
    "max_weight_b_matching_greedy",
    "multicopy_instance",
    "parameters_for",
    "parse_graph",
    "potential",
    "random_instance",
    "read_graph",
    "relevant_subgraph",
    "run_single_pass",
    "run_with_fallbacks",
    "tight_instance",
    "validate",
    "write_graph",
]
