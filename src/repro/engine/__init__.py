"""Spark DataFrame graph execution engine — the substitute for Neo4j in
the paper's architecture (storage of raw graphs + materialized views,
and execution of graph pattern matching queries).
"""
from .property_graph import (
    EDGE_SCHEMA,
    VERTEX_SCHEMA,
    PropertyGraph,
    graph_from_pandas,
    micro_graph,
)
from .pattern_exec import execute_pattern, with_vertex_props
from .hybrid import run_hybrid
from .traversal import (
    khop_pairs,
    khop_pairs_with_max,
    khop_walk_count,
    restrict_endpoints,
)

__all__ = [
    "PropertyGraph",
    "graph_from_pandas",
    "micro_graph",
    "VERTEX_SCHEMA",
    "EDGE_SCHEMA",
    "execute_pattern",
    "with_vertex_props",
    "run_hybrid",
    "khop_pairs",
    "khop_walk_count",
    "khop_pairs_with_max",
    "restrict_endpoints",
]
