"""Kaskade's hybrid query language (§ III-B): a Cypher MATCH fragment
for path traversal + SQL for filters and aggregates.

``run_hybrid`` matches the pattern, flattens the returned vertices'
properties into columns (``A``, ``A_cpu``, ``A_pname``, …), registers
the result as the ``match_result`` temp view, and runs the SQL over it
with Spark SQL (Catalyst handles the relational half, exactly the
layering the paper describes).
"""
from __future__ import annotations

from pyspark.sql import DataFrame, SparkSession

from ..core.pattern import QueryPattern, parse_match
from .pattern_exec import execute_pattern, with_vertex_props
from .property_graph import PropertyGraph


def run_hybrid(
    spark: SparkSession,
    graph: PropertyGraph,
    match: str | QueryPattern,
    sql: str,
) -> DataFrame:
    """Execute a hybrid query: graph pattern → ``match_result`` → SQL."""
    pattern = parse_match(match) if isinstance(match, str) else match
    result = execute_pattern(graph, pattern)
    aliases = [alias for _, alias in (pattern.returns or ())] or list(result.columns)
    flat = with_vertex_props(result, graph, aliases)
    flat.createOrReplaceTempView("match_result")
    return spark.sql(sql)
