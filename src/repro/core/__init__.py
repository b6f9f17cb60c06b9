"""Kaskade's primary contribution: constraint-based view enumeration,
graph-view cost model, view selection, and view-based query rewriting.
"""
from .schema import (
    DBLP_CORE,
    DBLP_FULL,
    HOMOGENEOUS,
    PROVENANCE_CORE,
    PROVENANCE_FULL,
    GraphSchema,
    SchemaEdge,
)
from .pattern import (
    BLAST_RADIUS_MATCH,
    PatternParseError,
    PatternVertex,
    QueryPattern,
    VarLengthPath,
    parse_match,
)
from .facts import query_facts, schema_facts
from .enumerator import (
    ConnectorCandidate,
    SourceToSinkCandidate,
    SummarizerCandidate,
    ViewEnumerator,
    path_vertex_types,
    unconstrained_schema_walk_count,
)

__all__ = [
    "GraphSchema",
    "SchemaEdge",
    "PROVENANCE_CORE",
    "PROVENANCE_FULL",
    "DBLP_CORE",
    "DBLP_FULL",
    "HOMOGENEOUS",
    "QueryPattern",
    "PatternVertex",
    "VarLengthPath",
    "parse_match",
    "PatternParseError",
    "BLAST_RADIUS_MATCH",
    "query_facts",
    "schema_facts",
    "ViewEnumerator",
    "ConnectorCandidate",
    "SourceToSinkCandidate",
    "SummarizerCandidate",
    "path_vertex_types",
    "unconstrained_schema_walk_count",
]
