"""Constraint miner: extract *explicit* constraints (§ IV-A1).

Turns a :class:`~repro.core.pattern.QueryPattern` and a
:class:`~repro.core.schema.GraphSchema` into the Prolog facts of the
paper (§ IV-A1)::

    queryVertex/1  queryVertexType/2  queryEdge/2  queryEdgeType/3
    queryVariableLengthPath/4  queryReturned/1
    schemaVertex/1  schemaEdge/3

``queryReturned/1`` (which vertices the MATCH projects) is our addition;
the paper's § IV-B restricts connector candidates to "the only vertices
projected out of the MATCH clause", and the fact makes that restriction
available to templates instead of hard-coding it in the enumerator.
"""
from __future__ import annotations

from ..prolog import Struct, s
from .pattern import QueryPattern
from .schema import GraphSchema


def query_facts(pattern: QueryPattern) -> list[Struct]:
    """Explicit facts mined from the query's MATCH clause (§ IV-A1). A
    ``1..1`` path is the fixed edge ``-[:T]->`` and gives ``queryEdge``
    (plus ``queryEdgeType`` when typed); any other path gives
    ``queryVariableLengthPath``."""
    facts: list[Struct] = []
    for v in pattern.vertices:
        facts.append(s("queryVertex", v.name))
        if v.vtype is not None:
            facts.append(s("queryVertexType", v.name, v.vtype))
    for p in pattern.paths:
        if (p.lower, p.upper) == (1, 1):  # a fixed edge
            facts.append(s("queryEdge", p.src, p.dst))
            if p.etype is not None:
                facts.append(s("queryEdgeType", p.src, p.dst, p.etype))
        else:
            facts.append(s("queryVariableLengthPath", p.src, p.dst, p.lower, p.upper))
    for var, _alias in pattern.returns:
        facts.append(s("queryReturned", var))
    return facts


def schema_facts(schema: GraphSchema) -> list[Struct]:
    """Explicit facts mined from the graph schema (§ IV-A1)."""
    facts: list[Struct] = [s("schemaVertex", t) for t in schema.vertex_types]
    facts += [s("schemaEdge", e.src_type, e.dst_type, e.etype) for e in schema.edges]
    return facts
