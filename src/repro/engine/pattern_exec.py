"""Executes a :class:`~repro.core.pattern.QueryPattern` against a
:class:`~repro.engine.property_graph.PropertyGraph`.

This is the graph-pattern-matching half of Kaskade's execution engine
(Neo4j in the paper). Matching proceeds by building a *binding table*
— one column per pattern vertex, one row per match — joined element by
element. Every element, a fixed edge included (the ``1..1`` path), is
matched by the path-expansion kernel with reachability semantics
(distinct endpoint pairs; see ``repro.engine.traversal``).
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.pattern import QueryPattern, VarLengthPath
from .property_graph import PropertyGraph
from .traversal import var_length_pairs


def _element_pairs(
    graph: PropertyGraph, pattern: QueryPattern, el: VarLengthPath
) -> DataFrame:
    """The (src, dst) pair table matched by one pattern element (a fixed
    edge is the ``1..1`` path). Its endpoint types go into the
    expansion: the source type filters the first hop and the destination
    type the pairs it emits."""
    st, dt = pattern.vtype(el.src), pattern.vtype(el.dst)
    return var_length_pairs(
        graph.typed_edges(el.etype),
        el.lower,
        el.upper,
        zero_vertices=graph.vertices,
        sources=None if st is None else graph.typed_vertices(st),
        targets=None if dt is None else graph.typed_vertices(dt),
    )


def _order_elements(pattern: QueryPattern) -> list[VarLengthPath]:
    """Join order: follow the chain from already-bound vertices so every
    join after the first is keyed (no cross joins on connected patterns)."""
    remaining = list(pattern.paths)
    ordered: list[VarLengthPath] = []
    bound: set[str] = set()
    while remaining:
        nxt = next(
            (e for e in remaining if e.src in bound or e.dst in bound),
            remaining[0],
        )
        remaining.remove(nxt)
        ordered.append(nxt)
        bound |= {nxt.src, nxt.dst}
    return ordered


def execute_pattern(graph: PropertyGraph, pattern: QueryPattern) -> DataFrame:
    """Match ``pattern`` against ``graph``; returns one column per
    *returned* alias (vertex ids), distinct rows. If the pattern has no
    RETURN clause, all pattern vertices are returned under their names."""
    bindings: DataFrame | None = None
    bound: set[str] = set()
    for el in _order_elements(pattern):
        pairs = _element_pairs(graph, pattern, el).select(
            F.col("src").alias(el.src), F.col("dst").alias(el.dst)
        )
        if bindings is None:
            bindings = pairs
        else:
            on = [v for v in (el.src, el.dst) if v in bound]
            if on:
                bindings = bindings.join(pairs, on=on)
            else:
                bindings = bindings.crossJoin(pairs)
        bound |= {el.src, el.dst}
    if bindings is None:
        # Vertex-only pattern: bind each declared vertex independently.
        for v in pattern.vertices:
            col = graph.typed_vertices(v.vtype).select(F.col("id").alias(v.name))
            bindings = col if bindings is None else bindings.crossJoin(col)
        bound = {v.name for v in pattern.vertices}
    unbound = {v.name for v in pattern.vertices} - bound
    for name in sorted(unbound):
        col = graph.typed_vertices(pattern.vtype(name)).select(
            F.col("id").alias(name)
        )
        bindings = bindings.crossJoin(col)
    returns = pattern.returns or tuple((v.name, v.name) for v in pattern.vertices)
    return bindings.select(
        *[F.col(var).alias(alias) for var, alias in returns]
    ).distinct()


def with_vertex_props(
    result: DataFrame, graph: PropertyGraph, aliases: list[str]
) -> DataFrame:
    """Join vertex properties for each alias column: adds
    ``<alias>_vtype``, ``<alias>_cpu``, ``<alias>_pname``."""
    out = result
    for a in aliases:
        props = graph.vertices.select(
            F.col("id").alias(a),
            F.col("vtype").alias(f"{a}_vtype"),
            F.col("cpu").alias(f"{a}_cpu"),
            F.col("pname").alias(f"{a}_pname"),
        )
        out = out.join(props, a)
    return out
