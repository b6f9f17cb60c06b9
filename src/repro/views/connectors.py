"""Connector graph views (§ III-C, § VI-A, Table I).

A connector of G is a graph G' whose every edge contracts a directed
path of G between two target vertices. Four specializations (Table I):

- **k-hop connector** — target pairs connected through k-length paths;
- **same-vertex-type connector** — target pairs of one vertex type
  (paths run through vertices of *other* types);
- **same-edge-type connector** — pairs connected by paths of a single
  edge type;
- **source-to-sink connector** — (source, sink) pairs, where sources
  have no incoming and sinks no outgoing edges.

Each connector is one call of the path-expansion kernel
:func:`repro.engine.traversal.expand` carrying the max ``ts``.
A connector is a graph like the one it contracts: its edges are in the
core edge schema ``(src, dst, etype, ts)``, with ``ts`` = max edge-``ts``
along the contracted paths (max composes across contraction, which is
what makes the Q4 rewriting equivalent).
The connector's vertex set is all vertices of the anchor types (target
vertices that match no path are kept, isolated — Fig. 3(c) keeps all
job vertices).
"""
from __future__ import annotations

from dataclasses import replace

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..engine.property_graph import PropertyGraph
from ..engine.traversal import expand


def _connector(
    graph: PropertyGraph, vertices: DataFrame, pairs: DataFrame, etype: str
) -> PropertyGraph:
    """The view over ``vertices`` whose edges are the contracted ``pairs``
    (``expand`` output carrying the max ``ts``)."""
    edges = pairs.select(
        "src",
        "dst",
        F.lit(etype).alias("etype"),
        F.col("m").cast("long").alias("ts"),
    )
    return PropertyGraph(vertices=vertices, edges=edges, name=f"{graph.name}:{etype}")


def _typed(graph: PropertyGraph, vtype: str | None) -> DataFrame | None:
    """The vertices of ``vtype``; ``None`` (no restriction) if untyped."""
    return None if vtype is None else graph.typed_vertices(vtype)


def khop_connector(
    graph: PropertyGraph,
    k: int,
    src_type: str | None = None,
    dst_type: str | None = None,
) -> PropertyGraph:
    """Materialize a k-hop connector between ``src_type`` → ``dst_type``
    vertices (``None`` = untyped, for homogeneous vertex-to-vertex
    connectors). Its edge type is ``CONN{k}_{src}_{dst}`` (an untyped end
    is ``Vertex``), the name
    :attr:`repro.core.enumerator.ConnectorCandidate.edge_type` gives."""
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = expand(
        graph.edges, k, k, carry="max",
        sources=_typed(graph, src_type),
        targets=_typed(graph, dst_type),
    )
    etype = f"CONN{k}_{src_type or 'Vertex'}_{dst_type or 'Vertex'}"
    anchors = [t for t in (src_type, dst_type) if t]
    vertices = graph.vertices
    if anchors:
        vertices = vertices.where(F.col("vtype").isin(anchors))
    return _connector(graph, vertices, pairs, etype)


def upto_khop_connector(graph: PropertyGraph, k: int) -> PropertyGraph:
    """Vertex-to-vertex connector for *homogeneous* networks (§ VII-F):
    one edge per vertex pair within ``1..k`` hops, of edge type
    ``CONN1TO{k}_Vertex_Vertex``, carrying the max edge-``ts`` over all
    such walks.

    Exact-k contraction is only equivalence-preserving when the schema
    forces all path lengths to be multiples of k (bipartite job↔file).
    On a homogeneous graph, reachability within H hops equals
    reachability within ⌈H/k⌉ steps of ≤k-hop edges, so this is the
    connector the paper's homogeneous experiments rewrite over.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    pairs = expand(graph.edges, 1, k, carry="max")
    return _connector(graph, graph.vertices, pairs, f"CONN1TO{k}_Vertex_Vertex")


def same_vertex_type_connector(
    graph: PropertyGraph, vtype: str, max_hops: int
) -> PropertyGraph:
    """Contract paths between ``vtype`` vertices whose *interior*
    vertices are of other types (Table I row 1). ``max_hops`` bounds the
    contracted path length (the schema's shortest same-type cycle gives
    the useful value — 2 on bipartite schemas)."""
    targets = graph.typed_vertices(vtype)
    pairs = expand(
        graph.edges, 1, max_hops, carry="max",
        sources=targets,
        through=graph.vertices.where(F.col("vtype") != vtype),
        targets=targets,
    )
    return _connector(graph, targets, pairs, f"CONN_{vtype}_{vtype}")


def same_edge_type_connector(
    graph: PropertyGraph, etype: str, max_hops: int
) -> PropertyGraph:
    """Contract paths consisting solely of ``etype`` edges (Table I
    row 3), up to ``max_hops``."""
    edges = graph.typed_edges(etype)
    pairs = expand(edges, 1, max_hops, carry="max")
    # Target vertices: any endpoint of an etype edge.
    touched = (
        edges.select(F.col("src").alias("id"))
        .union(edges.select(F.col("dst").alias("id")))
        .distinct()
    )
    vertices = graph.vertices.join(touched, "id")
    return _connector(graph, vertices, pairs, f"CONN_{etype}")


def source_to_sink_connector(graph: PropertyGraph, max_hops: int) -> PropertyGraph:
    """Contract paths from sources (no in-edges) to sinks (no out-edges)
    (Table I row 4), up to ``max_hops``."""
    ids = graph.vertices.select("id")
    sources = ids.join(
        graph.edges.select(F.col("dst").alias("id")).distinct(), "id", "left_anti"
    )
    sinks = ids.join(
        graph.edges.select(F.col("src").alias("id")).distinct(), "id", "left_anti"
    )
    pairs = expand(
        graph.edges, 1, max_hops, carry="max", sources=sources, targets=sinks
    )
    vertices = graph.vertices.join(sources.union(sinks).distinct(), "id")
    return _connector(graph, vertices, pairs, "CONN_SRC_SINK")


def materialize(graph: PropertyGraph) -> PropertyGraph:
    """Force computation and pin the view in memory (the paper's
    'materialized graph view is a physical data object')."""
    g = replace(
        graph,
        vertices=graph.vertices.persist(),
        edges=graph.edges.persist(),
    )
    g.vertices.count()
    g.edges.count()
    return g
