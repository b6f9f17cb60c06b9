"""Graph analytics used by the workload (Q7/Q8).

The paper runs APOC's label-propagation community detection on Neo4j.
Our substitute is a *deterministic* synchronous label propagation in
DataFrames: every vertex starts in its own community (label = vertex
id); each iteration every vertex adopts the most frequent label among
its (undirected) neighbors, ties broken by the smallest label; isolated
vertices keep their own label. Determinism makes the algorithm
testable against a pandas reference via the DuckDB oracle.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from ..engine.property_graph import PropertyGraph
from .summarizers import _induced_edges


def undirected_neighbors(graph: PropertyGraph) -> DataFrame:
    """(id, nbr) pairs for both edge directions, deduplicated."""
    fwd = graph.edges.select(F.col("src").alias("id"), F.col("dst").alias("nbr"))
    bwd = graph.edges.select(F.col("dst").alias("id"), F.col("src").alias("nbr"))
    return fwd.union(bwd).distinct()


def label_propagation(graph: PropertyGraph, iterations: int) -> DataFrame:
    """Returns ``(id, community)`` after ``iterations`` synchronous
    rounds of deterministic min-tie-break label propagation."""
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    nbrs = undirected_neighbors(graph).persist()
    labels = graph.vertices.select("id", F.col("id").alias("community")).persist()
    labels.count()
    win = Window.partitionBy("id").orderBy(F.desc("cnt"), F.asc("community"))
    for i in range(iterations):
        nbr_labels = nbrs.join(
            labels.select(F.col("id").alias("nbr"), "community"), "nbr"
        ).select("id", "community")
        counted = nbr_labels.groupBy("id", "community").agg(
            F.count("*").alias("cnt")
        )
        best = (
            counted.withColumn("_rk", F.row_number().over(win))
            .where(F.col("_rk") == 1)
            .select("id", F.col("community").alias("new_community"))
        )
        new_labels = (
            labels.join(best, "id", "left")
            .select(
                "id",
                F.coalesce("new_community", "community").alias("community"),
            )
        )
        # Synchronous rounds build lineage linearly — cut it each round.
        new_labels = new_labels.localCheckpoint(eager=True)
        labels.unpersist()
        labels = new_labels
    nbrs.unpersist()
    return labels


def community_sizes(
    labels: DataFrame, graph: PropertyGraph, vtype: str | None = None
) -> DataFrame:
    """(community, size) where size counts member vertices, optionally
    restricted to one vertex type (Q8 counts 'job' vertices)."""
    members = labels.join(graph.vertices.select("id", "vtype"), "id")
    if vtype is not None:
        members = members.where(F.col("vtype") == vtype)
    return members.groupBy("community").agg(F.count("*").alias("size"))


def largest_community(
    labels: DataFrame, graph: PropertyGraph, vtype: str | None = None
) -> tuple[int, PropertyGraph]:
    """Q8: the community with most ``vtype`` vertices (ties: smallest
    community label), returned as (label, induced subgraph)."""
    sizes = community_sizes(labels, graph, vtype)
    top = sizes.orderBy(F.desc("size"), F.asc("community")).limit(1).collect()
    if not top:
        raise ValueError("graph has no vertices of the requested type")
    com = top[0]["community"]
    member_ids = labels.where(F.col("community") == com).select("id")
    return int(com), PropertyGraph(
        vertices=graph.vertices.join(member_ids, "id"),
        edges=_induced_edges(graph, member_ids),
        name=f"{graph.name}:community{com}",
    )


def label_propagation_reference(
    vertices_pdf, edges_pdf, iterations: int
):
    """Pure-pandas reference implementation (same deterministic rules) —
    registered as a DuckDB table by tests so Spark results go through
    ``repro.oracle.assert_equivalent``."""
    import pandas as pd

    ids = list(vertices_pdf["id"])
    nbrs: dict[int, list[int]] = {i: [] for i in ids}
    seen = set()
    for srow, drow in zip(edges_pdf["src"], edges_pdf["dst"]):
        for a, b in ((srow, drow), (drow, srow)):
            if (a, b) not in seen:
                seen.add((a, b))
                nbrs[a].append(b)
    labels = {i: i for i in ids}
    for _ in range(iterations):
        new = {}
        for v in ids:
            if not nbrs[v]:
                new[v] = labels[v]
                continue
            counts: dict[int, int] = {}
            for n in nbrs[v]:
                counts[labels[n]] = counts.get(labels[n], 0) + 1
            best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            new[v] = best
        labels = new
    return pd.DataFrame(
        {"id": ids, "community": [labels[i] for i in ids]}
    ).astype({"id": "int64", "community": "int64"})
