"""Graph view size estimation (§ V-A).

Kaskade maintains, per vertex type, the vertex cardinality and a
coarse out-degree distribution summary (50th/90th/95th percentile), and
estimates the number of edges of a k-hop connector as the number of
k-length paths in the graph:

- Eq. 1 (Erdős–Rényi baseline, shown to underestimate real graphs):
  ``C(n, k+1) · (m / C(n, 2))^k``
- Eq. 2 (homogeneous): ``n · deg_α^k``
- Eq. 3 (heterogeneous): ``Σ_{t ∈ T_G} n_t · deg_α(t)^k`` over source
  types ``T_G`` (types that are the domain of at least one edge type).

Stats are collected with Spark DataFrame aggregations
(:func:`collect_stats`); zero-out-degree vertices count toward the
percentiles (a vertex with no successors contributes degree 0).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from pyspark.sql import functions as F

PERCENTILES = (50, 90, 95, 100)


@dataclass(frozen=True)
class TypeStats:
    """Per-vertex-type cardinality and out-degree percentile summary."""

    vtype: str
    n_vertices: int
    out_deg: dict[int, float] = field(default_factory=dict)
    is_source: bool = True  # domain of at least one edge type

    def deg(self, alpha: int) -> float:
        if alpha not in self.out_deg:
            raise KeyError(
                f"alpha={alpha} not collected (have {sorted(self.out_deg)})"
            )
        return self.out_deg[alpha]


@dataclass(frozen=True)
class GraphStats:
    """The graph data properties Kaskade maintains (§ V-A)."""

    n_vertices: int
    n_edges: int
    per_type: dict[str, TypeStats]

    @property
    def is_heterogeneous(self) -> bool:
        return len(self.per_type) > 1

    def source_types(self) -> list[TypeStats]:
        return [t for t in self.per_type.values() if t.is_source]


def collect_stats(graph) -> GraphStats:
    """Compute :class:`GraphStats` for a ``PropertyGraph`` with one
    per-type aggregation over vertices joined to their out-degrees (run
    at load time in Kaskade). ``n_edges`` is counted on its own, so edges
    whose source is not a vertex still count; a type is a source type
    when one of its vertices has an out-edge."""
    vertices, edges = graph.vertices, graph.edges
    n_edges = edges.count()
    out_deg = edges.groupBy("src").agg(F.count("*").alias("d"))
    typed = (
        vertices.join(out_deg, vertices.id == out_deg.src, "left")
        .select("vtype", F.coalesce("d", F.lit(0)).alias("d"))
    )
    pct_exprs = [
        F.percentile_approx("d", p / 100.0, 100_000).alias(f"p{p}")
        for p in PERCENTILES
    ]
    rows = (
        typed.groupBy("vtype")
        .agg(F.count("*").alias("n"), (F.max("d") > 0).alias("src"), *pct_exprs)
        .collect()
    )
    per_type = {
        r["vtype"]: TypeStats(
            vtype=r["vtype"],
            n_vertices=r["n"],
            out_deg={p: float(r[f"p{p}"]) for p in PERCENTILES},
            is_source=r["src"],
        )
        for r in rows
    }
    return GraphStats(
        n_vertices=sum(r["n"] for r in rows), n_edges=n_edges, per_type=per_type
    )


def er_estimate(n: int, m: int, k: int) -> float:
    """Eq. 1: expected k-length simple paths in G(n, m) Erdős–Rényi.

    Computed in log space — ``C(n, k+1)`` overflows floats long before
    the paper's graph sizes.
    """
    if n < k + 1 or m == 0 or k < 1:
        return 0.0
    log_choose = math.lgamma(n + 1) - math.lgamma(k + 2) - math.lgamma(n - k)
    log_p = math.log(m) - (math.log(n) + math.log(n - 1) - math.log(2))
    out = log_choose + k * log_p
    return math.exp(out) if out < 700 else math.inf


def homogeneous_estimate(stats: GraphStats, k: int, alpha: int) -> float:
    """Eq. 2: ``n · deg_α^k`` for a graph with a single vertex type."""
    if stats.is_heterogeneous:
        raise ValueError("use heterogeneous_estimate for multi-type graphs")
    (t,) = stats.per_type.values()
    return t.n_vertices * t.deg(alpha) ** k


def heterogeneous_estimate(stats: GraphStats, k: int, alpha: int) -> float:
    """Eq. 3: ``Σ_t n_t · deg_α(t)^k`` over edge-source vertex types."""
    return sum(t.n_vertices * t.deg(alpha) ** k for t in stats.source_types())


def estimate_khop_paths(stats: GraphStats, k: int, alpha: int) -> float:
    """Dispatch Eq. 2 / Eq. 3 on graph heterogeneity (§ V-A)."""
    if stats.is_heterogeneous:
        return heterogeneous_estimate(stats, k, alpha)
    return homogeneous_estimate(stats, k, alpha)


def estimate_connector_size(
    stats: GraphStats, src_type: str, k: int, alpha: int
) -> float:
    """Estimated edge count of a k-hop connector anchored at
    ``src_type`` — Eq. 3 restricted to the connector's source type."""
    t = stats.per_type.get(src_type)
    if t is None:
        return 0.0
    return t.n_vertices * t.deg(alpha) ** k
