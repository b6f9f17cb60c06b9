"""Experiment harnesses for the evaluation section (§ VII).

One function per evaluation artifact, each returning printable rows:

- :func:`table3_rows`   — Table III dataset statistics
- :func:`fig5_rows`     — § VII-D view-size estimation accuracy
- :func:`fig6_rows`     — § VII-E effective size reduction
- :func:`fig7_rows`     — § VII-F query runtimes (baseline vs. view)
- :func:`end_to_end_selection_rows` — the § V pipeline: enumerate →
  estimate → knapsack-select → materialize → rewrite.

``profile`` picks the scale: ``"test"`` (seconds, used by integration
tests) or ``"bench"`` (the sizes recorded in EXPERIMENTS.md).
"""
from __future__ import annotations

from pyspark.sql import SparkSession
from pyspark.sql import functions as F

from ..core.cost import CostModel
from ..core.enumerator import ViewEnumerator
from ..core.estimator import collect_stats, er_estimate, estimate_khop_paths
from ..core.selection import ViewSelector
from ..core.rewriter import rewrite_with_connector
from ..datasets import dblp, dblp_summarized, prov_raw, prov_summarized, roadnet, social
from ..engine.property_graph import PropertyGraph
from ..engine.traversal import khop_walk_count
from ..views.connectors import khop_connector, materialize
from .queries import (
    WorkloadSpec,
    build_connector,
    dblp_spec,
    homogeneous_spec,
    prov_spec,
    q1_blast_radius,
    q1_pattern,
    q2_ancestors,
    q3_descendants,
    q4_path_lengths,
    q5_edge_count,
    q6_vertex_count,
    q7_communities,
    q8_largest_community,
    timed,
)

PROFILES = {
    # Dataset generator scales per profile. soc is held below the others
    # at bench scale: its ≤4-hop all-pairs reachability (Q2/Q3) grows
    # toward n² on a small-world power-law graph — exactly the § VII-F
    # observation that connector-view costs track its blown-up size.
    "test": {"prov": 0.06, "dblp": 0.06, "soc": 0.08, "roadnet": 0.05},
    "bench": {"prov": 1.0, "dblp": 1.0, "soc": 0.3, "roadnet": 1.0},
}

# Fig. 5 edge-prefix sweep (the paper uses 1e5/1e6/1e7; we scale down 2
# orders with the datasets themselves — DESIGN.md § Scale factors).
FIG5_PREFIXES = {"test": [300, 1000, 3000], "bench": [1000, 3000, 10_000]}

# Label-propagation iterations (paper: 25 baseline / ~half on the view;
# we use an even 12/6 at bench scale to keep the halving exact and the
# suite's wall-clock within CI budget — EXPERIMENTS.md).
LPA_ITER = {"test": 4, "bench": 12}


def heterogeneous_graphs(spark: SparkSession, profile: str):
    """(name, raw graph, summarized graph, spec) for prov and dblp."""
    s = PROFILES[profile]
    return [
        (
            "prov",
            prov_raw(spark, scale=s["prov"]),
            prov_summarized(spark, scale=s["prov"]),
            prov_spec(),
        ),
        (
            "dblp",
            dblp(spark, scale=s["dblp"]),
            dblp_summarized(spark, scale=s["dblp"]),
            dblp_spec(),
        ),
    ]


def homogeneous_graphs(spark: SparkSession, profile: str):
    s = PROFILES[profile]
    return [
        ("soc-livejournal", social(spark, scale=s["soc"]), homogeneous_spec("soc")),
        ("roadnet-usa", roadnet(spark, scale=s["roadnet"]), homogeneous_spec("roadnet")),
    ]


# ---------------------------------------------------------------------------
# Table III
# ---------------------------------------------------------------------------


def table3_rows(spark: SparkSession, profile: str = "test") -> list[dict]:
    """Dataset statistics table (|V|, |E|, type counts) — the SF-scaled
    counterpart of Table III."""
    rows = []
    for name, raw, summ, _spec in heterogeneous_graphs(spark, profile):
        for label, g in [(f"{name} (raw)", raw), (f"{name} (summarized)", summ)]:
            rows.append(
                {
                    "dataset": label,
                    "type": "heterogeneous",
                    "V": g.vertex_count(),
                    "E": g.edge_count(),
                    "vertex_types": len(g.vertex_types()),
                    "edge_types": len(g.edge_types()),
                }
            )
    for name, g, _spec in homogeneous_graphs(spark, profile):
        rows.append(
            {
                "dataset": name,
                "type": "homogeneous",
                "V": g.vertex_count(),
                "E": g.edge_count(),
                "vertex_types": 1,
                "edge_types": 1,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Fig. 5 — view size estimation
# ---------------------------------------------------------------------------


def _edge_prefix(graph: PropertyGraph, n: int) -> PropertyGraph:
    """The subgraph on a deterministic n-edge prefix + incident vertices
    — Fig. 5 materializes 2-hop connectors 'over the first n edges of
    each dataset'. Prefix order is a hash of the edge key: ordering by
    raw ids would take all of one edge type first (id ranges are per
    vertex type), yielding prefixes with no 2-hop paths at all."""
    edges = graph.edges.orderBy(
        F.xxhash64("src", "dst", "etype"), "src", "dst", "etype"
    ).limit(n)
    touched = (
        edges.select(F.col("src").alias("id"))
        .union(edges.select(F.col("dst").alias("id")))
        .distinct()
    )
    vertices = graph.vertices.join(touched, "id")
    return PropertyGraph(vertices=vertices, edges=edges, name=f"{graph.name}[:{n}]")


def fig5_rows(spark: SparkSession, profile: str = "test", k: int = 2) -> list[dict]:
    """Estimated vs. actual 2-hop connector sizes over edge prefixes and
    then the whole graph: columns est50 / est95 (Eq. 2/3), est_er
    (Eq. 1), actual (k-length path count), and the edge count |E|."""
    graphs: list[tuple[str, PropertyGraph]] = []
    for name, _raw, summ, _spec in heterogeneous_graphs(spark, profile):
        graphs.append((name, summ))
    for name, g, _spec in homogeneous_graphs(spark, profile):
        graphs.append((name, g))
    rows = []
    for name, g in graphs:
        total = g.edge_count()
        prefixes = [_edge_prefix(g, n) for n in FIG5_PREFIXES[profile] if n < total]
        for sub in [*prefixes, g]:
            sub = sub.persist()
            stats = collect_stats(sub)
            rows.append(
                {
                    "dataset": name,
                    "E": stats.n_edges,
                    "est50": estimate_khop_paths(stats, k, 50),
                    "est95": estimate_khop_paths(stats, k, 95),
                    "est_er": er_estimate(stats.n_vertices, stats.n_edges, k),
                    "actual": khop_walk_count(sub.edges, k),
                }
            )
            sub.unpersist()
    return rows


# ---------------------------------------------------------------------------
# Fig. 6 — effective size reduction
# ---------------------------------------------------------------------------


def fig6_rows(spark: SparkSession, profile: str = "test") -> list[dict]:
    """Raw → summarizer → 2-hop connector sizes for the heterogeneous
    graphs (§ VII-E)."""
    rows = []
    for name, raw, summ, spec in heterogeneous_graphs(spark, profile):
        conn = khop_connector(summ, 2, spec.anchor_type, spec.anchor_type)
        stages = [("raw", raw), ("summarizer", summ), ("connector", conn)]
        raw_e = None
        for stage, g in stages:
            v, e = g.vertex_count(), g.edge_count()
            raw_e = raw_e if raw_e is not None else e
            rows.append(
                {
                    "dataset": name,
                    "stage": stage,
                    "V": v,
                    "E": e,
                    "reduction_vs_raw": round(raw_e / e, 2) if e else float("inf"),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Fig. 7 — query runtimes
# ---------------------------------------------------------------------------


def _run_queries(
    graph: PropertyGraph,
    connector: PropertyGraph,
    spec: WorkloadSpec,
    lpa_iters: int,
) -> list[dict]:
    """One row per query. Each side of a cell is timed as a whole, from
    building its DataFrame (which may already run Spark jobs, e.g. the
    checkpoints of ``expand``) to the last row counted."""
    rows = []

    def record(query, base, view, n=lambda out: out):
        """``base``/``view`` build and evaluate one side; ``n`` gives
        the rows to report from what they return."""
        out_b, tb = timed(base)
        out_v, tv = timed(view)
        rows.append(
            {
                "dataset": spec.name,
                "query": query,
                "baseline_s": round(tb, 3),
                "view_s": round(tv, 3),
                "speedup": round(tb / tv, 2) if tv > 0 else float("inf"),
                "baseline_rows": n(out_b),
                "view_rows": n(out_v),
            }
        )
        return out_b, out_v

    queries = [("Q1 blast radius", q1_blast_radius)] if spec.heterogeneous else []
    queries += [
        ("Q2 ancestors", q2_ancestors),
        ("Q3 descendants", q3_descendants),
        ("Q4 path lengths", q4_path_lengths),
    ]
    for name, query in queries:
        record(
            name,
            lambda: query(graph, spec).count(),
            lambda: query(connector, spec, spec.view).count(),
        )
    record("Q5 edge count", lambda: q5_edge_count(graph).count(),
           lambda: q5_edge_count(graph).count())
    record("Q6 vertex count", lambda: q6_vertex_count(graph).count(),
           lambda: q6_vertex_count(graph).count())

    # Q7/Q8: baseline = full iterations on the graph; view = half on the
    # connector (§ VII-C). Q8 consumes Q7's labels.
    def communities(g, iters):
        labels = q7_communities(g, iters).persist()
        labels.count()
        return labels

    base_labels, view_labels = record(
        "Q7 community detection",
        lambda: communities(graph, lpa_iters),
        lambda: communities(connector, lpa_iters // 2),
        n=lambda labels: labels.select("community").distinct().count(),
    )
    record(
        "Q8 largest community",
        lambda: q8_largest_community(base_labels, graph, spec).count(),
        lambda: q8_largest_community(view_labels, connector, spec).count(),
    )
    base_labels.unpersist()
    view_labels.unpersist()
    return rows


def fig7_rows(spark: SparkSession, profile: str = "test") -> list[dict]:
    """Query runtimes over the (summarized) graph vs. the 2-hop
    connector view, per dataset (§ VII-F). The view side of Q1–Q4 is
    the rewriter's rewriting over ``spec.view``."""
    rows = []
    graphs = [(summ, spec) for _n, _raw, summ, spec in heterogeneous_graphs(spark, profile)]
    graphs += [(g, spec) for _n, g, spec in homogeneous_graphs(spark, profile)]
    for g, spec in graphs:
        g = materialize(g)
        conn = build_connector(g, spec.view)
        rows += _run_queries(g, conn, spec, LPA_ITER[profile])
        g.unpersist()
        conn.unpersist()
    return rows


# ---------------------------------------------------------------------------
# End-to-end § V pipeline
# ---------------------------------------------------------------------------


def end_to_end_selection_rows(
    spark: SparkSession, profile: str = "test", budget_frac: float = 200.0
) -> list[dict]:
    """The full Kaskade loop on each heterogeneous dataset: enumerate
    candidates for Q1's pattern, estimate sizes, select under a budget
    of ``budget_frac × |E|``, and report the chosen views + rewriting.

    The paper's space budget is a percentage of machine *memory*
    (§ V-B fn. 4), which at our SF-scaled sizes is hundreds of times the
    graph — hence the default. The budget's job is to discriminate k=2
    connectors (selected) from k≥4 (priced orders of magnitude larger by
    Eq. 3 — and rejected), which it does at any frac in [~50, ~10000]."""
    rows = []
    for name, _raw, summ, spec in heterogeneous_graphs(spark, profile):
        stats = collect_stats(summ)
        enum = ViewEnumerator(spec.schema)
        cm = CostModel(schema=spec.schema, alpha=95)
        selector = ViewSelector(enum, cm)
        pattern = q1_pattern(spec)
        res = selector.select([pattern], stats, budget=budget_frac * stats.n_edges)
        for item in res.items:
            chosen = item.view in res.chosen
            rw = rewrite_with_connector(pattern, item.view, spec.schema)
            rows.append(
                {
                    "dataset": name,
                    "view": item.view.edge_type,
                    "est_size": round(item.weight, 1),
                    "value": round(item.value, 6),
                    "chosen": chosen,
                    "rewrite": f"*{rw.lower}..{rw.upper}" if rw else "-",
                }
            )
    return rows


def format_rows(rows: list[dict]) -> str:
    """Render rows as an aligned text table (jobs print these)."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    widths = {
        c: max(len(str(c)), *(len(str(r.get(c, ""))) for r in rows)) for c in cols
    }
    header = "  ".join(str(c).ljust(widths[c]) for c in cols)
    sep = "  ".join("-" * widths[c] for c in cols)
    lines = [header, sep]
    for r in rows:
        lines.append("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in cols))
    return "\n".join(lines)
