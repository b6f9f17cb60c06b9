"""The benchmark's workloads and one pass of each.

A workload is a generated graph plus the MATCH patterns a user would
send. One pass runs the Kaskade path (plan the patterns with
``ViewSelector.select`` and ``rewrite_with_connector``, materialize the
chosen views, run each query over its view or, without a rewriting, over
the base graph) and then the same queries over the base graph, and checks
that both paths return the same result.

Why these workloads:

- ``prov-lineage``: the summarized provenance graph at the bench profile.
  The 2-hop Job->Job connector shrinks it about tenfold, so the planner
  selects it, and the blast-radius query runs over the view (§ VII-F,
  "views win"). It exercises view creation next to queries over a small
  view.
- ``soc-reach``: a power-law social network. No connector saves work
  here (§ VII-F); the only view the planner can use is the 1-hop
  connector, a copy of the graph. Frontiers grow towards n² per hop, so
  the join-and-dedup work of ``engine.traversal`` dominates.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

import repro.core.rewriter as rewriter
from repro.core import HOMOGENEOUS, PROVENANCE_CORE, GraphSchema, ViewEnumerator, parse_match
from repro.core.cost import CostModel
from repro.core.estimator import collect_stats, estimate_khop_paths
from repro.core.pattern import BLAST_RADIUS_MATCH, QueryPattern
from repro.core.selection import ViewSelector
from repro.datasets import prov_summarized, social
from repro.engine import (
    PropertyGraph,
    execute_pattern,
    khop_pairs,
    khop_pairs_with_max,
    restrict_endpoints,
    with_vertex_props,
)
from repro.views import khop_connector, materialize

from arith import HASH_MOD, q_error, ratio
from tracer import NullTracer

# Space budget as a multiple of the base graph's edge count, as in
# ``repro.workload.experiments.end_to_end_selection_rows``: the paper's
# budget is a share of machine memory, hundreds of times these graphs.
BUDGET_EDGES_PER_EDGE = 200.0
ALPHA = 95
HOPS = (1, 2, 3, 4)


@dataclass(frozen=True)
class Query:
    name: str
    kind: str  # "blast" (Lst. 1 with its relational tail), "reach", "maxts"
    match: str

    @property
    def pattern(self) -> QueryPattern:
        return parse_match(self.match)


@dataclass(frozen=True)
class Workload:
    name: str
    schema: GraphSchema
    queries: tuple[Query, ...]
    generate: Callable  # (spark, seed) -> PropertyGraph
    # The view the planner must choose and the rewriting it must give the
    # first query, or None when the workload asserts no particular plan.
    expected_view: str | None = None
    expected_first_rewrite: tuple[int, int] | None = None


# Table IV queries, each with its own variable names, as a user would
# write them. Q2 (ancestors) is left out: in this engine it is Q3's
# computation with the two columns swapped.
def _q3(vtype: str) -> Query:
    """Descendants within 4 hops."""
    return Query("Q3", "reach",
                 f"MATCH (v:{vtype}) -[*1..4]-> (d:{vtype}) RETURN v AS v, d AS descendant")


def _q4(vtype: str) -> Query:
    """Path lengths: the max edge ts over all paths within 4 hops."""
    return Query("Q4", "maxts",
                 f"MATCH (s:{vtype}) -[r*1..4]-> (t:{vtype}) RETURN s AS src, t AS dst")


WORKLOADS = {
    "prov-lineage": Workload(
        name="prov-lineage",
        schema=PROVENANCE_CORE,
        queries=(Query("Q1", "blast", BLAST_RADIUS_MATCH), _q4("Job")),
        generate=lambda spark, seed: prov_summarized(spark, scale=1.0, seed=seed),
        expected_view="CONN2_Job_Job",
        expected_first_rewrite=(1, 5),
    ),
    "soc-reach": Workload(
        name="soc-reach",
        schema=HOMOGENEOUS,
        queries=(_q3("Vertex"), _q4("Vertex")),
        generate=lambda spark, seed: social_components(spark, seed),
    ),
}


def social_components(spark, seed: int, components: int = 3, n: int = 500):
    """``components`` disjoint ``n``-vertex power-law graphs from seeds
    derived from ``seed``. A single power-law graph's traversal work swings
    with where its few hubs land; a sum of independent components varies
    less from seed to seed, at the same number of Spark stages."""
    parts = [
        social(spark, vertices=n, seed=seed * components + i) for i in range(components)
    ]
    vertices = edges = None  # component i takes ids i*n .. i*n + n-1
    for i, g in enumerate(parts):
        v = g.vertices.withColumn("id", F.col("id") + i * n)
        e = g.edges.withColumn("src", F.col("src") + i * n).withColumn("dst", F.col("dst") + i * n)
        vertices = v if vertices is None else vertices.unionByName(v)
        edges = e if edges is None else edges.unionByName(e)
    return PropertyGraph(vertices=vertices, edges=edges, name="soc")


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


@dataclass
class Loaded:
    graph: PropertyGraph
    stats: object
    n_edges: int
    setup_s: float


def set_up(spark, workload: Workload, seed: int, tracer) -> Loaded:
    """Generate, load and pin the graph, then collect its statistics."""
    t0 = time.perf_counter()
    with tracer.span("datasets.generate", spark=True):
        graph = workload.generate(spark, seed)
    with tracer.span("engine.pin", spark=True):
        graph = graph.persist()
        graph.vertices.count()
        n_edges = graph.edges.count()
    with tracer.span("estimator.collect_stats", spark=True):
        stats = collect_stats(graph)
    return Loaded(graph, stats, n_edges, time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Query execution
# ---------------------------------------------------------------------------


def query_frame(graph: PropertyGraph, query: Query, pattern: QueryPattern) -> DataFrame:
    """The DataFrame answering ``query`` with ``pattern`` (the original
    pattern over the base graph, or its rewriting over a view)."""
    if query.kind == "maxts":
        (path,) = pattern.paths
        pairs = khop_pairs_with_max(graph.typed_edges(path.etype), path.lower, path.upper)
        pairs = restrict_endpoints(
            pairs, graph.vertices, pattern.vtype(path.src), pattern.vtype(path.dst)
        )
        return pairs.select(F.col("src"), F.col("dst"), F.col("m").alias("dist"))
    pairs = execute_pattern(graph, pattern)
    if query.kind == "reach":
        return pairs
    # Lst. 1's relational tail: per (A, B) the CPU of B, averaged per
    # pipeline of A. Decimal arithmetic keeps the average exact, so the
    # result does not depend on summation order.
    flat = with_vertex_props(pairs, graph, ["A", "B"])
    per_pair = flat.groupBy("A", "A_pname", "B").agg(
        F.sum(F.col("B_cpu").cast("decimal(18,2)")).alias("T_CPU")
    )
    return per_pair.groupBy("A_pname").agg(F.avg("T_CPU").alias("avg_cpu"))


def fingerprint(df: DataFrame) -> tuple[int, int]:
    """(rows, Σ xxhash64(row) mod 2³²), computed in Spark in one action.
    Columns are hashed in name order: a rewriting may reorder them."""
    cols = sorted(df.columns)
    row = df.agg(
        F.count(F.lit(1)).alias("n"),
        F.sum(F.pmod(F.xxhash64(*cols), F.lit(HASH_MOD))).alias("h"),
    ).collect()[0]
    return int(row["n"]), int(row["h"] or 0)


# ---------------------------------------------------------------------------
# One pass
# ---------------------------------------------------------------------------


@dataclass
class Context:
    """What passes share: the loaded graph, the parsed patterns, the
    first pass's plan (later plans must equal it) and the views of the
    latest pass, kept until the next pass starts."""

    workload: Workload
    loaded: Loaded
    cpu: Callable[[], float]
    patterns: list = field(default_factory=list)
    first_plan: tuple | None = None
    last_plan: object = None
    views: dict = field(default_factory=dict)

    def __post_init__(self):
        self.patterns = [q.pattern for q in self.workload.queries]

    def drop_views(self) -> None:
        """Unpersist the views and wait until their blocks are gone, so
        the removal does not overlap the next pass."""
        for v in self.views.values():
            v.vertices.unpersist(blocking=True)
            v.edges.unpersist(blocking=True)
        self.views = {}


@dataclass
class Plan:
    chosen: list
    rewritings: list  # per query: Rewriting or None
    attempts: int  # (query, chosen view) pairs tried by the rewrite step
    candidates: int
    useful: int

    def fingerprint(self) -> tuple:
        return (
            tuple(v.edge_type for v in self.chosen),
            tuple(
                None if rw is None else (rw.view.edge_type, rw.lower, rw.upper)
                for rw in self.rewritings
            ),
        )


def plan(workload: Workload, patterns, loaded: Loaded, tracer) -> Plan:
    """Select views for the workload under the budget, then rewrite each
    query over the first chosen view that admits a rewriting."""
    schema = workload.schema
    selector = ViewSelector(ViewEnumerator(schema), CostModel(schema=schema, alpha=ALPHA))
    with tracer.span("selection.select"):
        sel = selector.select(
            patterns, loaded.stats, BUDGET_EDGES_PER_EDGE * loaded.n_edges
        )
    rewritings, attempts = [], 0
    with tracer.span("bench.rewrite_step"):
        for pattern in patterns:
            found = None
            for view in sel.chosen:
                attempts += 1
                found = rewriter.rewrite_with_connector(pattern, view, schema)
                if found is not None:
                    break
            rewritings.append(found)
    return Plan(
        chosen=list(sel.chosen),
        rewritings=rewritings,
        attempts=attempts,
        candidates=len(sel.items),
        useful=sum(1 for it in sel.items if it.value > 0),
    )


@dataclass
class PassResult:
    traced: bool
    plan_s: float = 0.0
    materialize_s: float = 0.0
    query_s: float = 0.0
    baseline_s: float = 0.0
    cpu_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    view_edges: int = 0
    plan: Plan | None = None
    errors: list = field(default_factory=list)
    query_times: dict = field(default_factory=dict)  # "<Q>.<path>" -> s

    @property
    def workload_s(self) -> float:
        return self.plan_s + self.materialize_s + self.query_s


def check_plan(workload: Workload, p: Plan) -> str | None:
    """Why the plan breaks the workload's expectation, or None."""
    names = [v.edge_type for v in p.chosen]
    if workload.expected_view is not None and workload.expected_view not in names:
        return f"expected view {workload.expected_view} not chosen: {names}"
    if workload.expected_first_rewrite is not None:
        rw = p.rewritings[0]
        got = None if rw is None else (rw.lower, rw.upper)
        if got != workload.expected_first_rewrite:
            return f"first query rewritten to {got}, expected {workload.expected_first_rewrite}"
    return None


def run_pass(ctx, pass_id: int | None, tracer) -> PassResult:
    """Plan, materialize and run the workload, then run the baseline and
    compare. A pass attempts 1 + (number of queries) operations: the plan
    and each query. Failures are counted, never raised."""
    w, loaded, patterns = ctx.workload, ctx.loaded, ctx.patterns
    ctx.drop_views()
    res = PassResult(traced=tracer.enabled, attempted=1 + len(w.queries))
    passed = 0
    tracer.pass_id = pass_id
    cpu0 = ctx.cpu()
    views = ctx.views
    try:
        # -- plan ---------------------------------------------------------
        t0 = time.perf_counter()
        with tracer.instrument(), tracer.span("bench.plan"):
            p = plan(w, patterns, loaded, tracer)
        res.plan_s = time.perf_counter() - t0
        res.plan = ctx.last_plan = p
        problem = check_plan(w, p)
        if problem is None and ctx.first_plan not in (None, p.fingerprint()):
            problem = f"plan changed between passes: {p.fingerprint()}"
        if problem is None:
            passed += 1
        else:
            res.errors.append(problem)
        # -- materialize -------------------------------------------------
        t0 = time.perf_counter()
        for view in p.chosen:
            with tracer.span("connectors.materialize", spark=True):
                views[view.edge_type] = materialize(
                    khop_connector(loaded.graph, view.k, view.src_type, view.dst_type)
                )
        res.materialize_s = time.perf_counter() - t0
        res.view_edges = sum(v.edges.count() for v in views.values())
        # -- queries as planned, then the baseline -----------------------
        kaskade = []
        for q, pattern, rw in zip(w.queries, patterns, p.rewritings):
            graph = loaded.graph if rw is None else views[rw.view.edge_type]
            t0 = time.perf_counter()
            with tracer.span(f"engine.{q.name}.kaskade", spark=True) as rec:
                fp = fingerprint(query_frame(graph, q, pattern if rw is None else rw.rewritten))
                rec["rows"] = fp[0]
            res.query_times[f"{q.name}.kaskade"] = time.perf_counter() - t0
            res.query_s += res.query_times[f"{q.name}.kaskade"]
            kaskade.append(fp)
        for q, pattern, fp in zip(w.queries, patterns, kaskade):
            t0 = time.perf_counter()
            with tracer.span(f"engine.{q.name}.base", spark=True) as rec:
                base = fingerprint(query_frame(loaded.graph, q, pattern))
                rec["rows"] = base[0]
            res.query_times[f"{q.name}.base"] = time.perf_counter() - t0
            res.baseline_s += res.query_times[f"{q.name}.base"]
            if fp == base:
                passed += 1
            else:
                res.errors.append(f"{q.name}: kaskade {fp} != baseline {base}")
    except Exception as exc:  # the pass's remaining operations fail; the run goes on
        res.errors.append(f"{type(exc).__name__}: {exc}")
    finally:
        res.cpu_s = ctx.cpu() - cpu0
        tracer.pass_id = None
    res.failed = res.attempted - passed
    if res.plan is not None and ctx.first_plan is None:
        ctx.first_plan = res.plan.fingerprint()
    return res


def plan_cpu_ms(ctx, n: int) -> list[float]:
    """CPU milliseconds of the planning thread for ``n`` plans of the
    workload. Planning is pure Python with no I/O."""
    out = []
    for _ in range(n):
        t0 = time.thread_time()
        plan(ctx.workload, ctx.patterns, ctx.loaded, NullTracer())
        out.append((time.thread_time() - t0) * 1000)
    return out


# ---------------------------------------------------------------------------
# Traced-run extras: frontier sizes and the estimator's error per hop
# ---------------------------------------------------------------------------


def traced_extra_names() -> list[str]:
    """Names of the figures ``plan_cpu_ms``, ``hop_profile`` and
    ``view_qerror`` add to a traced run."""
    names = ["plan.cpu_ms", "estimator.view_qerror"]
    for label in ("graph", "view"):
        for k in HOPS:
            names += [f"engine.frontier_rows.{label}.k{k}", f"estimator.hop_qerror.{label}.k{k}"]
    return names


def hop_profile(ctx, tracer) -> dict[str, float]:
    """``khop_pairs(edges, k).count()`` for k = 1..4 on the base graph and
    on the chosen view, with the q-error of the Eq. 2/3 estimate at α=95
    against it."""
    out: dict[str, float] = {}
    loaded = ctx.loaded
    p = ctx.last_plan
    cm = CostModel(schema=ctx.workload.schema, alpha=ALPHA)
    targets = [("graph", loaded.graph.edges, loaded.stats)]
    if p is not None and p.chosen and ctx.views:
        view = p.chosen[0]
        targets.append(
            ("view", ctx.views[view.edge_type].edges, cm.connector_stats(loaded.stats, view))
        )
    for label, edges, stats in targets:
        for k in HOPS:
            with tracer.span(f"engine.frontier.{label}.k{k}", spark=True):
                rows = khop_pairs(edges, k).count()
            out[f"engine.frontier_rows.{label}.k{k}"] = rows
            out[f"estimator.hop_qerror.{label}.k{k}"] = q_error(
                estimate_khop_paths(stats, k, ALPHA), rows
            )
    return out


def view_qerror(ctx) -> float:
    """Worst q-error of the Eq. 3 size estimate of a chosen view against
    its materialized edge count."""
    p = ctx.last_plan
    cm = CostModel(schema=ctx.workload.schema, alpha=ALPHA)
    errs = [
        q_error(cm.view_size(ctx.loaded.stats, v), ctx.views[v.edge_type].edges.count())
        for v in p.chosen
    ]
    return max(errs)


def served_ratio(p: Plan) -> float:
    """Queries run over a view ÷ queries."""
    n = len(p.rewritings)
    return ratio(sum(rw is not None for rw in p.rewritings), n) if n else 0.0


def hit_ratio(p: Plan) -> float:
    """Rewritings returned ÷ rewrite attempts of the planner's rewrite step."""
    hits = sum(rw is not None for rw in p.rewritings)
    return ratio(hits, p.attempts) if p.attempts else 0.0
