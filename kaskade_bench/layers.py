"""Per-layer metrics of a traced run, computed from its spans.

Each per-pass figure is taken from every traced pass and reported as the
median over them; set-up figures are medians over the set-ups.
"""
from __future__ import annotations

from arith import median, outermost_total, ratio, slot_share
from meter import COUNTERS
from workloads import Plan, PassResult, hit_ratio, served_ratio

PATHS = ("kaskade", "base")
# The query both workloads run; the others (Q1 on prov-lineage, Q3 on
# soc-reach) count in the per-path totals.
PER_QUERY = ("Q4",)
ENGINE_FIELDS = (
    "s",
    "spark_jobs",
    "spark_stages",
    "spark_tasks",
    "shuffle_read_bytes",
    "shuffle_write_bytes",
    "executor_run_s",
    "result_rows",
)


def unit_of(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    if leaf.endswith("_ms"):
        return "ms"
    if leaf.endswith("_s") or leaf == "s":
        return "s"
    if leaf.endswith("_mb"):
        return "MB"
    if leaf.endswith("bytes"):
        return "bytes"
    if leaf.endswith(("ratio", "share")) or "qerror" in name:
        return "ratio"
    return "count"


def _count(spans, name):
    return sum(1 for sp in spans if sp["name"] == name)


def _engine(spans, path: str, query: str | None = None) -> dict:
    """Totals over the query spans ``engine.<Q>.<path>`` of one pass, for
    one query or, with ``query=None``, all of them."""
    out = dict.fromkeys(ENGINE_FIELDS, 0)
    for sp in spans:
        parts = sp["name"].split(".")
        if len(parts) != 3 or not parts[1].startswith("Q") or parts[2] != path:
            continue
        if query is not None and parts[1] != query:
            continue
        out["s"] += sp["end"] - sp["start"]
        out["result_rows"] += sp.get("rows", 0)
        for key in COUNTERS:
            if key in out:
                out[key] += sp["spark"][key]
    return out


def pass_layers(spans, result, slots: int) -> dict:
    """Per-layer figures of one traced pass; ``slots`` is the number of
    Spark task slots."""
    plan = result.plan
    m = {
        "rules.build_engine_calls": _count(spans, "rules.build_engine"),
        "rules.build_engine_s": outermost_total(spans, "rules"),
        "prolog.query_calls": _count(spans, "prolog.query"),
        "prolog.query_s": outermost_total(spans, "prolog"),
        "enumerator.calls": _count(spans, "enumerator.khop_connectors"),
        "enumerator.s": outermost_total(spans, "enumerator"),
        "enumerator.candidates": sum(
            sp.get("candidates", 0) for sp in spans if sp["name"] == "enumerator.khop_connectors"
        ),
        "cost.improvement_calls": _count(spans, "cost.improvement"),
        "cost.s": outermost_total(spans, "cost"),
        "selection.s": outermost_total(spans, "selection"),
        "selection.candidates": plan.candidates,
        "selection.useful_ratio": ratio(plan.useful, plan.candidates) if plan.candidates else 0.0,
        "rewriter.calls": _count(spans, "rewriter.rewrite"),
        "rewriter.s": outermost_total(spans, "rewriter"),
        "rewriter.hit_ratio": hit_ratio(plan),
        "rewriter.served_ratio": served_ratio(plan),
        "connectors.materialize_s": outermost_total(spans, "connectors"),
        "connectors.view_edges": result.view_edges,
        "workload_s": result.workload_s,
    }
    conn = [sp["spark"] for sp in spans if sp["name"] == "connectors.materialize"]
    for key in ("spark_jobs", "spark_stages", "spark_tasks", "shuffle_write_bytes"):
        m[f"connectors.{key}"] = sum(c[key] for c in conn)
    for path in PATHS:
        totals = _engine(spans, path)
        for key, value in totals.items():
            m[f"engine.{path}.{key}"] = value
        m[f"engine.{path}.executor_share"] = slot_share(totals["executor_run_s"], totals["s"], slots)
        for q in PER_QUERY:
            for key, value in _engine(spans, path, q).items():
                m[f"engine.{q}.{path}.{key}"] = value
    return m


def per_layer_metrics(tracer, passes, extras, steal_s, slots: int) -> dict:
    # A pass whose planning raised has no plan; it is already counted
    # as failed, and zeros stand in if no traced pass planned.
    traced = [i for i, p in enumerate(passes) if p.traced and p.plan is not None]
    untraced = [i for i, p in enumerate(passes) if not p.traced]
    rows = [pass_layers(tracer.of_pass(i), passes[i], slots) for i in traced] or [
        pass_layers([], PassResult(traced=True, plan=Plan([], [], 0, 0, 0)), slots)
    ]
    metrics = {key: median(r[key] for r in rows) for key in rows[0]}
    traced_s = metrics.pop("workload_s")

    setup_spans = tracer.of_pass(None)
    gen = [sp for sp in setup_spans if sp["name"] == "datasets.generate"]
    stats = [sp for sp in setup_spans if sp["name"] == "estimator.collect_stats"]
    metrics["datasets.generate_s"] = median(sp["end"] - sp["start"] for sp in gen)
    metrics["estimator.collect_stats_s"] = median(sp["end"] - sp["start"] for sp in stats)
    metrics["estimator.spark_jobs"] = median(sp["spark"]["spark_jobs"] for sp in stats)
    metrics.update(extras)
    metrics["spark.failed_tasks"] = sum(
        sp["spark"]["failed_tasks"] for sp in tracer.spans if "spark" in sp
    )
    metrics["host.steal_s"] = steal_s
    metrics["tracing.overhead_s"] = traced_s - median(passes[i].workload_s for i in untraced)
    return metrics
