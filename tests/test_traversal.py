"""Traversal primitives vs. DuckDB recursive-CTE oracles.

Every reachability/aggregation result is compared against DuckDB over
identical edge tables, on both the bipartite (fig3) and cyclic graphs.
"""
import pytest
from pyspark.sql import functions as F

from repro.engine import (
    khop_pairs,
    khop_pairs_with_max,
    khop_walk_count,
    restrict_endpoints,
    var_length_pairs,
)
from repro.engine.traversal import expand
from repro.oracle import assert_equivalent
from repro.views import khop_connector, materialize

from .conftest import khop_pairs_sql, max_ts_sql, var_length_sql


def _rows(df, *cols):
    return {tuple(r[c] for c in cols) for r in df.collect()}


def _typed(graph, vtype):
    return None if vtype is None else graph.typed_vertices(vtype)


def _walk_count_sql(k: int) -> str:
    """Oracle for khop_walk_count: k-edge walks between distinct endpoints."""
    return f"""
    WITH RECURSIVE walk(src, dst, k) AS (
        SELECT src, dst, 1 FROM edges
        UNION ALL
        SELECT w.src, e.dst, w.k + 1 FROM walk w
        JOIN edges e ON w.dst = e.src WHERE w.k < {k}
    )
    SELECT COUNT(*) FROM walk WHERE k = {k} AND src <> dst
    """


def _duckdb_scalar(sql: str, **tables):
    import duckdb

    con = duckdb.connect()
    try:
        for name, table in tables.items():
            con.register(name, table)
        return con.execute(sql).fetchone()[0]
    finally:
        con.close()


class TestKhopPairs:
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_fig3_matches_oracle(self, fig3, fig3_pdf, k):
        _, edges = fig3_pdf
        assert_equivalent(khop_pairs(fig3.edges, k), khop_pairs_sql(k), edges=edges)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_cyclic_matches_oracle(self, cyclic, cyclic_pdf, k):
        _, edges = cyclic_pdf
        assert_equivalent(khop_pairs(cyclic.edges, k), khop_pairs_sql(k), edges=edges)

    def test_k_zero_rejected(self, fig3):
        with pytest.raises(ValueError):
            khop_pairs(fig3.edges, 0)

    def test_fig3_2hop_job_pairs(self, fig3):
        """Fig. 3(b): the four blue job-to-job 2-hop contractions."""
        pairs = khop_pairs(fig3.edges, 2)
        jobs = restrict_endpoints(pairs, fig3.vertices, "Job", "Job")
        got = {(r["src"], r["dst"]) for r in jobs.collect()}
        assert got == {(1, 2), (1, 3), (2, 4), (3, 4)}

    def test_fig3_2hop_file_pairs(self, fig3):
        """Fig. 3(b): the red file-to-file 2-hop contractions."""
        pairs = khop_pairs(fig3.edges, 2)
        files = restrict_endpoints(pairs, fig3.vertices, "File", "File")
        got = {(r["src"], r["dst"]) for r in files.collect()}
        assert got == {(11, 12), (11, 13), (12, 14), (13, 14)}


class TestVarLengthPairs:
    @pytest.mark.parametrize("lo,hi", [(1, 1), (1, 2), (2, 4), (1, 4)])
    def test_fig3_ranges(self, fig3, fig3_pdf, lo, hi):
        _, edges = fig3_pdf
        assert_equivalent(
            var_length_pairs(fig3.edges, lo, hi),
            var_length_sql(lo, hi),
            edges=edges,
        )

    @pytest.mark.parametrize("lo,hi", [(1, 3), (2, 5)])
    def test_cyclic_ranges(self, cyclic, cyclic_pdf, lo, hi):
        _, edges = cyclic_pdf
        assert_equivalent(
            var_length_pairs(cyclic.edges, lo, hi),
            var_length_sql(lo, hi),
            edges=edges,
        )

    def test_zero_lower_includes_identity(self, fig3, fig3_pdf):
        vertices, edges = fig3_pdf
        files = fig3.typed_vertices("File").select("id")
        assert_equivalent(
            var_length_pairs(fig3.edges, 0, 2, zero_vertices=files),
            var_length_sql(0, 2, zero_pred="vtype = 'File'"),
            edges=edges,
            vertices=vertices,
        )

    def test_zero_lower_requires_vertices(self, fig3):
        with pytest.raises(ValueError):
            var_length_pairs(fig3.edges, 0, 2)

    def test_upper_zero_identity_only(self, fig3):
        files = fig3.typed_vertices("File").select("id")
        out = var_length_pairs(fig3.edges, 0, 0, zero_vertices=files)
        got = {(r["src"], r["dst"]) for r in out.collect()}
        assert got == {(i, i) for i in (11, 12, 13, 14)}


class TestWalkCount:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fig3_counts(self, fig3, fig3_pdf, k):
        _, edges = fig3_pdf
        expected = _duckdb_scalar(_walk_count_sql(k), edges=edges)
        assert khop_walk_count(fig3.edges, k) == expected

    @pytest.mark.parametrize(
        "graph,k", [("cyclic", 2), ("cyclic", 4), ("tiny_prov", 2), ("tiny_prov", 3)]
    )
    def test_counts_match_oracle(self, request, graph, k):
        """Walk multiplicity survives the kernel's per-hop merge, parallel
        edges and cycles included."""
        g = request.getfixturevalue(graph)
        expected = _duckdb_scalar(_walk_count_sql(k), edges=g.edges.toPandas())
        assert khop_walk_count(g.edges, k) == expected

    def test_cycle_loops_excluded_vs_included(self, cyclic):
        # The triangle contributes closed 3-walks: 0→1→2→0 etc.
        with_loops = khop_walk_count(cyclic.edges, 3, exclude_loops=False)
        without = khop_walk_count(cyclic.edges, 3, exclude_loops=True)
        assert with_loops == without + 3

    def test_empty_graph(self, spark):
        import pandas as pd

        from repro.engine import graph_from_pandas

        g = graph_from_pandas(
            spark,
            pd.DataFrame({"id": [1], "vtype": ["Vertex"]}),
            pd.DataFrame({"src": [], "dst": [], "etype": []}, dtype=object).assign(
                src=pd.array([], dtype="int64"), dst=pd.array([], dtype="int64")
            ),
        )
        assert khop_walk_count(g.edges, 2) == 0


class TestPairsWithMax:
    @pytest.mark.parametrize("lo,hi", [(1, 2), (1, 4), (2, 3)])
    def test_fig3_max_ts(self, fig3, fig3_pdf, lo, hi):
        _, edges = fig3_pdf
        assert_equivalent(
            khop_pairs_with_max(fig3.edges, lo, hi),
            max_ts_sql(lo, hi),
            edges=edges,
        )

    @pytest.mark.parametrize("lo,hi", [(1, 3), (1, 5)])
    def test_cyclic_max_ts(self, cyclic, cyclic_pdf, lo, hi):
        _, edges = cyclic_pdf
        assert_equivalent(
            khop_pairs_with_max(cyclic.edges, lo, hi),
            max_ts_sql(lo, hi),
            edges=edges,
        )

    def test_zero_lower_rejected(self, fig3):
        with pytest.raises(ValueError):
            khop_pairs_with_max(fig3.edges, 0, 2)


# (graph, lower, upper, edge type, source type, destination type)
PUSHDOWN_CASES = [
    ("fig3", 0, 4, None, "File", "File"),  # *0..U
    ("fig3", 2, 4, None, "Job", "Job"),  # lower > 1
    ("fig3", 1, 3, "WRITES_TO", "Job", None),  # typed-edge path
    ("fig3", 1, 3, None, "Machine", "Job"),  # no vertex of the source type
    ("cyclic", 0, 3, None, "Vertex", "Vertex"),
    ("cyclic", 2, 5, "LINK", None, "Vertex"),
    ("cyclic", 1, 2, None, "Job", None),  # no vertex of the source type
    ("tiny_prov", 1, 4, None, "Job", "Job"),
    ("tiny_prov", 0, 3, "TRANSFERS_TO", "Task", "Task"),
    ("tiny_prov", 2, 3, None, "Task", "Machine"),
]


class TestEndpointPushdown:
    """Endpoint types pushed into the expansion equal the same expansion
    restricted afterwards."""

    @pytest.mark.parametrize("graph,lo,hi,etype,st,dt", PUSHDOWN_CASES)
    def test_var_length_pairs(self, request, graph, lo, hi, etype, st, dt):
        g = request.getfixturevalue(graph)
        edges = g.typed_edges(etype)
        pushed = var_length_pairs(
            edges, lo, hi, zero_vertices=g.vertices,
            sources=_typed(g, st), targets=_typed(g, dt),
        )
        after = restrict_endpoints(
            var_length_pairs(edges, lo, hi, zero_vertices=g.vertices),
            g.vertices, st, dt,
        )
        got = _rows(pushed, "src", "dst")
        assert got == _rows(after, "src", "dst")
        present = set(g.vertex_types())
        assert bool(got) == ({st, dt} - {None} <= present)

    @pytest.mark.parametrize("graph,lo,hi,etype,st,dt", PUSHDOWN_CASES)
    def test_max_carry(self, request, graph, lo, hi, etype, st, dt):
        g = request.getfixturevalue(graph)
        edges = g.typed_edges(etype)
        lo = max(lo, 1)
        pushed = expand(
            edges, lo, hi, carry="max", sources=_typed(g, st), targets=_typed(g, dt)
        )
        after = restrict_endpoints(
            khop_pairs_with_max(edges, lo, hi), g.vertices, st, dt
        )
        assert _rows(pushed, "src", "dst", "m") == _rows(after, "src", "dst", "m")


def _plan_leaves(plan):
    """Leaf operators of a physical plan. A cached relation's own plan is
    not a child of its scan, so it does not appear."""
    kids = plan.children()
    if kids.isEmpty():
        yield plan
    for i in range(kids.size()):
        yield from _plan_leaves(kids.apply(i))


class TestReadsMaterializedView:
    def test_multihop_view_scanned_not_rederived(self, spark, fig3, monkeypatch):
        """A traversal over a materialized 2-hop connector reads the cached
        view, once. Every plan it executes bottoms out in that cache scan
        or in checkpoints the traversal made itself, never in the
        checkpoints, joins and aggregates that built the view."""
        # Static plans, as the benchmark session runs them: adaptive
        # execution would run each stage while its checkpoint is planned.
        adaptive = spark.conf.get("spark.sql.adaptive.enabled")
        spark.conf.set("spark.sql.adaptive.enabled", "false")
        view = materialize(khop_connector(fig3, 2, "Job", "Job"))
        try:
            before = spark.sparkContext.emptyRDD().id()
            frame_type = type(view.edges)
            plans = []
            checkpoint = frame_type.localCheckpoint

            def recording(df, *args, **kwargs):
                plans.append(df._jdf.queryExecution().executedPlan())
                return checkpoint(df, *args, **kwargs)

            monkeypatch.setattr(frame_type, "localCheckpoint", recording)
            out = var_length_pairs(view.edges, 1, 3)
            plans.append(out._jdf.queryExecution().executedPlan())
            monkeypatch.undo()

            cache_scans, foreign = 0, []
            for plan in plans:
                for leaf in _plan_leaves(plan):
                    kind = leaf.getClass().getSimpleName()
                    if kind == "InMemoryTableScanExec":
                        cache_scans += 1
                    elif not (
                        kind == "ReusedExchangeExec"
                        or kind == "RDDScanExec" and leaf.rdd().id() > before
                    ):
                        foreign.append(leaf.toString())
            assert foreign == []
            assert cache_scans == 1

            assert_equivalent(
                out, var_length_sql(1, 3), edges=view.edges.toPandas()
            )
        finally:
            spark.conf.set("spark.sql.adaptive.enabled", adaptive)
            view.unpersist()


class TestRestrictEndpoints:
    def test_both_types(self, fig3):
        pairs = fig3.edges.select("src", "dst")
        jf = restrict_endpoints(pairs, fig3.vertices, "Job", "File")
        assert jf.count() == 4  # the WRITES_TO edges

    def test_none_passthrough(self, fig3):
        pairs = fig3.edges.select("src", "dst")
        assert restrict_endpoints(pairs, fig3.vertices).count() == 8
