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
    """``expand`` over a range of hop lengths, ``*0..U`` included."""

    @pytest.mark.parametrize("lo,hi", [(1, 1), (1, 2), (2, 4), (1, 4)])
    def test_fig3_ranges(self, fig3, fig3_pdf, lo, hi):
        _, edges = fig3_pdf
        assert_equivalent(
            expand(fig3.edges, lo, hi),
            var_length_sql(lo, hi),
            edges=edges,
        )

    @pytest.mark.parametrize("lo,hi", [(1, 3), (2, 5)])
    def test_cyclic_ranges(self, cyclic, cyclic_pdf, lo, hi):
        _, edges = cyclic_pdf
        assert_equivalent(
            expand(cyclic.edges, lo, hi),
            var_length_sql(lo, hi),
            edges=edges,
        )

    def test_zero_lower_includes_identity(self, fig3, fig3_pdf):
        """``sources`` anchors the zero-length walks and starts the others."""
        vertices, edges = fig3_pdf
        files = fig3.typed_vertices("File").select("id")
        walks = var_length_sql(0, 2, zero_pred="vtype = 'File'")
        assert_equivalent(
            expand(fig3.edges, 0, 2, sources=files),
            f"""SELECT * FROM ({walks})
                WHERE src IN (SELECT id FROM vertices WHERE vtype = 'File')""",
            edges=edges,
            vertices=vertices,
        )

    def test_zero_lower_requires_vertices(self, fig3):
        with pytest.raises(ValueError):
            expand(fig3.edges, 0, 2)

    def test_zero_lower_rejects_carry(self, fig3):
        """A zero-length walk has no edge to carry a value from."""
        for carry in ("max", "count"):
            with pytest.raises(ValueError):
                expand(fig3.edges, 0, 2, carry=carry, sources=fig3.vertices)

    def test_upper_zero_identity_only(self, fig3):
        files = fig3.typed_vertices("File").select("id")
        out = expand(fig3.edges, 0, 0, sources=files)
        assert out.columns == ["src", "dst"]
        assert _rows(out, "src", "dst") == {(i, i) for i in (11, 12, 13, 14)}

    def test_identity_kept_only_at_targets(self, fig3):
        """A zero-length walk ends where it starts: it is emitted only
        where its source is a target."""
        job_and_file = fig3.vertices.where(F.col("id").isin(1, 11))
        files = fig3.typed_vertices("File")
        for upper, want in ((0, {(11, 11)}), (1, {(1, 11), (11, 11)})):
            out = expand(fig3.edges, 0, upper, sources=job_and_file, targets=files)
            assert _rows(out, "src", "dst") == want


class TestWalkCount:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_fig3_counts(self, fig3, fig3_pdf, k):
        _, edges = fig3_pdf
        expected = _duckdb_scalar(_walk_count_sql(k), edges=edges)
        assert khop_walk_count(fig3.edges, k) == expected

    @pytest.mark.parametrize(
        "graph,k",
        [("cyclic", 2), ("cyclic", 3), ("cyclic", 4), ("tiny_prov", 2), ("tiny_prov", 3)],
    )
    def test_counts_match_oracle(self, request, graph, k):
        """Walk multiplicity survives the kernel's per-hop merge, parallel
        edges and cycles included. Closed walks are dropped: the triangle
        in ``cyclic`` has three closed 3-walks (0→1→2→0 and rotations)."""
        g = request.getfixturevalue(graph)
        expected = _duckdb_scalar(_walk_count_sql(k), edges=g.edges.toPandas())
        assert khop_walk_count(g.edges, k) == expected

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
        pushed = expand(
            edges, lo, hi, sources=g.typed_vertices(st), targets=_typed(g, dt)
        )
        after = restrict_endpoints(
            expand(edges, lo, hi, sources=g.vertices), g.vertices, st, dt
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


def _plan_nodes(plan):
    """Every operator of a physical plan. A cached relation's own plan is
    not a child of its scan, so it does not appear."""
    yield plan
    kids = plan.children()
    for i in range(kids.size()):
        yield from _plan_nodes(kids.apply(i))


def _kinds(plan):
    return [node.getClass().getSimpleName() for node in _plan_nodes(plan)]


@pytest.fixture
def static_plans(spark):
    """Static plans, as the benchmark session runs them: adaptive
    execution would run each stage while its checkpoint is planned."""
    adaptive = spark.conf.get("spark.sql.adaptive.enabled")
    spark.conf.set("spark.sql.adaptive.enabled", "false")
    yield
    spark.conf.set("spark.sql.adaptive.enabled", adaptive)


def _recorded_plans(spark, monkeypatch, build):
    """``build()``'s frame, and the executed plan of every frame it
    local-checkpoints, in order, followed by its own."""
    frame_type = type(spark.range(0))
    plans = []
    checkpoint = frame_type.localCheckpoint

    def recording(df, *args, **kwargs):
        plans.append(df._jdf.queryExecution().executedPlan())
        return checkpoint(df, *args, **kwargs)

    monkeypatch.setattr(frame_type, "localCheckpoint", recording)
    out = build()
    plans.append(out._jdf.queryExecution().executedPlan())
    monkeypatch.undo()
    return out, plans


class TestReadsMaterializedView:
    def test_multihop_view_scanned_not_rederived(
        self, spark, fig3, monkeypatch, static_plans
    ):
        """A traversal over a materialized 2-hop connector reads the cached
        view, once. Every plan it executes bottoms out in that cache scan
        or in checkpoints the traversal made itself, never in the
        checkpoints, joins and aggregates that built the view."""
        view = materialize(khop_connector(fig3, 2, "Job", "Job"))
        try:
            before = spark.sparkContext.emptyRDD().id()
            out, plans = _recorded_plans(
                spark, monkeypatch, lambda: expand(view.edges, 1, 3)
            )

            cache_scans, foreign = 0, []
            for plan in plans:
                for leaf in _plan_nodes(plan):
                    if not leaf.children().isEmpty():
                        continue
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
            view.unpersist()


def _filtered_sql(upper: int) -> str:
    """Oracle for the filtered expansion in :class:`TestHopPlanShape`:
    walks of 1..upper edges from 0 or 1, continuing only from vertices
    other than 2, that end at 0 or 4."""
    return f"""
    WITH RECURSIVE walk(src, dst, k) AS (
        SELECT src, dst, 1 FROM edges WHERE src IN (0, 1)
        UNION ALL
        SELECT w.src, e.dst, w.k + 1 FROM walk w JOIN edges e ON w.dst = e.src
        WHERE w.k < {upper} AND w.dst <> 2
    )
    SELECT DISTINCT src, dst FROM walk WHERE dst IN (0, 4)
    """


class TestHopPlanShape:
    """Walks stay partitioned by their source, so no hop moves a row: the
    adjacency is the one exchange of an expansion, and every hop and
    filter joins the broadcast side in place, even though the session
    turns size-based broadcast joins off."""

    @pytest.mark.parametrize("case", ["plain", "max", "filtered"])
    def test_one_exchange_builds_the_adjacency(
        self, spark, cyclic, monkeypatch, static_plans, case
    ):
        assert spark.conf.get("spark.sql.autoBroadcastJoinThreshold") == "-1"
        ids = lambda *v: cyclic.vertices.where(F.col("id").isin(*v))  # noqa: E731
        kwargs = {
            "plain": {},
            "max": {"carry": "max"},
            "filtered": {
                "sources": ids(0, 1),
                "through": cyclic.vertices.where(F.col("id") != 2),
                "targets": ids(0, 4),
            },
        }[case]
        out, plans = _recorded_plans(
            spark, monkeypatch, lambda: expand(cyclic.edges, 1, 4, **kwargs)
        )
        adjacency, first, *hops, result = (_kinds(p) for p in plans)
        assert len(hops) == 3
        assert adjacency.count("ShuffleExchangeExec") == 1
        for plan in (first, *hops, result):
            assert "ShuffleExchangeExec" not in plan
        for hop in hops:
            assert "BroadcastHashJoinExec" in hop

        edges = cyclic.edges.toPandas()
        if case == "plain":
            assert_equivalent(out.select("src", "dst"), var_length_sql(1, 4), edges=edges)
        elif case == "max":
            assert_equivalent(out.select("src", "dst", "m"), max_ts_sql(1, 4), edges=edges)
        else:
            assert_equivalent(out, _filtered_sql(4), edges=edges)

    def test_zero_length_walks_keyed_by_source(
        self, spark, cyclic, cyclic_pdf, monkeypatch, static_plans
    ):
        """``lower = 0`` adds one exchange, which partitions the zero-length
        walks (one row per source) by ``src``: the union with the walks of
        length 1..U and its merge move no walk."""
        out, plans = _recorded_plans(
            spark, monkeypatch, lambda: expand(cyclic.edges, 0, 4, sources=cyclic.vertices)
        )
        exchanges = [
            node for node in _plan_nodes(plans[-1])
            if node.getClass().getSimpleName() == "ShuffleExchangeExec"
        ]
        assert len(exchanges) == 1
        assert "UnionExec" not in _kinds(exchanges[0])
        vertices, edges = cyclic_pdf
        assert_equivalent(out, var_length_sql(0, 4), edges=edges, vertices=vertices)


class TestRestrictEndpoints:
    def test_both_types(self, fig3):
        pairs = fig3.edges.select("src", "dst")
        jf = restrict_endpoints(pairs, fig3.vertices, "Job", "File")
        assert jf.count() == 4  # the WRITES_TO edges

    def test_none_passthrough(self, fig3):
        pairs = fig3.edges.select("src", "dst")
        assert restrict_endpoints(pairs, fig3.vertices).count() == 8
