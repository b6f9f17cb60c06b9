"""Workload tests (Table IV): Q1–Q8 correctness and the § V-C
equivalence — every rewritten query must return exactly the baseline
result. Baselines are additionally oracle-checked against DuckDB.
"""
from dataclasses import replace

import pytest
from pyspark.sql import functions as F

from repro.oracle import assert_equivalent
from repro.views import keep_vertex_types
from repro.workload import (
    build_connector,
    dblp_spec,
    homogeneous_spec,
    prov_spec,
    q1_blast_radius,
    q2_ancestors,
    q3_descendants,
    q4_path_lengths,
    q5_edge_count,
    q6_vertex_count,
    q7_communities,
    q8_largest_community,
)

from .conftest import max_ts_sql


@pytest.fixture(scope="module")
def prov_env(tiny_prov):
    spec = prov_spec()
    g = keep_vertex_types(tiny_prov, {"Job", "File"}).persist()
    g.edges.count()
    conn = build_connector(g, spec.view)
    yield g, conn, spec
    g.unpersist()
    conn.unpersist()


@pytest.fixture(scope="module")
def dblp_env(tiny_dblp):
    spec = dblp_spec()
    g = keep_vertex_types(
        tiny_dblp, {"Author", "Article", "Inproc", "Publication"}
    ).persist()
    g.edges.count()
    conn = build_connector(g, spec.view)
    yield g, conn, spec
    g.unpersist()
    conn.unpersist()


@pytest.fixture(scope="module")
def soc_env(spark):
    from repro.datasets import social

    spec = homogeneous_spec("soc")
    g = social(spark, scale=0.04).persist()
    g.edges.count()
    conn = build_connector(g, spec.view)
    yield g, conn, spec
    g.unpersist()
    conn.unpersist()


@pytest.fixture(scope="module")
def road_env(spark):
    from repro.datasets import roadnet

    spec = homogeneous_spec("roadnet")
    g = roadnet(spark, scale=0.03).persist()
    g.edges.count()
    conn = build_connector(g, spec.view)
    yield g, conn, spec
    g.unpersist()
    conn.unpersist()


def _env(request, name):
    return request.getfixturevalue(name)


HET_ENVS = ["prov_env", "dblp_env"]
ALL_ENVS = ["prov_env", "dblp_env", "soc_env", "road_env"]


@pytest.mark.parametrize(
    "graph,spec", [("fig3", prov_spec()), ("cyclic", homogeneous_spec("cyclic"))]
)
def test_view_carries_its_candidates_edge_type(request, graph, spec):
    """A rewriting reads the edge type its candidate names, and the
    connector builder names the edges it writes: the two must agree, or
    every rewritten query reads no edges. Covers a ``khop`` and an
    ``upto_khop`` candidate."""
    conn = build_connector(request.getfixturevalue(graph), spec.view)
    assert conn.edge_types() == [spec.view.edge_type]
    conn.unpersist()


class TestQ1:
    @pytest.mark.parametrize("env", HET_ENVS)
    def test_view_equivalence(self, request, env):
        """§ V-C / § VII-C: Q1 rewritten over the 2-hop connector returns
        the same rows as over the base graph."""
        g, conn, spec = _env(request, env)
        base = q1_blast_radius(g, spec)
        view = q1_blast_radius(conn, spec, spec.view)
        assert_equivalent(view, "SELECT * FROM ref", ref=base)

    def test_prov_baseline_against_duckdb(self, prov_env):
        """Oracle check of the full hybrid query (match + aggregate)."""
        g, _conn, spec = prov_env
        vertices = g.vertices.toPandas()
        edges = g.edges.toPandas()
        base = q1_blast_radius(g, spec)
        assert_equivalent(
            base,
            """
            WITH RECURSIVE ff(src, dst, k) AS (
                SELECT id, id, 0 FROM vertices WHERE vtype = 'File'
                UNION ALL
                SELECT ff.src, e.dst, ff.k + 1 FROM ff
                JOIN edges e ON ff.dst = e.src WHERE ff.k < 8
            ),
            fp AS (
                SELECT DISTINCT ff.src, ff.dst FROM ff
                JOIN vertices v ON ff.dst = v.id AND v.vtype = 'File'
            ),
            pairs AS (
                SELECT DISTINCT w.src AS A, r.dst AS B FROM edges w
                JOIN fp ON w.dst = fp.src AND w.etype = 'WRITES_TO'
                JOIN edges r ON fp.dst = r.src AND r.etype = 'IS_READ_BY'
            ),
            per_pair AS (
                SELECT p.A, va.pname, vb.cpu AS t FROM pairs p
                JOIN vertices va ON p.A = va.id
                JOIN vertices vb ON p.B = vb.id
            )
            SELECT pname AS pipeline, AVG(t) AS avg_cpu
            FROM per_pair GROUP BY pname
            """,
            vertices=vertices,
            edges=edges,
        )

    def test_q1_rejects_homogeneous(self, soc_env):
        g, _conn, spec = soc_env
        with pytest.raises(ValueError):
            q1_blast_radius(g, spec)


class TestQ2Q3:
    @pytest.mark.parametrize("env", ALL_ENVS)
    def test_q2_view_equivalence(self, request, env):
        g, conn, spec = _env(request, env)
        base = q2_ancestors(g, spec)
        view = q2_ancestors(conn, spec, spec.view)
        assert_equivalent(view, "SELECT * FROM ref", ref=base)

    @pytest.mark.parametrize("env", ALL_ENVS)
    def test_q3_view_equivalence(self, request, env):
        g, conn, spec = _env(request, env)
        base = q3_descendants(g, spec)
        view = q3_descendants(conn, spec, spec.view)
        assert_equivalent(view, "SELECT * FROM ref", ref=base)

    def test_view_without_rewriting_raises(self, prov_env):
        """A 4-hop connector loses the 2-hop pairs: no rewriting, no run."""
        _g, conn, spec = prov_env
        with pytest.raises(ValueError, match="admits no rewriting"):
            q3_descendants(conn, spec, replace(spec.view, k=4))

    def test_q3_prov_against_duckdb(self, prov_env):
        g, _conn, spec = prov_env
        edges = g.edges.toPandas()
        vertices = g.vertices.toPandas()
        assert_equivalent(
            q3_descendants(g, spec),
            """
            WITH RECURSIVE walk(src, dst, k) AS (
                SELECT src, dst, 1 FROM edges
                UNION ALL
                SELECT w.src, e.dst, w.k + 1 FROM walk w
                JOIN edges e ON w.dst = e.src WHERE w.k < 4
            )
            SELECT DISTINCT w.src AS v, w.dst AS descendant FROM walk w
            JOIN vertices a ON w.src = a.id AND a.vtype = 'Job'
            JOIN vertices b ON w.dst = b.id AND b.vtype = 'Job'
            """,
            edges=edges,
            vertices=vertices,
        )

    def test_q2_is_q3_swapped(self, prov_env):
        g, _conn, spec = prov_env
        q2 = {(r["v"], r["ancestor"]) for r in q2_ancestors(g, spec).collect()}
        q3 = {(r["v"], r["descendant"]) for r in q3_descendants(g, spec).collect()}
        assert q2 == {(b, a) for a, b in q3}


class TestQ4:
    @pytest.mark.parametrize("env", ALL_ENVS)
    def test_view_equivalence(self, request, env):
        """Max composes across contraction — Q4 over the connector is
        exact (not just similar)."""
        g, conn, spec = _env(request, env)
        base = q4_path_lengths(g, spec)
        view = q4_path_lengths(conn, spec, spec.view)
        assert_equivalent(view, "SELECT * FROM ref", ref=base)

    @pytest.mark.parametrize(
        "graph, spec", [("fig3", prov_spec()), ("cyclic", homogeneous_spec("cyclic"))]
    )
    @pytest.mark.parametrize("max_hops", [1, 3, 4])
    def test_endpoint_types_against_duckdb(self, request, graph, spec, max_hops):
        """Q4 passes its endpoint types into the expansion."""
        g = request.getfixturevalue(graph)
        t = spec.anchor_type
        assert_equivalent(
            q4_path_lengths(g, spec, max_hops=max_hops).withColumnRenamed("dist", "m"),
            max_ts_sql(1, max_hops, t, t),
            edges=g.edges.toPandas(),
            vertices=g.vertices.toPandas(),
        )

    def test_road_against_duckdb(self, road_env):
        g, _conn, _spec = road_env
        edges = g.edges.toPandas()
        assert_equivalent(
            q4_path_lengths(g, homogeneous_spec("roadnet")).withColumnRenamed(
                "dist", "m"
            ),
            """
            WITH RECURSIVE walk(src, dst, m, k) AS (
                SELECT src, dst, ts, 1 FROM edges
                UNION ALL
                SELECT w.src, e.dst, GREATEST(w.m, e.ts), w.k + 1
                FROM walk w JOIN edges e ON w.dst = e.src WHERE w.k < 4
            )
            SELECT src, dst, MAX(m) AS m FROM walk GROUP BY src, dst
            """,
            edges=edges,
        )


class TestQ5Q6:
    @pytest.mark.parametrize("env", ALL_ENVS)
    def test_counts_match_graph(self, request, env):
        g, _conn, _spec = _env(request, env)
        assert q5_edge_count(g).collect()[0]["n"] == g.edge_count()
        assert q6_vertex_count(g).collect()[0]["n"] == g.vertex_count()

    def test_oracle(self, prov_env):
        g, _c, _s = prov_env
        assert_equivalent(
            q5_edge_count(g), "SELECT COUNT(*) AS n FROM edges",
            edges=g.edges.toPandas(),
        )
        assert_equivalent(
            q6_vertex_count(g), "SELECT COUNT(*) AS n FROM vertices",
            vertices=g.vertices.toPandas(),
        )


class TestQ7Q8:
    @pytest.mark.parametrize("env", ["prov_env", "road_env"])
    def test_q7_labels_every_vertex(self, request, env):
        g, conn, _spec = _env(request, env)
        labels = q7_communities(g, 2)
        assert labels.count() == g.vertex_count()
        vlabels = q7_communities(conn, 1)
        assert vlabels.count() == conn.vertex_count()

    def test_q8_summary_shape(self, prov_env):
        g, conn, spec = prov_env
        base_labels = q7_communities(g, 4)
        out = q8_largest_community(base_labels, g, spec).collect()
        assert len(out) == 1
        assert out[0]["n_vertices"] >= 1

    def test_q7_view_propagates_at_least_as_fast(self, prov_env):
        """§ VII-C: half the iterations over the connector give 'similar
        groupings of job nodes'. The mechanism: one connector hop covers
        two raw hops, so labels propagate at least as far per iteration.
        We assert that — the view's largest job community is no smaller
        than the half-converged baseline's, and its job-community count
        is no larger."""
        g, conn, spec = prov_env
        base_labels = q7_communities(g, 4)
        view_labels = q7_communities(conn, 2)
        base = q8_largest_community(base_labels, g, spec).collect()[0]
        view = q8_largest_community(view_labels, conn, spec).collect()[0]
        assert base["n_vertices"] >= 2
        assert view["n_vertices"] >= base["n_vertices"]
        jobs = g.typed_vertices("Job").select("id")
        n_base_comms = (
            base_labels.join(jobs, "id").select("community").distinct().count()
        )
        n_view_comms = (
            view_labels.join(jobs, "id").select("community").distinct().count()
        )
        assert n_view_comms <= n_base_comms
