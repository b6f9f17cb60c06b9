"""Tests for the PropertyGraph container and Spark-side graph stats."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.estimator import collect_stats
from repro.engine import PropertyGraph, graph_from_pandas
from repro.oracle import assert_equivalent


class TestPropertyGraph:
    def test_core_columns_enforced(self, spark):
        v = spark.createDataFrame(pd.DataFrame({"id": [1]}))
        e = spark.createDataFrame(pd.DataFrame({"src": [1], "dst": [1]}))
        with pytest.raises(ValueError, match="missing core columns"):
            PropertyGraph(vertices=v, edges=e)

    def test_counts(self, fig3):
        assert fig3.vertex_count() == 8
        assert fig3.edge_count() == 8

    def test_vertex_types(self, fig3):
        assert fig3.vertex_types() == ["File", "Job"]

    def test_edge_types(self, fig3):
        assert fig3.edge_types() == ["IS_READ_BY", "WRITES_TO"]

    def test_typed_vertices(self, fig3):
        assert fig3.typed_vertices("Job").count() == 4
        assert fig3.typed_vertices(None).count() == 8

    def test_typed_edges(self, fig3):
        assert fig3.typed_edges("WRITES_TO").count() == 4

    def test_counts_against_oracle(self, fig3, fig3_pdf):
        vertices, edges = fig3_pdf
        assert_equivalent(
            fig3.vertices.groupBy("vtype").agg(F.count("*").alias("n")),
            "SELECT vtype, COUNT(*) AS n FROM vertices GROUP BY vtype",
            vertices=vertices,
        )
        assert_equivalent(
            fig3.edges.groupBy("etype").agg(F.count("*").alias("n")),
            "SELECT etype, COUNT(*) AS n FROM edges GROUP BY etype",
            edges=edges,
        )

    def test_referential_integrity_ok(self, fig3):
        fig3.validate_referential_integrity()

    def test_referential_integrity_catches_dangling(self, spark):
        g = graph_from_pandas(
            spark,
            pd.DataFrame({"id": [1], "vtype": ["Job"]}),
            pd.DataFrame({"src": [1], "dst": [99], "etype": ["X"]}),
        )
        with pytest.raises(AssertionError, match="dangling"):
            g.validate_referential_integrity()

    def test_graph_from_pandas_fills_missing_props(self, spark):
        g = graph_from_pandas(
            spark,
            pd.DataFrame({"id": [1], "vtype": ["Job"]}),
            pd.DataFrame({"src": [1], "dst": [1], "etype": ["X"]}),
        )
        assert set(g.vertices.columns) == {"id", "vtype", "cpu", "pname"}
        assert set(g.edges.columns) == {"src", "dst", "etype", "ts"}


class TestCollectStats:
    """§ V-A graph data properties: per-type cardinality and out-degree
    percentiles (zero-out-degree vertices included)."""

    def test_fig3_cardinalities(self, fig3):
        stats = collect_stats(fig3)
        assert stats.n_vertices == 8 and stats.n_edges == 8
        assert stats.per_type["Job"].n_vertices == 4
        assert stats.per_type["File"].n_vertices == 4

    def test_fig3_out_degrees(self, fig3):
        stats = collect_stats(fig3)
        # Jobs: j1,j2,j3 write 1 file each, j4 writes 1 -> all degree 1.
        assert stats.per_type["Job"].deg(100) == 1.0
        assert stats.per_type["Job"].deg(50) == 1.0
        # Files: f1 read by 2 jobs, f2/f3 by 1, f4 by 0.
        assert stats.per_type["File"].deg(100) == 2.0

    def test_zero_degree_vertices_counted(self, fig3):
        stats = collect_stats(fig3)
        # f4 has out-degree 0 → the File 50th percentile is pulled to 1.
        assert stats.per_type["File"].deg(50) <= 1.0

    def test_source_type_flags(self, fig3):
        stats = collect_stats(fig3)
        assert stats.per_type["Job"].is_source
        assert stats.per_type["File"].is_source

    def test_heterogeneous_flag(self, fig3, cyclic):
        assert collect_stats(fig3).is_heterogeneous
        assert not collect_stats(cyclic).is_heterogeneous

    def test_non_source_type_flagged(self, spark):
        g = graph_from_pandas(
            spark,
            pd.DataFrame({"id": [1, 2], "vtype": ["A", "B"]}),
            pd.DataFrame({"src": [1], "dst": [2], "etype": ["x"]}),
        )
        stats = collect_stats(g)
        assert stats.per_type["A"].is_source
        assert not stats.per_type["B"].is_source

    @pytest.mark.parametrize("name", ["tiny_prov", "tiny_dblp"])
    def test_counts_and_source_types_match_pandas(self, name, request):
        g = request.getfixturevalue(name)
        vertices, edges = g.vertices.toPandas(), g.edges.toPandas()
        stats = collect_stats(g)
        assert stats.n_vertices == len(vertices)
        assert stats.n_edges == len(edges)
        assert {t: ts.n_vertices for t, ts in stats.per_type.items()} == (
            vertices["vtype"].value_counts().to_dict()
        )
        sources = set(vertices.loc[vertices["id"].isin(edges["src"]), "vtype"])
        assert {t for t, ts in stats.per_type.items() if ts.is_source} == sources
