"""Tests for connector view materialization (Table I / Fig. 3)."""
import pytest

from repro.engine import EDGE_SCHEMA, khop_pairs_with_max
from repro.oracle import assert_equivalent
from repro.views import (
    khop_connector,
    materialize,
    same_edge_type_connector,
    same_vertex_type_connector,
    source_to_sink_connector,
    upto_khop_connector,
)

from .conftest import max_ts_sql


class TestKhopConnector:
    def test_fig3_job_to_job(self, fig3):
        """Fig. 3(c) left: the job-to-job 2-hop connector view."""
        view = khop_connector(fig3, 2, "Job", "Job")
        got = {(r["src"], r["dst"]) for r in view.edges.collect()}
        assert got == {(1, 2), (1, 3), (2, 4), (3, 4)}

    def test_fig3_file_to_file(self, fig3):
        """Fig. 3(c) right: the file-to-file 2-hop connector view."""
        view = khop_connector(fig3, 2, "File", "File")
        got = {(r["src"], r["dst"]) for r in view.edges.collect()}
        assert got == {(11, 12), (11, 13), (12, 14), (13, 14)}

    def test_vertices_are_anchor_type(self, fig3):
        view = khop_connector(fig3, 2, "Job", "Job")
        assert view.vertex_types() == ["Job"]
        assert view.vertex_count() == 4  # isolated anchors kept (Fig. 3c)

    def test_edge_type_naming_matches_candidate(self, fig3):
        view = khop_connector(fig3, 2, "Job", "Job")
        assert view.edge_types() == ["CONN2_Job_Job"]

    def test_ts_is_max_along_path(self, fig3):
        # j1 -w(ts=1)-> f1 -r(ts=2)-> j2  => connector ts = 2
        view = khop_connector(fig3, 2, "Job", "Job")
        row = view.edges.where("src = 1 AND dst = 2").collect()[0]
        assert row["ts"] == 2

    def test_parallel_paths_contract_to_one_edge(self, fig3):
        # j1 -> f1 -> j2/j3 ... j1->j4 via f2 AND f3 at k=4: one edge.
        view = khop_connector(fig3, 4, "Job", "Job")
        rows = view.edges.where("src = 1 AND dst = 4").collect()
        assert len(rows) == 1
        assert rows[0]["ts"] == 7  # max over both 4-hop paths' edges

    def test_mixed_type_connector(self, fig3):
        view = khop_connector(fig3, 3, "Job", "File")
        got = {(r["src"], r["dst"]) for r in view.edges.collect()}
        # 3-hop Job->File: j1->f1->j2->f2, j1->f1->j3->f3, j2->f2->j4->f4...
        assert (1, 12) in got and (1, 13) in got and (2, 14) in got

    def test_untyped_matches_oracle(self, cyclic, cyclic_pdf):
        _, edges = cyclic_pdf
        view = khop_connector(cyclic, 2)
        assert_equivalent(
            view.edges.selectExpr("src", "dst", "ts AS m"),
            max_ts_sql(2, 2),
            edges=edges,
        )

    def test_k_zero_rejected(self, fig3):
        with pytest.raises(ValueError):
            khop_connector(fig3, 0, "Job", "Job")

    def test_materialize_pins_and_counts(self, fig3):
        view = materialize(khop_connector(fig3, 2, "Job", "Job"))
        assert view.edge_count() == 4
        view.unpersist()


class TestUptoKhopConnector:
    def test_matches_oracle(self, cyclic, cyclic_pdf):
        _, edges = cyclic_pdf
        view = upto_khop_connector(cyclic, 2)
        assert_equivalent(
            view.edges.selectExpr("src", "dst", "ts AS m"),
            max_ts_sql(1, 2),
            edges=edges,
        )

    def test_keeps_all_vertices(self, cyclic):
        assert upto_khop_connector(cyclic, 2).vertex_count() == 5

    def test_k1_equals_edge_dedup(self, fig3):
        view = upto_khop_connector(fig3, 1)
        assert view.edge_count() == 8


class TestSameVertexTypeConnector:
    def test_fig3_jobs_equals_2hop(self, fig3):
        """On the bipartite lineage graph, job-to-job contraction through
        non-job interiors is exactly the 2-hop connector."""
        view = same_vertex_type_connector(fig3, "Job", max_hops=6)
        got = {(r["src"], r["dst"]) for r in view.edges.collect()}
        assert got == {(1, 2), (1, 3), (2, 4), (3, 4)}

    def test_interior_must_be_other_type(self, fig3):
        """Job-to-job paths *through another job* are not contracted:
        j1→j4 exists via j2 (4 hops, interior contains j2) — excluded."""
        view = same_vertex_type_connector(fig3, "Job", max_hops=6)
        got = {(r["src"], r["dst"]) for r in view.edges.collect()}
        assert (1, 4) not in got

    def test_files(self, fig3):
        view = same_vertex_type_connector(fig3, "File", max_hops=6)
        got = {(r["src"], r["dst"]) for r in view.edges.collect()}
        assert got == {(11, 12), (11, 13), (12, 14), (13, 14)}


class TestSameEdgeTypeConnector:
    def test_link_paths(self, cyclic):
        view = same_edge_type_connector(cyclic, "LINK", max_hops=2)
        got = {(r["src"], r["dst"]) for r in view.edges.collect()}
        # all 1..2-hop LINK pairs
        assert (0, 1) in got and (0, 2) in got and (1, 4) in got

    def test_only_matching_edge_type_traversed(self, fig3):
        view = same_edge_type_connector(fig3, "WRITES_TO", max_hops=4)
        # WRITES_TO edges never chain (Job->File only): 1-hop pairs only.
        assert view.edge_count() == 4

    def test_vertices_touched_only(self, fig3):
        view = same_edge_type_connector(fig3, "WRITES_TO", max_hops=2)
        assert view.vertex_count() == 8  # every vertex touches a W edge
        view2 = same_edge_type_connector(fig3, "IS_READ_BY", max_hops=2)
        got = {r["id"] for r in view2.vertices.collect()}
        assert 14 not in got  # f4 is never read


class TestSourceToSinkConnector:
    def test_fig3(self, fig3):
        view = source_to_sink_connector(fig3, max_hops=8)
        got = {(r["src"], r["dst"]) for r in view.edges.collect()}
        # source j1 (no in-edges) to sink f4 (no out-edges), 5 hops.
        assert got == {(1, 14)}

    def test_vertices_are_endpoints(self, fig3):
        view = source_to_sink_connector(fig3, max_hops=8)
        got = {r["id"] for r in view.vertices.collect()}
        assert got == {1, 14}

    def test_max_hops_bound_respected(self, fig3):
        view = source_to_sink_connector(fig3, max_hops=3)
        assert view.edge_count() == 0


@pytest.mark.parametrize(
    "build",
    [
        lambda g: khop_connector(g, 2, "Job", "Job"),
        lambda g: upto_khop_connector(g, 2),
        lambda g: same_vertex_type_connector(g, "Job", max_hops=6),
        lambda g: same_edge_type_connector(g, "WRITES_TO", max_hops=2),
        lambda g: source_to_sink_connector(g, max_hops=8),
    ],
    ids=["khop", "upto_khop", "same_vertex_type", "same_edge_type", "source_to_sink"],
)
def test_view_edges_are_in_core_schema(fig3, build):
    """A connector is a graph like the one it contracts (§ VI-A): its
    edges have exactly the core edge columns."""
    assert build(fig3).edges.columns == EDGE_SCHEMA.fieldNames()
