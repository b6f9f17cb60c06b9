"""Fidelity tests for the Listing-5 summarizer/aggregator templates
running on the inference engine (sum/3, queryVertexKHopNbors,
kHopNborsAggregator, removal templates) — the paper's example:
"aggregate all 1-hop neighbors as sum of their bytes:
 kHopNborsAggregator(1, j2, 'bytes', sum, R)".
"""
import pytest

from repro.core import BLAST_RADIUS_MATCH, PROVENANCE_CORE, PROVENANCE_FULL, parse_match
from repro.core.rules import build_engine
from repro.prolog import Var, s


@pytest.fixture(scope="module")
def eng():
    """Engine over the Fig. 3 micro graph expressed as query facts:
    j1-w->f1, f1-r->j2, f1-r->j3, j2-w->f2, plus byte properties."""
    pattern = parse_match(
        "MATCH (j1:Job)-[:WRITES_TO]->(f1:File), "
        "(f1)-[:IS_READ_BY]->(j2:Job), (f1)-[:IS_READ_BY]->(j3:Job), "
        "(j2)-[:WRITES_TO]->(f2:File) RETURN j1, j2"
    )
    extra = [
        s("property", "bytes", "f1", 100),
        s("property", "bytes", "f2", 50),
        s("property", "bytes", "j1", 7),
        # j2, j3 have no 'bytes' property — convlist must skip them.
    ]
    eng = build_engine(pattern, PROVENANCE_CORE)
    eng.add_facts(extra)
    return eng


class TestSumRule:
    def test_sum(self, eng):
        rows = eng.query(s("sum", 2, 3, Var("R")))
        assert rows == [{"R": 5}]


class TestKHopNeighbors:
    def test_one_hop_neighbors_of_f1(self, eng):
        rows = eng.query(s("queryVertexKHopNbors", 1, "f1", Var("L")))
        assert rows[0]["L"] == ["j1", "j2", "j3"]

    def test_one_hop_neighbors_of_j2(self, eng):
        rows = eng.query(s("queryVertexKHopNbors", 1, "j2", Var("L")))
        assert rows[0]["L"] == ["f1", "f2"]

    def test_two_hop_neighbors_of_j1(self, eng):
        rows = eng.query(s("queryVertexKHopNbors", 2, "j1", Var("L")))
        assert rows[0]["L"] == ["j2", "j3"]


class TestKHopNborsAggregator:
    def test_paper_example_shape(self, eng):
        """Sum the 'bytes' of j2's 1-hop neighborhood: f1 (100) + f2 (50)."""
        rows = eng.query(
            s("kHopNborsAggregator", 1, "j2", "bytes", "sum", Var("R"))
        )
        assert rows[0]["R"] == 150

    def test_neighbors_without_property_skipped(self, eng):
        # f1's neighbors are j1 (bytes=7), j2, j3 (no bytes) → sum = 7.
        rows = eng.query(
            s("kHopNborsAggregator", 1, "f1", "bytes", "sum", Var("R"))
        )
        assert rows[0]["R"] == 7

    def test_empty_neighborhood_sums_to_zero(self, eng):
        rows = eng.query(
            s("kHopNborsAggregator", 1, "j1", "missing_prop", "sum", Var("R"))
        )
        assert rows[0]["R"] == 0


class TestRemovalTemplates:
    def test_vertex_removal_full_schema(self):
        blast = parse_match(BLAST_RADIUS_MATCH)
        eng = build_engine(blast, PROVENANCE_FULL)
        rows = eng.query(s("summarizerVertexRemoval", Var("T")))
        assert {r["T"] for r in rows} == {"Task", "Machine", "User"}

    def test_edge_removal_full_schema(self):
        blast = parse_match(BLAST_RADIUS_MATCH)
        eng = build_engine(blast, PROVENANCE_FULL)
        rows = eng.query(s("summarizerEdgeRemoval", Var("T")))
        got = {r["T"] for r in rows}
        assert "HAS_TASK" in got and "WRITES_TO" not in got

    def test_vertex_inclusion(self):
        blast = parse_match(BLAST_RADIUS_MATCH)
        eng = build_engine(blast, PROVENANCE_FULL)
        rows = eng.query(s("summarizerVertexInclusion", Var("T")))
        assert {r["T"] for r in rows} == {"Job", "File"}
