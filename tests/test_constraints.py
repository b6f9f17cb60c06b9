"""Tests for constraint mining: explicit facts (§ IV-A1) and implicit
constraints derived by the mining rules (§ IV-A2)."""
import pytest

from repro.core import (
    BLAST_RADIUS_MATCH,
    DBLP_CORE,
    DBLP_FULL,
    HOMOGENEOUS,
    PROVENANCE_CORE,
    PROVENANCE_FULL,
    parse_match,
    query_facts,
    schema_facts,
)
from repro.core.enumerator import schema_walk_counts
from repro.core.rules import build_engine
from repro.prolog import Var, s

SCHEMAS = (PROVENANCE_CORE, PROVENANCE_FULL, DBLP_CORE, DBLP_FULL, HOMOGENEOUS)


@pytest.fixture(scope="module")
def blast():
    return parse_match(BLAST_RADIUS_MATCH)


@pytest.fixture(scope="module")
def eng(blast):
    return build_engine(blast, PROVENANCE_CORE)


class TestExplicitQueryFacts:
    """§ IV-A1 lists the exact fact set mined from Listing 1 — we verify
    that set verbatim."""

    def test_query_vertices(self, blast):
        facts = {repr(f) for f in query_facts(blast)}
        for v in ["q_f1", "q_f2", "q_j1", "q_j2"]:
            assert f"queryVertex({v!r})" in facts

    def test_query_vertex_types(self, blast):
        facts = set(query_facts(blast))
        assert s("queryVertexType", "q_f1", "File") in facts
        assert s("queryVertexType", "q_f2", "File") in facts
        assert s("queryVertexType", "q_j1", "Job") in facts
        assert s("queryVertexType", "q_j2", "Job") in facts

    def test_query_edges_and_types(self, blast):
        facts = set(query_facts(blast))
        assert s("queryEdge", "q_j1", "q_f1") in facts
        assert s("queryEdge", "q_f2", "q_j2") in facts
        assert s("queryEdgeType", "q_j1", "q_f1", "WRITES_TO") in facts
        assert s("queryEdgeType", "q_f2", "q_j2", "IS_READ_BY") in facts

    def test_variable_length_path_fact(self, blast):
        facts = set(query_facts(blast))
        assert s("queryVariableLengthPath", "q_f1", "q_f2", 0, 8) in facts

    def test_returned_vertices(self, blast):
        facts = set(query_facts(blast))
        assert s("queryReturned", "q_j1") in facts
        assert s("queryReturned", "q_j2") in facts


class TestOneHopPathFacts:
    """A fixed edge is the ``1..1`` path: that element mines the paper's
    edge facts, any other bounds a variable-length-path fact."""

    def test_typed_one_hop_path_is_an_edge(self):
        facts = query_facts(parse_match("MATCH (a:Job)-[:WRITES_TO*1..1]->(b:File)"))
        assert s("queryEdge", "a", "b") in facts
        assert s("queryEdgeType", "a", "b", "WRITES_TO") in facts
        assert not [f for f in facts if f.functor == "queryVariableLengthPath"]

    def test_untyped_fixed_edge_has_no_edge_type(self):
        facts = query_facts(parse_match("MATCH (a)-[]->(b)"))
        assert s("queryEdge", "a", "b") in facts
        assert not [f for f in facts if f.functor == "queryEdgeType"]

    def test_zero_to_eight_is_a_variable_length_path(self):
        facts = query_facts(parse_match("MATCH (a:File)-[r*0..8]->(b:File)"))
        assert s("queryVariableLengthPath", "a", "b", 0, 8) in facts
        assert not [f for f in facts if f.functor in ("queryEdge", "queryEdgeType")]


class TestExplicitSchemaFacts:
    def test_provenance_core_facts(self):
        facts = set(schema_facts(PROVENANCE_CORE))
        assert s("schemaVertex", "Job") in facts
        assert s("schemaVertex", "File") in facts
        assert s("schemaEdge", "Job", "File", "WRITES_TO") in facts
        assert s("schemaEdge", "File", "Job", "IS_READ_BY") in facts
        assert len(facts) == 4

    def test_full_schema_fact_count(self):
        facts = schema_facts(PROVENANCE_FULL)
        assert len(facts) == 5 + 6


class TestSchemaKHopPath:
    """The schemaKHopPath mining rule (Listing 2): parity constraint on
    the bipartite provenance schema."""

    @pytest.mark.parametrize("k", [2, 4, 6, 8, 10])
    def test_even_job_to_job_feasible(self, eng, k):
        assert eng.ask(s("schemaKHopPath", "Job", "Job", k))

    @pytest.mark.parametrize("k", [1, 3, 5, 7, 9])
    def test_odd_job_to_job_infeasible(self, eng, k):
        assert not eng.ask(s("schemaKHopPath", "Job", "Job", k))

    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_even_file_to_file_feasible(self, eng, k):
        assert eng.ask(s("schemaKHopPath", "File", "File", k))

    @pytest.mark.parametrize("k", [1, 3])
    def test_job_to_file_odd_only(self, eng, k):
        assert eng.ask(s("schemaKHopPath", "Job", "File", k))
        assert not eng.ask(s("schemaKHopPath", "File", "Job", k + 1))

    def test_matches_python_twin(self):
        """The enumerator's Prolog ``schemaKHopPath``, the rewriter's
        walk matrix and the Python twin agree on every bundled schema."""
        for schema in SCHEMAS:
            eng = build_engine(None, schema)
            for k in range(1, 11):
                walks = schema_walk_counts(schema, k)
                for src in schema.vertex_types:
                    for dst in schema.vertex_types:
                        want = schema.khop_type_paths(src, dst, k)
                        assert eng.ask(s("schemaKHopPath", src, dst, k)) == want
                        assert (walks[(src, dst)] > 0) == want

    def test_homogeneous_all_k_feasible(self):
        eng = build_engine(None, HOMOGENEOUS)
        for k in range(1, 8):
            assert eng.ask(s("schemaKHopPath", "Vertex", "Vertex", k))

    def test_simple_path_variant_capped_by_type_count(self, eng):
        # The paper-verbatim trail variant only sees simple schema paths:
        # on the 2-type schema nothing beyond k=2 exists.
        assert eng.ask(s("schemaKHopSimplePath", "Job", "Job", 2))
        assert not eng.ask(s("schemaKHopSimplePath", "Job", "Job", 4))


class TestQueryKHopPath:
    """Listing 6 rules over the blast-radius pattern."""

    def test_variable_length_expansion(self, eng):
        ks = {r["K"] for r in eng.query(
            s("queryKHopVariableLengthPath", "q_f1", "q_f2", Var("K")))}
        assert ks == set(range(0, 9))

    def test_end_to_end_hops(self, eng):
        ks = {r["K"] for r in eng.query(s("queryKHopPath", "q_j1", "q_j2", Var("K")))}
        assert ks == set(range(2, 11))

    def test_single_edge_is_one_hop(self, eng):
        ks = {r["K"] for r in eng.query(s("queryKHopPath", "q_j1", "q_f1", Var("K")))}
        assert ks == {1}

    def test_file_to_job_suffix(self, eng):
        ks = {r["K"] for r in eng.query(s("queryKHopPath", "q_f1", "q_j2", Var("K")))}
        assert ks == set(range(1, 10))

    def test_query_path_reachability(self, eng):
        assert eng.ask(s("queryPath", "q_j1", "q_j2"))
        assert not eng.ask(s("queryPath", "q_j2", "q_j1"))


class TestSourceSinkMining:
    def test_source(self, eng):
        # q_j1 is the only pattern vertex with no incoming edge or path.
        rows = eng.query(s("queryVertexSource", Var("X")))
        assert {r["X"] for r in rows} == {"q_j1"}

    def test_sink(self, eng):
        # Variable-length paths count toward degree (DESIGN.md deviation),
        # so q_f1/q_f2 are interior and q_j2 is the only sink.
        rows = eng.query(s("queryVertexSink", Var("X")))
        assert {r["X"] for r in rows} == {"q_j2"}

    def test_degrees(self, eng):
        assert eng.ask(s("queryVertexInDegree", "q_j1", 0))
        assert eng.ask(s("queryVertexOutDegree", "q_j1", 1))
        assert eng.ask(s("queryVertexInDegree", "q_f1", 1))


class TestDblpSchemaConstraints:
    def test_author_to_author_even_hops(self):
        eng = build_engine(None, DBLP_FULL)
        assert eng.ask(s("schemaKHopPath", "Author", "Author", 2))
        assert not eng.ask(s("schemaKHopPath", "Author", "Author", 3))

    def test_venue_is_terminal(self):
        eng = build_engine(None, DBLP_FULL)
        assert not eng.ask(s("schemaPath", "Venue", "Author"))
        assert eng.ask(s("schemaPath", "Author", "Venue"))
