"""Tests for the query-pattern IR and the Cypher MATCH-fragment parser."""
import pytest

from repro.core import (
    BLAST_RADIUS_MATCH,
    PatternParseError,
    PatternVertex,
    QueryPattern,
    VarLengthPath,
    parse_match,
)


class TestParser:
    def test_blast_radius_vertices(self):
        p = parse_match(BLAST_RADIUS_MATCH)
        assert {v.name: v.vtype for v in p.vertices} == {
            "q_j1": "Job",
            "q_f1": "File",
            "q_f2": "File",
            "q_j2": "Job",
        }

    def test_blast_radius_edges(self):
        p = parse_match(BLAST_RADIUS_MATCH)
        assert [q for q in p.paths if (q.lower, q.upper) == (1, 1)] == [
            VarLengthPath("q_j1", "q_f1", 1, 1, "WRITES_TO"),
            VarLengthPath("q_f2", "q_j2", 1, 1, "IS_READ_BY"),
        ]

    def test_blast_radius_varlength(self):
        p = parse_match(BLAST_RADIUS_MATCH)
        assert [q for q in p.paths if (q.lower, q.upper) != (1, 1)] == [
            VarLengthPath("q_f1", "q_f2", 0, 8, None)
        ]

    def test_elements_in_textual_order(self):
        p = parse_match(BLAST_RADIUS_MATCH)
        assert [(q.src, q.dst) for q in p.paths] == [
            ("q_j1", "q_f1"), ("q_f1", "q_f2"), ("q_f2", "q_j2"),
        ]

    @pytest.mark.parametrize("edge", ["-[:T]->", "-[r:T]->", "-[]->"])
    def test_fixed_edge_parses_as_one_hop_path(self, edge):
        one_hop = edge.replace("]", "*1..1]")
        assert parse_match(f"MATCH (a){edge}(b)") == parse_match(
            f"MATCH (a){one_hop}(b)"
        )

    def test_blast_radius_returns(self):
        p = parse_match(BLAST_RADIUS_MATCH)
        assert p.returns == (("q_j1", "A"), ("q_j2", "B"))

    def test_single_chain(self):
        p = parse_match("MATCH (a:Job)-[:WRITES_TO]->(b:File) RETURN a")
        assert p.paths == (VarLengthPath("a", "b", 1, 1, "WRITES_TO"),)
        assert p.returns == (("a", "a"),)

    def test_untyped_node(self):
        p = parse_match("MATCH (a)-[:LINK]->(b) RETURN a, b")
        assert p.vertex("a").vtype is None

    def test_typed_varlength(self):
        p = parse_match("MATCH (a:Vertex)-[r:LINK*1..4]->(b:Vertex) RETURN a, b")
        assert p.paths == (VarLengthPath("a", "b", 1, 4, "LINK"),)

    def test_untyped_edge(self):
        p = parse_match("MATCH (a)-[]->(b) RETURN a")
        assert p.paths == (VarLengthPath("a", "b", 1, 1, None),)

    def test_vertex_type_merging_across_mentions(self):
        p = parse_match("MATCH (a:Job)-[:W]->(f), (f:File)-[:R]->(b:Job) RETURN a, b")
        assert p.vtype("f") == "File"

    def test_conflicting_types_rejected(self):
        with pytest.raises(PatternParseError):
            parse_match("MATCH (a:Job)-[:W]->(f:File), (f:Job)-[:R]->(b) RETURN a")

    def test_not_a_match_clause(self):
        with pytest.raises(PatternParseError):
            parse_match("SELECT * FROM t")

    def test_garbage_after_node(self):
        with pytest.raises(PatternParseError):
            parse_match("MATCH (a:Job) <-[:W]- (b) RETURN a")

    def test_bad_return_item(self):
        with pytest.raises(PatternParseError):
            parse_match("MATCH (a:Job) RETURN a.foo + 1")

    def test_no_return_clause(self):
        p = parse_match("MATCH (a:Job)-[:W]->(b:File)")
        assert p.returns == ()

    def test_longer_chain_inline(self):
        p = parse_match(
            "MATCH (a:Job)-[:W]->(f:File)-[:R]->(b:Job) RETURN a AS S, b AS T"
        )
        assert p.paths == (
            VarLengthPath("a", "f", 1, 1, "W"),
            VarLengthPath("f", "b", 1, 1, "R"),
        )
        assert p.returns == (("a", "S"), ("b", "T"))


class TestQueryPatternValidation:
    def test_edge_to_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            QueryPattern(
                vertices=(PatternVertex("a", "Job"),),
                paths=(VarLengthPath("a", "ghost", 1, 1, "W"),),
            )

    def test_path_bounds_validated(self):
        with pytest.raises(ValueError):
            VarLengthPath("a", "b", 3, 1)

    def test_negative_lower_rejected(self):
        with pytest.raises(ValueError):
            VarLengthPath("a", "b", -1, 2)

    def test_return_unknown_vertex_rejected(self):
        with pytest.raises(ValueError):
            QueryPattern(
                vertices=(PatternVertex("a", "Job"),),
                returns=(("ghost", "G"),),
            )

    def test_fixed_edge_is_one_hop_path(self):
        p = parse_match(BLAST_RADIUS_MATCH)
        assert [(q.lower, q.upper) for q in p.paths] == [(1, 1), (0, 8), (1, 1)]

    def test_vertex_lookup_missing(self):
        p = parse_match("MATCH (a:Job) RETURN a")
        with pytest.raises(KeyError):
            p.vertex("zz")
