"""Tests for pattern execution and the hybrid (MATCH + SQL) layer,
oracle-checked against DuckDB over the same vertex/edge tables."""
import pytest

from repro.core import BLAST_RADIUS_MATCH, parse_match
from repro.engine import execute_pattern, run_hybrid, with_vertex_props
from repro.oracle import assert_equivalent

from .conftest import var_length_sql

# DuckDB oracle for the blast-radius MATCH clause on a job-file graph:
# (A:Job)-WRITES_TO->(f1:File), f1 -[*0..8]-> (f2:File), (f2)-IS_READ_BY->(B:Job)
BLAST_MATCH_SQL = """
WITH RECURSIVE ff(src, dst, k) AS (
    SELECT id, id, 0 FROM vertices WHERE vtype = 'File'
    UNION ALL
    SELECT ff.src, e.dst, ff.k + 1 FROM ff JOIN edges e ON ff.dst = e.src
    WHERE ff.k < 8
),
file_pairs AS (
    SELECT DISTINCT ff.src, ff.dst FROM ff
    JOIN vertices v ON ff.dst = v.id AND v.vtype = 'File'
)
SELECT DISTINCT w.src AS A, r.dst AS B
FROM edges w
JOIN file_pairs p ON w.dst = p.src AND w.etype = 'WRITES_TO'
JOIN edges r ON p.dst = r.src AND r.etype = 'IS_READ_BY'
"""


def _typed_path_sql(pattern) -> str:
    """Oracle for a single-path pattern: walks over edges of the path's
    type, identity pairs when lower = 0, then endpoint types."""
    (path,) = pattern.paths

    def typed(alias, col, vtype):
        return "TRUE" if vtype is None else f"{alias}.{col} = '{vtype}'"

    st, dt = pattern.vtype(path.src), pattern.vtype(path.dst)
    zero = "UNION SELECT id, id FROM vertices" if path.lower == 0 else ""
    return f"""
    WITH RECURSIVE walk(src, dst, k) AS (
        SELECT src, dst, 1 FROM edges e WHERE {typed("e", "etype", path.etype)}
        UNION ALL
        SELECT w.src, e.dst, w.k + 1 FROM walk w JOIN edges e ON w.dst = e.src
        WHERE w.k < {path.upper} AND {typed("e", "etype", path.etype)}
    ),
    pairs AS (
        SELECT src, dst FROM walk WHERE k >= {max(path.lower, 1)} {zero}
    )
    SELECT DISTINCT p.src AS a, p.dst AS b FROM pairs p
    JOIN vertices s ON p.src = s.id JOIN vertices t ON p.dst = t.id
    WHERE {typed("s", "vtype", st)} AND {typed("t", "vtype", dt)}
    """


class TestExecutePattern:
    @pytest.mark.parametrize(
        "graph,match",
        [
            ("fig3", "MATCH (a:File)-[*0..4]->(b:File) RETURN a, b"),
            ("fig3", "MATCH (a:Job)-[*2..4]->(b:Job) RETURN a, b"),
            ("fig3", "MATCH (a:Job)-[:WRITES_TO*1..2]->(b) RETURN a, b"),
            ("fig3", "MATCH (a:Machine)-[*1..3]->(b:Job) RETURN a, b"),
            ("cyclic", "MATCH (a:Vertex)-[*0..2]->(b) RETURN a, b"),
            ("tiny_prov", "MATCH (a:Job)-[*1..4]->(b:Job) RETURN a, b"),
            ("tiny_prov", "MATCH (a:Task)-[:TRANSFERS_TO*0..3]->(b:Task) RETURN a, b"),
        ],
    )
    def test_typed_path_endpoints_oracle(self, request, graph, match):
        """Endpoint types pushed into the path expansion match the walk
        oracle restricted to those types."""
        g = request.getfixturevalue(graph)
        pattern = parse_match(match)
        assert_equivalent(
            execute_pattern(g, pattern),
            _typed_path_sql(pattern),
            vertices=g.vertices.toPandas(),
            edges=g.edges.toPandas(),
        )

    def test_blast_radius_on_fig3_hand_checked(self, fig3):
        out = execute_pattern(fig3, parse_match(BLAST_RADIUS_MATCH))
        got = {(r["A"], r["B"]) for r in out.collect()}
        assert got == {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}

    def test_blast_radius_on_fig3_oracle(self, fig3, fig3_pdf):
        vertices, edges = fig3_pdf
        out = execute_pattern(fig3, parse_match(BLAST_RADIUS_MATCH))
        assert_equivalent(out, BLAST_MATCH_SQL, vertices=vertices, edges=edges)

    def test_blast_radius_on_tiny_prov_oracle(self, tiny_prov):
        vertices = tiny_prov.vertices.toPandas()
        edges = tiny_prov.edges.toPandas()
        out = execute_pattern(tiny_prov, parse_match(BLAST_RADIUS_MATCH))
        assert_equivalent(out, BLAST_MATCH_SQL, vertices=vertices, edges=edges)

    def test_single_edge_pattern(self, fig3, fig3_pdf):
        vertices, edges = fig3_pdf
        out = execute_pattern(
            fig3, parse_match("MATCH (a:Job)-[:WRITES_TO]->(f:File) RETURN a, f")
        )
        assert_equivalent(
            out,
            """SELECT DISTINCT e.src AS a, e.dst AS f FROM edges e
               WHERE e.etype = 'WRITES_TO'""",
            edges=edges,
        )

    def test_two_edge_chain(self, fig3):
        out = execute_pattern(
            fig3,
            parse_match(
                "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
                "RETURN a AS A, b AS B"
            ),
        )
        got = {(r["A"], r["B"]) for r in out.collect()}
        assert got == {(1, 2), (1, 3), (2, 4), (3, 4)}

    def test_typed_varlength_pattern(self, cyclic, cyclic_pdf):
        _, edges = cyclic_pdf
        out = execute_pattern(
            cyclic,
            parse_match("MATCH (a:Vertex)-[r:LINK*1..3]->(b:Vertex) RETURN a, b"),
        )
        from .conftest import var_length_sql

        assert_equivalent(
            out.select(
                out.a.alias("src"), out.b.alias("dst")
            ),
            var_length_sql(1, 3),
            edges=edges,
        )

    def test_vertex_only_pattern(self, fig3):
        out = execute_pattern(fig3, parse_match("MATCH (a:Job) RETURN a"))
        assert {r["a"] for r in out.collect()} == {1, 2, 3, 4}

    def test_no_return_returns_all_vars(self, fig3):
        out = execute_pattern(
            fig3, parse_match("MATCH (a:Job)-[:WRITES_TO]->(f:File)")
        )
        assert set(out.columns) == {"a", "f"}

    def test_untyped_edge_matches_all_types(self, fig3):
        out = execute_pattern(fig3, parse_match("MATCH (a)-[]->(b) RETURN a, b"))
        assert out.count() == 8

    def test_wrong_type_yields_empty(self, fig3):
        out = execute_pattern(
            fig3, parse_match("MATCH (a:File)-[:WRITES_TO]->(b:Job) RETURN a, b")
        )
        assert out.count() == 0

    def test_join_order_handles_reversed_element_listing(self, fig3):
        """Pattern whose second textual element connects to the first by
        its *dst*: the executor must still key the join."""
        from repro.core.pattern import PatternVertex, QueryPattern, VarLengthPath

        p = QueryPattern(
            vertices=(
                PatternVertex("f", "File"),
                PatternVertex("a", "Job"),
                PatternVertex("b", "Job"),
            ),
            paths=(
                VarLengthPath("f", "b", 1, 1, "IS_READ_BY"),
                VarLengthPath("a", "f", 1, 1, "WRITES_TO"),
            ),
            returns=(("a", "A"), ("b", "B")),
        )
        got = {(r["A"], r["B"]) for r in execute_pattern(fig3, p).collect()}
        assert got == {(1, 2), (1, 3), (2, 4), (3, 4)}


# Patterns with an element whose two ends are one variable, with their
# oracle over the walks of that element and, on cyclic, the expected ids.
SELF_LOOP_CASES = {
    "MATCH (a)-[*1..3]->(a) RETURN a": (
        f"SELECT DISTINCT src AS a FROM ({var_length_sql(1, 3)}) WHERE src = dst",
        {(0,), (1,), (2,)},
    ),
    "MATCH (a:Vertex)-[*3..3]->(a:Vertex) RETURN a AS v": (
        f"""SELECT DISTINCT p.src AS v FROM ({var_length_sql(3, 3)}) p
            JOIN vertices x ON x.id = p.src AND x.vtype = 'Vertex'
            WHERE p.src = p.dst""",
        {(0,), (1,), (2,)},
    ),
    # The self-loop element is joined second, on its one variable.
    "MATCH (a)-[]->(b), (b)-[*1..3]->(b) RETURN a, b": (
        f"""SELECT DISTINCT e.src AS a, e.dst AS b FROM edges e
            JOIN ({var_length_sql(1, 3)}) p ON p.src = e.dst AND p.dst = e.dst""",
        {(2, 0), (0, 1), (1, 2)},
    ),
}


class TestSelfLoopElement:
    """An element from a variable back to itself keeps the walks that
    return to their start, bound as one column."""

    @pytest.mark.parametrize("match", SELF_LOOP_CASES)
    @pytest.mark.parametrize("graph", ["cyclic", "fig3"])
    def test_matches_oracle(self, request, graph, match):
        g = request.getfixturevalue(graph)
        sql, on_cyclic = SELF_LOOP_CASES[match]
        out = execute_pattern(g, parse_match(match))
        assert_equivalent(
            out, sql, vertices=g.vertices.toPandas(), edges=g.edges.toPandas()
        )
        # fig3 is acyclic: no walk returns to its start.
        expected = on_cyclic if graph == "cyclic" else set()
        assert {tuple(r) for r in out.collect()} == expected


class TestWithVertexProps:
    def test_props_joined(self, fig3):
        out = execute_pattern(
            fig3,
            parse_match(
                "MATCH (a:Job)-[:WRITES_TO]->(f:File)-[:IS_READ_BY]->(b:Job) "
                "RETURN a AS A, b AS B"
            ),
        )
        flat = with_vertex_props(out, fig3, ["A", "B"])
        assert {"A_cpu", "A_pname", "A_vtype", "B_cpu"} <= set(flat.columns)
        row = flat.where("A = 1 AND B = 2").collect()[0]
        assert row["A_cpu"] == 10.0 and row["B_cpu"] == 20.0


class TestRunHybrid:
    def test_blast_radius_hybrid_aggregation(self, spark, fig3, fig3_pdf):
        """The full Lst. 1 query: MATCH + the two-level SQL aggregate,
        oracle-checked end to end."""
        vertices, edges = fig3_pdf
        out = run_hybrid(
            spark,
            fig3,
            BLAST_RADIUS_MATCH,
            """
            SELECT A_pname AS pipeline, AVG(T_CPU) AS avg_cpu FROM (
                SELECT A, A_pname, SUM(B_cpu) AS T_CPU
                FROM match_result GROUP BY A, A_pname, B
            ) GROUP BY A_pname
            """,
        )
        assert_equivalent(
            out,
            f"""
            WITH pairs AS ({BLAST_MATCH_SQL}),
            flat AS (
                SELECT p.A, va.pname AS A_pname, vb.cpu AS B_cpu, p.B
                FROM pairs p
                JOIN vertices va ON p.A = va.id
                JOIN vertices vb ON p.B = vb.id
            )
            SELECT A_pname AS pipeline, AVG(T_CPU) AS avg_cpu FROM (
                SELECT A, A_pname, SUM(B_cpu) AS T_CPU
                FROM flat GROUP BY A, A_pname, B
            ) GROUP BY A_pname
            """,
            vertices=vertices,
            edges=edges,
        )

    def test_hybrid_accepts_parsed_pattern(self, spark, fig3):
        out = run_hybrid(
            spark,
            fig3,
            parse_match("MATCH (a:Job) RETURN a AS A"),
            "SELECT COUNT(*) AS n FROM match_result",
        )
        assert out.collect()[0]["n"] == 4
