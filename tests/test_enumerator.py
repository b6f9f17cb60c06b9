"""Tests for inference-based view enumeration (§ IV-B).

The paper states the exact candidate set for the blast-radius query:
job-to-job k-hop connectors with k ∈ {2, 4, 6, 8, 10} for the projected
vertices (q_j1, q_j2). We check that set verbatim, plus pruning claims.
"""
import pytest

from repro.core import (
    BLAST_RADIUS_MATCH,
    DBLP_CORE,
    HOMOGENEOUS,
    PROVENANCE_CORE,
    PROVENANCE_FULL,
    ConnectorCandidate,
    GraphSchema,
    ViewEnumerator,
    parse_match,
    path_vertex_types,
    unconstrained_schema_walk_count,
)


@pytest.fixture(scope="module")
def blast():
    return parse_match(BLAST_RADIUS_MATCH)


@pytest.fixture(scope="module")
def enum():
    return ViewEnumerator(PROVENANCE_CORE)


class TestBlastRadiusConnectors:
    def test_projected_candidates_match_paper(self, enum, blast):
        """§ IV-B: valid instantiations are (q_j1, q_j2, Job, Job, K) for
        K = 2, 4, 6, 8, 10 — exactly."""
        cands = enum.khop_connectors(blast, projected_only=True)
        assert [
            (c.src_var, c.dst_var, c.src_type, c.dst_type, c.k) for c in cands
        ] == [("q_j1", "q_j2", "Job", "Job", k) for k in [2, 4, 6, 8, 10]]

    def test_unprojected_includes_file_connectors(self, enum, blast):
        cands = enum.khop_connectors(blast, projected_only=False)
        ff = {(c.src_var, c.dst_var, c.k) for c in cands
              if c.src_type == "File" and c.dst_type == "File"}
        # File-to-file connectors from the 0..8 variable-length path:
        # even k in 2..8 (k=0 is not a connector).
        assert ("q_f1", "q_f2", 2) in ff
        assert ("q_f1", "q_f2", 8) in ff
        assert all(k % 2 == 0 for (_, _, k) in ff)

    def test_unprojected_includes_mixed_type_connectors(self, enum, blast):
        cands = enum.khop_connectors(blast, projected_only=False)
        jf = [c for c in cands if (c.src_type, c.dst_type) == ("Job", "File")]
        assert jf and all(c.k % 2 == 1 for c in jf)

    def test_no_odd_job_to_job(self, enum, blast):
        cands = enum.khop_connectors(blast, projected_only=False)
        assert all(
            c.k % 2 == 0 for c in cands
            if (c.src_type, c.dst_type) == ("Job", "Job")
        )

    def test_k_bounded_by_query(self, enum, blast):
        cands = enum.khop_connectors(blast, projected_only=False)
        assert max(c.k for c in cands) == 10

    def test_enumerate_runs_every_template(self, enum, blast):
        """The 5 k-hop connectors plus the source-to-sink connector and
        the summarizers."""
        assert len(enum.enumerate(blast)) >= 6

    def test_source_to_sink(self, enum, blast):
        cands = enum.source_to_sink_connectors(blast)
        assert [(c.src_var, c.dst_var) for c in cands] == [("q_j1", "q_j2")]

    def test_connector_edge_type_naming(self):
        c = ConnectorCandidate("a", "b", "Job", "Job", 2)
        assert c.edge_type == "CONN2_Job_Job"

    def test_enumeration_deterministic(self, enum, blast):
        assert enum.khop_connectors(blast) == enum.khop_connectors(blast)


class TestPruningClaims:
    """§ IV-A2: schema+query constraints shrink the search space."""

    def test_unconstrained_walk_count_grows_geometrically(self):
        # With a cycle in the schema graph, the unconstrained space is
        # >= M^k-ish; for the 2-edge provenance cycle it is exactly 2
        # walks of every even origin... sanity: strictly positive and
        # non-decreasing in k over feasible parities.
        counts = [unconstrained_schema_walk_count(PROVENANCE_CORE, k)
                  for k in range(1, 11)]
        assert all(c == 2 for c in counts)  # bipartite 2-cycle: 2 walks/k

    def test_unconstrained_blowup_with_self_loop(self):
        from repro.core import GraphSchema

        looped = GraphSchema.of(
            ["A"], [("A", "A", "e1"), ("A", "A", "e2"), ("A", "A", "e3")]
        )
        # M = 3 parallel self-loop edge types -> M^k walks.
        assert unconstrained_schema_walk_count(looped, 5) == 3**5

    def test_constrained_enumeration_small(self, enum, blast):
        # The paper's pruning claim: with both query and schema
        # constraints only 5 candidates survive for the running example,
        # versus 9 k-values x 4 type pairs = 36 unconstrained slots.
        assert len(enum.khop_connectors(blast, projected_only=True)) == 5
        # Unprojected: 21 candidates vs. 4 type pairs x the schema walks
        # of every k <= 10 (EXPERIMENTS.md § IV).
        survived = len(enum.khop_connectors(blast, projected_only=False))
        raw_space = sum(
            unconstrained_schema_walk_count(PROVENANCE_CORE, k) * 4
            for k in range(1, 11)
        )
        assert (survived, raw_space) == (21, 80)

    def test_full_schema_still_only_job_job(self, blast):
        # Adding unrelated types (Task/Machine/User) must not add
        # candidates for this query.
        cands = ViewEnumerator(PROVENANCE_FULL).khop_connectors(blast)
        assert {(c.src_type, c.dst_type) for c in cands} == {("Job", "Job")}


class TestSummarizerEnumeration:
    def test_vertex_inclusion_closure_prov(self, blast):
        enum = ViewEnumerator(PROVENANCE_FULL)
        summ = enum.summarizers(blast)
        inc = next(c for c in summ if c.kind == "vertex_inclusion")
        # The untyped 0..8 path between files can only traverse Job/File
        # on the full schema, so the closure keeps exactly {Job, File} —
        # the "summarized prov graph" of § VII-B.
        assert inc.types == frozenset({"Job", "File"})

    def test_vertex_removal_prov(self, blast):
        enum = ViewEnumerator(PROVENANCE_FULL)
        summ = enum.summarizers(blast)
        rem = next(c for c in summ if c.kind == "vertex_removal")
        assert rem.types == frozenset({"Task", "Machine", "User"})

    def test_edge_removal_keeps_traversable_types(self, blast):
        enum = ViewEnumerator(PROVENANCE_FULL)
        summ = enum.summarizers(blast)
        rem = next(c for c in summ if c.kind == "edge_removal")
        # HAS_TASK etc. removable; WRITES_TO/IS_READ_BY are typed on the
        # query's fixed edges AND traversable by the untyped path — kept.
        assert "HAS_TASK" in rem.types
        assert "WRITES_TO" not in rem.types
        assert "IS_READ_BY" not in rem.types

    def test_dblp_author_query_closure(self):
        q = parse_match(
            "MATCH (a1:Author)-[:WROTE]->(p:Article), "
            "(p)-[r*0..2]->(a2:Author) RETURN a1, a2"
        )
        enum = ViewEnumerator(DBLP_CORE)
        inc = next(c for c in enum.summarizers(q) if c.kind == "vertex_inclusion")
        assert "Author" in inc.types and "Article" in inc.types

    def test_homogeneous_no_removal(self):
        q = parse_match("MATCH (a:Vertex)-[r*1..4]->(b:Vertex) RETURN a, b")
        enum = ViewEnumerator(HOMOGENEOUS)
        kinds = {c.kind for c in enum.summarizers(q)}
        assert "vertex_removal" not in kinds

    @pytest.mark.parametrize(
        "schema, match, vtypes, etypes",
        [
            # Untyped endpoint: files and users reach a job within 3 hops.
            (PROVENANCE_FULL, "MATCH (a)-[*1..3]->(b:Job)",
             {"Job", "File", "User"}, {"WRITES_TO", "IS_READ_BY", "SUBMITS"}),
            # Untyped fixed edge into a job.
            (PROVENANCE_FULL, "MATCH (a)-[]->(b:Job)",
             {"Job", "File", "User"}, {"IS_READ_BY", "SUBMITS"}),
            # Typed path whose every match passes through B over T.
            (GraphSchema.of(["A", "B", "C"],
                            [("A", "B", "T"), ("B", "A", "T"), ("A", "C", "U")]),
             "MATCH (a:A)-[:T*2..2]->(c:A)", {"A", "B"}, {"T"}),
            # Typed path on a homogeneous schema.
            (HOMOGENEOUS, "MATCH (a:Vertex)-[r:LINK*1..3]->(b:Vertex)",
             {"Vertex"}, {"LINK"}),
        ],
    )
    def test_closure_keeps_types_on_matching_walks(self, schema, match, vtypes, etypes):
        summ = ViewEnumerator(schema).summarizers(parse_match(match + " RETURN a"))
        kept = {c.kind: c.types for c in summ}
        assert vtypes <= kept["vertex_inclusion"]
        assert not vtypes & kept.get("vertex_removal", set())
        assert not etypes & kept.get("edge_removal", set())

    @pytest.mark.parametrize(
        "match, vtypes",
        [
            # An untyped vertex alone matches every vertex.
            ("MATCH (a) RETURN a", set(PROVENANCE_FULL.vertex_types)),
            # So does an untyped vertex next to a chain it is not on.
            ("MATCH (a:Job)-[:WRITES_TO]->(f), (u) RETURN a, u",
             set(PROVENANCE_FULL.vertex_types)),
            # A typed one keeps its own type.
            ("MATCH (a:Job)-[:WRITES_TO]->(f), (u:User) RETURN a, u",
             {"Job", "File", "User"}),
        ],
    )
    def test_vertex_on_no_element_keeps_its_types(self, match, vtypes):
        summ = ViewEnumerator(PROVENANCE_FULL).summarizers(parse_match(match))
        kept = {c.kind: c.types for c in summ}
        assert vtypes <= kept["vertex_inclusion"]
        assert not vtypes & kept.get("vertex_removal", set())


class TestPathVertexTypes:
    def test_file_to_file_closure(self):
        assert path_vertex_types(PROVENANCE_FULL, "File", "File", 8) == {
            "File",
            "Job",
        }

    def test_zero_hops(self):
        assert path_vertex_types(PROVENANCE_FULL, "File", "File", 0) == {"File"}

    def test_unreachable_pair_empty(self):
        out = path_vertex_types(PROVENANCE_FULL, "Machine", "Job", 6)
        assert out == set()

    def test_task_paths_include_tasks_only(self):
        out = path_vertex_types(PROVENANCE_FULL, "Task", "Task", 3)
        assert out == {"Task"}

    def test_edge_type_and_any_endpoint(self):
        # Over WRITES_TO only, a file is one hop from a job; with any
        # source type, users reach a job over SUBMITS.
        assert path_vertex_types(PROVENANCE_FULL, "Job", None, 3, "WRITES_TO") == {
            "Job",
            "File",
        }
        assert path_vertex_types(PROVENANCE_FULL, None, "Job", 1) == {
            "Job",
            "File",
            "User",
        }
