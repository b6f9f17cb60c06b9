"""Tests for view-based query rewriting (§ V-C): hop-count mapping,
equivalence preconditions, and best-rewriting choice."""
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
)
from repro.core.cost import CostModel
from repro.core.selection import ViewSelector
from repro.core.rewriter import (
    best_rewriting,
    feasible_hop_counts,
    rewrite_with_connector,
)
from repro.prolog import Engine
from repro.workload.queries import dblp_spec, prov_spec, q1_pattern


@pytest.fixture(scope="module")
def blast():
    return parse_match(BLAST_RADIUS_MATCH)


JJ2 = ConnectorCandidate("q_j1", "q_j2", "Job", "Job", 2)
# Q4 of the benchmark workload, with its own variable names.
Q4_MATCH = "MATCH (s:Job) -[r*1..4]-> (t:Job) RETURN s AS src, t AS dst"


class TestFeasibleHops:
    def test_blast_radius_even_hops(self, blast):
        ks = feasible_hop_counts(blast, PROVENANCE_CORE, "q_j1", "q_j2")
        assert ks == [2, 4, 6, 8, 10]

    def test_file_pair_hops(self, blast):
        ks = feasible_hop_counts(blast, PROVENANCE_CORE, "q_f1", "q_f2")
        # queryKHopPath gives 0..8; 0 dropped; odd dropped by schema.
        assert ks == [2, 4, 6, 8]

    def test_single_edge(self, blast):
        assert feasible_hop_counts(blast, PROVENANCE_CORE, "q_j1", "q_f1") == [1]


class TestRewriteWithConnector:
    def test_blast_radius_over_2hop(self, blast):
        """Lst. 1 → Lst. 4: MATCH over the job-to-job connector with
        bounds 1..5 (K ∈ {2,…,10} — the paper's *1..4 is a typo, see
        DESIGN.md)."""
        rw = rewrite_with_connector(blast, JJ2, PROVENANCE_CORE)
        assert rw is not None
        assert (rw.lower, rw.upper) == (1, 5)
        (p,) = rw.rewritten.paths
        assert p.etype == "CONN2_Job_Job"
        assert rw.rewritten.returns == (("q_j1", "A"), ("q_j2", "B"))

    def test_rewritten_vertex_types(self, blast):
        rw = rewrite_with_connector(blast, JJ2, PROVENANCE_CORE)
        assert {v.vtype for v in rw.rewritten.vertices} == {"Job"}

    @pytest.mark.parametrize("k", [4, 6, 8, 10])
    def test_larger_k_not_equivalence_preserving(self, blast, k):
        """A k=4 connector loses K ∈ {2, 6, 10} paths — must be refused."""
        cand = ConnectorCandidate("q_j1", "q_j2", "Job", "Job", k)
        assert rewrite_with_connector(blast, cand, PROVENANCE_CORE) is None

    def test_wrong_anchor_vars_refused(self, blast):
        cand = ConnectorCandidate("q_f1", "q_f2", "File", "File", 2)
        assert rewrite_with_connector(blast, cand, PROVENANCE_CORE) is None

    def test_disconnected_anchors_refused(self):
        q = parse_match(
            "MATCH (a:Job)-[:WRITES_TO]->(f:File), (g:File)-[:IS_READ_BY]->(b:Job) "
            "RETURN a AS A, b AS B"
        )
        # a ⇝ b has no path in the pattern: no feasible hop counts.
        cand = ConnectorCandidate("a", "b", "Job", "Job", 2)
        assert rewrite_with_connector(q, cand, PROVENANCE_CORE) is None

    def test_ancestor_style_query(self):
        q = parse_match("MATCH (a:Job)-[r*1..4]->(b:Job) RETURN a AS S, b AS T")
        rw = rewrite_with_connector(q, ConnectorCandidate("a", "b", "Job", "Job", 2),
                                    PROVENANCE_CORE)
        assert rw is not None and (rw.lower, rw.upper) == (1, 2)

    def test_binds_by_type_not_by_enumerated_names(self, blast):
        """The candidate ``candidate_views([Q1, Q4])`` keeps carries Q1's
        variable names; Q4 still rewrites over it, with its own names."""
        q4 = parse_match(Q4_MATCH)
        selector = ViewSelector(
            ViewEnumerator(PROVENANCE_CORE), CostModel(PROVENANCE_CORE)
        )
        (view,) = [
            c for c in selector.candidate_views([blast, q4]) if c.k == 2
        ]
        assert (view.src_var, view.dst_var) == ("q_j1", "q_j2")
        rw = rewrite_with_connector(q4, view, PROVENANCE_CORE)
        assert rw is not None and (rw.lower, rw.upper) == (1, 2)
        (p,) = rw.rewritten.paths
        assert (p.src, p.dst) == ("s", "t")
        assert rw.rewritten.returns == (("s", "src"), ("t", "dst"))

    def test_destination_first_return_order_kept(self):
        """A Q2-shaped query returns the path's destination first; the
        rewriting keeps that order and the path's direction."""
        q = parse_match(
            "MATCH (a:Job) -[*1..4]-> (v:Job) RETURN v AS v, a AS ancestor"
        )
        rw = rewrite_with_connector(q, JJ2, PROVENANCE_CORE)
        assert rw is not None and (rw.lower, rw.upper) == (1, 2)
        (p,) = rw.rewritten.paths
        assert (p.src, p.dst) == ("a", "v")
        assert rw.rewritten.returns == (("v", "v"), ("a", "ancestor"))

    @pytest.mark.parametrize(
        "match",
        [
            # b has a 2-hop tail the rewriting would drop (on fig3 that
            # adds (j1,j4), (j2,j4), (j3,j4)).
            "MATCH (a:Job)-[*1..4]->(b:Job), (b:Job)-[*2..2]->(c:Job) "
            "RETURN a AS A, b AS B",
            # a branch off the chain
            "MATCH (a:Job)-[*1..4]->(b:Job), (a:Job)-[:WRITES_TO]->(f:File) "
            "RETURN a AS A, b AS B",
            # a cycle: refused before any Prolog call
            "MATCH (a:Job)-[*1..4]->(b:Job), (b:Job)-[*1..4]->(a:Job) "
            "RETURN a AS A, b AS B",
            # zero-length walks pair every Job with itself; the view has
            # no zero-length edges
            "MATCH (a:Job)-[*0..4]->(b:Job) RETURN a AS A, b AS B",
        ],
    )
    def test_pattern_off_the_chain_refused(self, match):
        view = ConnectorCandidate("a", "b", "Job", "Job", 2)
        assert rewrite_with_connector(parse_match(match), view, PROVENANCE_CORE) is None

    def test_mixed_type_view_not_chained(self):
        """Job→Task walks have lengths 1 and 2 (via Task→Task), but a
        Job→Task connector's edges cannot follow one another."""
        q = parse_match("MATCH (j:Job)-[*1..2]->(t:Task) RETURN j AS J, t AS T")
        view = ConnectorCandidate("j", "t", "Job", "Task", 1)
        assert rewrite_with_connector(q, view, PROVENANCE_FULL) is None

    def test_homogeneous_odd_hops_refused(self):
        """On a homogeneous schema all K ∈ 1..4 are feasible; an exact
        2-hop connector misses odd-length paths."""
        q = parse_match("MATCH (a:Vertex)-[r*1..4]->(b:Vertex) RETURN a AS S, b AS T")
        rw = rewrite_with_connector(
            q, ConnectorCandidate("a", "b", "Vertex", "Vertex", 2), HOMOGENEOUS
        )
        assert rw is None

    @pytest.mark.parametrize(
        "schema, match, view, want",
        [
            # A→A→B→A→A is at B after 2 edges: two steps of a 2-hop A→A
            # connector miss it.
            (
                GraphSchema.of(
                    ["A", "B"], [("A", "A", "x"), ("A", "B", "y"), ("B", "A", "z")]
                ),
                "MATCH (a:A)-[*4..4]->(b:A) RETURN a AS a, b AS b",
                ConnectorCandidate("a", "b", "A", "A", 2),
                None,
            ),
            # Every Author⇝Author walk is at an Author after each 2 edges.
            (
                DBLP_CORE,
                "MATCH (a:Author)-[*2..8]->(b:Author) RETURN a AS A, b AS B",
                ConnectorCandidate("a", "b", "Author", "Author", 2),
                (1, 4),
            ),
            (
                HOMOGENEOUS,
                "MATCH (a:Vertex)-[*1..4]->(b:Vertex) RETURN a AS S, b AS T",
                ConnectorCandidate("a", "b", "Vertex", "Vertex", 1),
                (1, 4),
            ),
        ],
        ids=["off-source-type", "dblp", "homogeneous-k1"],
    )
    def test_walks_at_source_type_every_k_hops(self, schema, match, view, want):
        rw = rewrite_with_connector(parse_match(match), view, schema)
        assert (None if rw is None else (rw.lower, rw.upper)) == want

    @pytest.mark.parametrize(
        "p, want",
        # Author→Author walks of length 2 also pass through Inproc and
        # Publication, so a 2-hop Author connector over-covers (p:Article).
        [("(p:Article)", None), ("(p)", (1, 1))],
        ids=["typed-interior", "untyped-interior"],
    )
    def test_interior_types_implied_by_schema(self, p, want):
        q = parse_match(
            f"MATCH (a:Author)-[:WROTE]->{p}, {p}-[:WRITTEN_BY]->(b:Author) "
            "RETURN a AS A, b AS B"
        )
        view = ConnectorCandidate("a", "b", "Author", "Author", 2)
        rw = rewrite_with_connector(q, view, DBLP_CORE)
        assert (None if rw is None else (rw.lower, rw.upper)) == want

    @pytest.mark.parametrize("spec", [prov_spec(), dblp_spec()], ids=lambda s: s.name)
    def test_q1_over_anchor_connector(self, spec):
        """The Table IV Q1 keeps its ``*1..5`` rewriting: its interior
        and edge types are implied by the schema."""
        rw = rewrite_with_connector(q1_pattern(spec), spec.view, spec.schema)
        assert rw is not None and (rw.lower, rw.upper) == (1, 5)

    def test_builds_no_inference_engine(self, blast, monkeypatch):
        """Rewriting is hop arithmetic on the schema matrix: no Prolog
        engine is built per (query, view) pair."""
        def refuse(*_a, **_k):
            raise AssertionError("inference engine built while rewriting")

        monkeypatch.setattr(Engine, "__init__", refuse)
        assert rewrite_with_connector(blast, JJ2, PROVENANCE_CORE) is not None
        assert feasible_hop_counts(blast, PROVENANCE_CORE, "q_j1", "q_j2")


UP2 = ConnectorCandidate("a", "b", "Vertex", "Vertex", 2, "upto_khop")


class TestUptoKhop:
    """The up-to-k connector: feasible hops exactly L..U, k | U and
    L ≤ U/k rewrite to *L..U/k."""

    @pytest.mark.parametrize(
        "lo, hi, want", [(1, 4, (1, 2)), (2, 4, (2, 2)), (1, 3, None), (3, 4, None)]
    )
    def test_range_rule(self, lo, hi, want):
        q = parse_match(f"MATCH (a:Vertex)-[*{lo}..{hi}]->(b:Vertex) RETURN a AS S, b AS T")
        rw = rewrite_with_connector(q, UP2, HOMOGENEOUS)
        assert (None if rw is None else (rw.lower, rw.upper)) == want
        if rw is not None:
            (p,) = rw.rewritten.paths
            assert p.etype == "CONN1TO2_Vertex_Vertex"

    def test_gapped_hops_refused(self, blast):
        """The blast radius's hop counts 2, 4, …, 10 have gaps."""
        view = ConnectorCandidate("a", "b", "Job", "Job", 2, "upto_khop")
        assert rewrite_with_connector(blast, view, PROVENANCE_CORE) is None


class TestBestRewriting:
    def test_picks_cheapest_applicable(self, blast):
        views = [
            ConnectorCandidate("q_j1", "q_j2", "Job", "Job", 2),
            ConnectorCandidate("q_j1", "q_j2", "Job", "Job", 4),  # inapplicable
        ]
        rw = best_rewriting(blast, views, PROVENANCE_CORE, cost_of=lambda r: r.upper)
        assert rw is not None and rw.view.k == 2

    def test_none_when_no_view_applies(self, blast):
        views = [ConnectorCandidate("q_j1", "q_j2", "Job", "Job", 4)]
        assert best_rewriting(blast, views, PROVENANCE_CORE, lambda r: 0) is None

    def test_cost_tie_break_is_first_seen(self, blast):
        v = ConnectorCandidate("q_j1", "q_j2", "Job", "Job", 2)
        rw = best_rewriting(blast, [v, v], PROVENANCE_CORE, lambda r: 1.0)
        assert rw.view is v


class TestEndToEndWithEnumerator:
    def test_enumerated_candidates_rewrite_consistently(self, blast):
        """Every enumerated candidate either rewrites equivalently or is
        refused; at least the k=2 one succeeds."""
        enum = ViewEnumerator(PROVENANCE_CORE)
        ok = {}
        for cand in enum.khop_connectors(blast):
            rw = rewrite_with_connector(blast, cand, PROVENANCE_CORE)
            ok[cand.k] = rw is not None
        assert ok == {2: True, 4: False, 6: False, 8: False, 10: False}
