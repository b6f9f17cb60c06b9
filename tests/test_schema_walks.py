"""Differential tests of the typed schema-walk primitive
(``GraphSchema.step``/``walks``) on generated schemas: walk counts against
brute force over edge sequences, feasibility against the Prolog
``schemaKHopPath`` rule and the ``khop_type_paths`` oracle, and
summarizer soundness against brute-force matching walks."""
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    GraphSchema,
    PatternVertex,
    QueryPattern,
    SchemaEdge,
    VarLengthPath,
    ViewEnumerator,
)
from repro.core.enumerator import schema_walk_counts
from repro.core.rules import build_engine
from repro.prolog import s

TYPES = ("A", "B", "C", "D")
ETYPES = ("T", "U")
MAX_K = 5


@st.composite
def schemas(draw) -> GraphSchema:
    """≤ 4 vertex types, ≤ 6 distinct edges, ≤ 2 edge types."""
    types = TYPES[: draw(st.integers(1, len(TYPES)))]
    edge = st.builds(
        SchemaEdge, st.sampled_from(types), st.sampled_from(types),
        st.sampled_from(ETYPES),
    )
    return GraphSchema(types, tuple(draw(st.lists(edge, max_size=6, unique=True))))


def brute_walks(schema: GraphSchema, k: int, etype: str | None = None):
    """Every k-edge schema walk over ``etype`` edges (any when ``None``),
    as ``(vertex types, edge types)``; one 0-edge walk per vertex type."""
    if k == 0:
        return [((t,), ()) for t in schema.vertex_types]
    edges = [e for e in schema.edges if etype in (None, e.etype)]
    return [
        ((w[0].src_type, *(e.dst_type for e in w)), tuple(e.etype for e in w))
        for w in itertools.product(edges, repeat=k)
        if all(a.dst_type == b.src_type for a, b in zip(w, w[1:]))
    ]


class TestGeneratedSchemaWalks:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(schemas(), st.sampled_from((None, *ETYPES)))
    def test_walks_match_brute_force(self, schema, etype):
        for k in range(MAX_K + 1):
            want: dict[tuple[str, str], int] = {}
            for vtypes, _ in brute_walks(schema, k, etype):
                key = (vtypes[0], vtypes[-1])
                want[key] = want.get(key, 0) + 1
            for a in schema.vertex_types:
                got = schema.walks(a, k, etype)
                assert all(n > 0 for n in got.values())
                for b in schema.vertex_types:
                    assert got.get(b, 0) == want.get((a, b), 0)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(schemas())
    def test_feasibility_agrees_with_prolog_and_oracle(self, schema):
        """The generated-schema twin of
        ``test_constraints.TestSchemaKHopPath.test_matches_python_twin``."""
        eng = build_engine(None, schema)
        for k in range(1, MAX_K + 1):
            walks = schema_walk_counts(schema, k)
            for a in schema.vertex_types:
                for b in schema.vertex_types:
                    want = schema.khop_type_paths(a, b, k)
                    assert eng.ask(s("schemaKHopPath", a, b, k)) == want
                    assert (walks[(a, b)] > 0) == want


@st.composite
def single_element_patterns(draw, schema: GraphSchema) -> QueryPattern:
    """``(a)-[el]->(b)`` with each endpoint and the element typed or not;
    the element is a fixed edge (the ``1..1`` path) or a path with bounds
    in 0..4. Sometimes an isolated vertex ``(c)``, typed or not, rides
    along."""
    vtype = st.one_of(st.none(), st.sampled_from(schema.vertex_types))
    etype = draw(st.one_of(st.none(), st.sampled_from(ETYPES)))
    if draw(st.booleans()):
        el = VarLengthPath("a", "b", 1, 1, etype)
    else:
        lo = draw(st.integers(0, 4))
        el = VarLengthPath("a", "b", lo, draw(st.integers(lo, 4)), etype)
    vertices = [PatternVertex("a", draw(vtype)), PatternVertex("b", draw(vtype))]
    if draw(st.booleans()):
        vertices.append(PatternVertex("c", draw(vtype)))
    return QueryPattern(
        vertices=tuple(vertices), paths=(el,), returns=(("a", "a"), ("b", "b")),
    )


class TestGeneratedSummarizerSoundness:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.data())
    def test_matching_walks_survive_summarizers(self, data):
        """Every vertex type and edge type on a schema walk the pattern
        matches, and every type an isolated vertex matches, is kept by
        vertex inclusion and by no removal."""
        schema = data.draw(schemas())
        pattern = data.draw(single_element_patterns(schema))
        (el,) = pattern.paths
        st_, dt = pattern.vtype("a"), pattern.vtype("b")
        on_v: set[str] = set()
        on_e: set[str] = set()
        if len(pattern.vertices) == 3:
            ct = pattern.vtype("c")
            on_v |= set(schema.vertex_types) if ct is None else {ct}
        for k in range(el.lower, el.upper + 1):
            for vtypes, etypes in brute_walks(schema, k, el.etype):
                if st_ in (None, vtypes[0]) and dt in (None, vtypes[-1]):
                    on_v |= set(vtypes)
                    on_e |= set(etypes)
        cands = {c.kind: c.types for c in ViewEnumerator(schema).summarizers(pattern)}
        assert on_v <= cands["vertex_inclusion"]
        assert not on_v & cands.get("vertex_removal", frozenset())
        assert not on_e & cands.get("edge_removal", frozenset())
