"""Constraint mining rules and view templates (§ IV, Listings 2/3/5/6).

Each rule below mirrors a Prolog rule from the paper; the original
source is quoted in the docstring/comments. Deviations (all documented
in DESIGN.md § Known deviations):

- ``schemaKHopPath`` base case: the paper's Listing 2 leaves the hop
  count unbound in the base clause (``schemaKHopPath(X,Y,I,_) :-
  schemaEdge(X,Y,_).``), which would make ``K is K1 + 1`` an
  instantiation error; the intended base is a 1-hop path, which we use.
- The paper's recursive clause threads a *trail* that blocks revisiting
  vertex types, i.e. it enumerates simple paths **over the schema
  graph**. But a k-hop path in the *data* graph maps to a k-step *walk*
  in the schema graph (the provenance example itself needs
  Job→File→Job→File→Job for k=4, revisiting types), and § IV-B's claimed
  output for the blast-radius query includes k ∈ {2,4,6,8,10} job-to-job
  connectors — only derivable under walk semantics. We therefore provide
  ``schemaKHopPath`` with bounded-walk semantics (terminating because K
  is bound by the query constraints before the schema check runs — the
  goal order inside ``kHopConnector`` guarantees this, which is exactly
  the "injecting constraints at enumeration time" point of § IV), and
  keep the trail-based variant verbatim as ``schemaKHopSimplePath``.
- ``sourceToSinkConnector`` in Listing 3 calls ``schemaPath(X, Y)`` on
  *query* vertices; schema feasibility is clearly meant over their
  *types*, which is what we implement.
- Listing 5's ``summarizerRemoveEdges`` negates ``queryEdgeType`` with
  an unbound removal type; we ground the candidate type against the
  schema first (standard NAF hygiene).
"""
from __future__ import annotations

from ..prolog import Engine, Struct, Var, s
from .facts import query_facts, schema_facts
from .pattern import QueryPattern
from .schema import GraphSchema

Rule = tuple[Struct, list]


def _v(*names: str) -> list[Var]:
    return [Var(n) for n in names]


def constraint_mining_rules() -> list[Rule]:
    """The library of constraint mining rules (§ IV-A2, Listings 2 & 6)."""
    rules: list[Rule] = []

    # ---- schema constraint mining (Listing 2) ------------------------
    # schemaKHopPath(X, Y, K): a k-step walk X → … → Y is feasible over
    # the schema graph. K must be bound at call time (see module doc).
    X, Y, Z, K, K1, W = _v("X", "Y", "Z", "K", "K1", "W")
    rules.append((s("schemaKHopPath", X, Y, 1), [s("schemaEdge", X, Y, W)]))
    X, Y, Z, K, K1, W = _v("X", "Y", "Z", "K", "K1", "W")
    rules.append(
        (
            s("schemaKHopPath", X, Y, K),
            [
                s(">", K, 1),
                s("is", K1, s("-", K, 1)),
                s("schemaEdge", X, Z, W),
                s("schemaKHopPath", Z, Y, K1),
            ],
        )
    )

    # Paper-verbatim trail variant (simple paths over the schema graph):
    #   schemaKHopPath(X,Y,K) :- schemaKHopPath(X,Y,K,[]).
    #   schemaKHopPath(X,Y,1,_) :- schemaEdge(X,Y,_).
    #   schemaKHopPath(X,Y,K,Trail) :- schemaEdge(X,Z,_),
    #     not(member(Z,Trail)), schemaKHopPath(Z,Y,K1,[X|Trail]),
    #     K is K1 + 1.
    X, Y, K = _v("X", "Y", "K")
    rules.append(
        (s("schemaKHopSimplePath", X, Y, K),
         [s("schemaKHopSimplePath", X, Y, K, s("[]"))])
    )
    X, Y, K, W, T = _v("X", "Y", "K", "W", "T")
    rules.append((s("schemaKHopSimplePath", X, Y, 1, T), [s("schemaEdge", X, Y, W)]))
    X, Y, Z, K, K1, W, T = _v("X", "Y", "Z", "K", "K1", "W", "T")
    rules.append(
        (
            s("schemaKHopSimplePath", X, Y, K, T),
            [
                s("schemaEdge", X, Z, W),
                s("not", s("member", Z, T)),
                s("schemaKHopSimplePath", Z, Y, K1, s(".", X, T)),
                s("is", K, s("+", K1, 1)),
            ],
        )
    )

    # schemaPath(XT, YT): YT reachable from XT over the schema graph
    # (trail-bounded — reachability needs only simple paths).
    X, Y = _v("X", "Y")
    rules.append((s("schemaPath", X, Y), [s("schemaPathTrail", X, Y, s("[]"))]))
    X, Y, W, T = _v("X", "Y", "W", "T")
    rules.append((s("schemaPathTrail", X, Y, T), [s("schemaEdge", X, Y, W)]))
    X, Y, Z, W, T = _v("X", "Y", "Z", "W", "T")
    rules.append(
        (
            s("schemaPathTrail", X, Y, T),
            [
                s("schemaEdge", X, Z, W),
                s("not", s("member", Z, T)),
                s("schemaPathTrail", Z, Y, s(".", X, T)),
            ],
        )
    )

    # schemaEdgeType(T) / schemaUsesVertexType helpers for summarizers.
    X, Y, T = _v("X", "Y", "T")
    rules.append((s("schemaEdgeType", T), [s("schemaEdge", X, Y, T)]))

    # ---- query constraint mining (Listing 6, verbatim) ----------------
    # queryKHopVariableLengthPath(X, Y, K) :-
    #   queryVariableLengthPath(X, Y, LOWER, UPPER),
    #   between(LOWER, UPPER, K).
    X, Y, K, L, U = _v("X", "Y", "K", "L", "U")
    rules.append(
        (
            s("queryKHopVariableLengthPath", X, Y, K),
            [s("queryVariableLengthPath", X, Y, L, U), s("between", L, U, K)],
        )
    )
    # queryKHopPath(X, Y, 1) :- queryEdge(X, Y).
    X, Y = _v("X", "Y")
    rules.append((s("queryKHopPath", X, Y, 1), [s("queryEdge", X, Y)]))
    # queryKHopPath(X, Y, K) :- queryKHopVariableLengthPath(X, Y, K).
    X, Y, K = _v("X", "Y", "K")
    rules.append(
        (s("queryKHopPath", X, Y, K), [s("queryKHopVariableLengthPath", X, Y, K)])
    )
    # queryKHopPath(X, Y, K) :- queryEdge(X, Z), queryKHopPath(Z, Y, K1),
    #   K is K1 + 1.
    X, Y, Z, K, K1 = _v("X", "Y", "Z", "K", "K1")
    rules.append(
        (
            s("queryKHopPath", X, Y, K),
            [
                s("queryEdge", X, Z),
                s("queryKHopPath", Z, Y, K1),
                s("is", K, s("+", K1, 1)),
            ],
        )
    )
    # queryKHopPath(X, Y, K) :- queryKHopVariableLengthPath(X, Z, K2),
    #   queryKHopPath(Z, Y, K1), K is K1 + K2.
    X, Y, Z, K, K1, K2 = _v("X", "Y", "Z", "K", "K1", "K2")
    rules.append(
        (
            s("queryKHopPath", X, Y, K),
            [
                s("queryKHopVariableLengthPath", X, Z, K2),
                s("queryKHopPath", Z, Y, K1),
                s("is", K, s("+", K1, K2)),
            ],
        )
    )
    # queryPath(X, Y) :- queryEdge(X, Y).
    X, Y = _v("X", "Y")
    rules.append((s("queryPath", X, Y), [s("queryEdge", X, Y)]))
    # queryPath(X, Y) :- queryKHopPath(X, Y, _).
    X, Y, K = _v("X", "Y", "_K")
    rules.append((s("queryPath", X, Y), [s("queryKHopPath", X, Y, K)]))
    # queryPath(X, Y) :- queryEdge(X, Z), queryPath(Z, Y).
    X, Y, Z = _v("X", "Y", "Z")
    rules.append((s("queryPath", X, Y), [s("queryEdge", X, Z), s("queryPath", Z, Y)]))

    # queryVertexSource(X) :- queryVertexInDegree(X, 0).
    # queryVertexSink(X)   :- queryVertexOutDegree(X, 0).
    (X,) = _v("X")
    rules.append((s("queryVertexSource", X), [s("queryVertexInDegree", X, 0)]))
    (X,) = _v("X")
    rules.append((s("queryVertexSink", X), [s("queryVertexOutDegree", X, 0)]))
    # queryConnected(X, Y): X and Y adjacent in the pattern via a fixed
    # edge *or* a variable-length path. Listing 6 counts only queryEdge
    # toward degrees, which would make the inner endpoints of a
    # variable-length path spurious sources/sinks (q_f2 in the running
    # example would be a "source"); degrees over queryConnected give the
    # intended source/sink semantics. (DESIGN.md § Known deviations.)
    X, Y = _v("X", "Y")
    rules.append((s("queryConnected", X, Y), [s("queryEdge", X, Y)]))
    X, Y, L, U = _v("X", "Y", "L", "U")
    rules.append(
        (s("queryConnected", X, Y), [s("queryVariableLengthPath", X, Y, L, U)])
    )
    # queryIncomingVertices(X, INLIST) :- queryVertex(X),
    #   findall(SRC, queryConnected(SRC, X), INLIST).
    X, SRC, IN = _v("X", "SRC", "INLIST")
    rules.append(
        (
            s("queryIncomingVertices", X, IN),
            [s("queryVertex", X), s("findall", SRC, s("queryConnected", SRC, X), IN)],
        )
    )
    X, DST, OUT = _v("X", "DST", "OUTLIST")
    rules.append(
        (
            s("queryOutgoingVertices", X, OUT),
            [s("queryVertex", X), s("findall", DST, s("queryConnected", X, DST), OUT)],
        )
    )
    X, D, IN = _v("X", "D", "INLIST")
    rules.append(
        (
            s("queryVertexInDegree", X, D),
            [s("queryIncomingVertices", X, IN), s("length", IN, D)],
        )
    )
    X, D, OUT = _v("X", "D", "OUTLIST")
    rules.append(
        (
            s("queryVertexOutDegree", X, D),
            [s("queryOutgoingVertices", X, OUT), s("length", OUT, D)],
        )
    )

    # Which vertex/edge types does the query mention (summarizer mining).
    X, T = _v("X", "T")
    rules.append((s("queryUsesVertexType", T), [s("queryVertexType", X, T)]))
    X, Y, T = _v("X", "Y", "T")
    rules.append((s("queryUsesEdgeType", T), [s("queryEdgeType", X, Y, T)]))
    return rules


def connector_view_templates() -> list[Rule]:
    """View templates for connectors (§ IV-B, Listing 3)."""
    rules: list[Rule] = []
    # kHopConnector(X, Y, XTYPE, YTYPE, K) :-
    #   queryVertexType(X, XTYPE), queryVertexType(Y, YTYPE),
    #   queryKHopPath(X, Y, K), schemaKHopPath(XTYPE, YTYPE, K).
    X, Y, XT, YT, K = _v("X", "Y", "XTYPE", "YTYPE", "K")
    rules.append(
        (
            s("kHopConnector", X, Y, XT, YT, K),
            [
                s("queryVertexType", X, XT),
                s("queryVertexType", Y, YT),
                s("queryKHopPath", X, Y, K),
                s("schemaKHopPath", XT, YT, K),
            ],
        )
    )
    # Restriction of § IV-B's prose: only vertices projected out of the
    # MATCH clause anchor a connector.
    X, Y, XT, YT, K = _v("X", "Y", "XTYPE", "YTYPE", "K")
    rules.append(
        (
            s("projectedKHopConnector", X, Y, XT, YT, K),
            [
                s("queryReturned", X),
                s("queryReturned", Y),
                s("kHopConnector", X, Y, XT, YT, K),
            ],
        )
    )
    # sourceToSinkConnector(X, Y) :- queryVertexSource(X),
    #   queryVertexSink(Y), queryPath(X, Y), schemaPath(XT, YT).
    X, Y, XT, YT = _v("X", "Y", "XT", "YT")
    rules.append(
        (
            s("sourceToSinkConnector", X, Y),
            [
                s("queryVertexSource", X),
                s("queryVertexSink", Y),
                s("queryPath", X, Y),
                s("queryVertexType", X, XT),
                s("queryVertexType", Y, YT),
                s("schemaPath", XT, YT),
            ],
        )
    )
    return rules


def summarizer_view_templates() -> list[Rule]:
    """View templates for summarizers (Listing 5, with NAF grounding)."""
    rules: list[Rule] = []
    # summarizerRemoveEdges: an edge type present in the schema but not
    # used by any query edge can be removed.
    (T,) = _v("T")
    rules.append(
        (
            s("summarizerEdgeRemoval", T),
            [s("schemaEdgeType", T), s("not", s("queryUsesEdgeType", T))],
        )
    )
    # summarizerRemoveVertices: a schema vertex type unused by the query.
    (T,) = _v("T")
    rules.append(
        (
            s("summarizerVertexRemoval", T),
            [s("schemaVertex", T), s("not", s("queryUsesVertexType", T))],
        )
    )
    # Vertex-inclusion ("schema-level") summarizer: keep query types.
    (T,) = _v("T")
    rules.append((s("summarizerVertexInclusion", T), [s("queryUsesVertexType", T)]))

    # sum(X, Y, R) :- R is X + Y.   (example aggregate of Listing 5)
    X, Y, R = _v("X", "Y", "R")
    rules.append((s("sum", X, Y, R), [s("is", R, s("+", X, Y))]))

    # queryVertexKHopNbors(K, X, LIST) :- queryVertex(X),
    #   findall(SRC, queryKHopPath(SRC, X, K), INLIST),
    #   findall(DST, queryKHopPath(X, DST, K), OUTLIST),
    #   append(INLIST, OUTLIST, TMPLIST), sort(TMPLIST, LIST).
    K, X, L, SRC, DST, IN, OUT, TMP = _v(
        "K", "X", "LIST", "SRC", "DST", "INLIST", "OUTLIST", "TMPLIST"
    )
    rules.append(
        (
            s("queryVertexKHopNbors", K, X, L),
            [
                s("queryVertex", X),
                s("findall", SRC, s("queryKHopPath", SRC, X, K), IN),
                s("findall", DST, s("queryKHopPath", X, DST, K), OUT),
                s("append", IN, OUT, TMP),
                s("sort", TMP, L),
            ],
        )
    )
    # kHopNborsAggregator(K, X, P, AGGR, RESULT) :-
    #   queryVertexKHopNbors(K, X, NBORS),
    #   convlist(property(P), NBORS, OUTLIST),
    #   foldl(AGGR, OUTLIST, 0, RESULT).
    K, X, P, AGGR, RES, NB, OUT = _v("K", "X", "P", "AGGR", "RESULT", "NBORS", "OUTLIST")
    rules.append(
        (
            s("kHopNborsAggregator", K, X, P, AGGR, RES),
            [
                s("queryVertexKHopNbors", K, X, NB),
                s("convlist", s("property", P), NB, OUT),
                s("foldl", AGGR, OUT, 0, RES),
            ],
        )
    )
    return rules


def all_rules() -> list[Rule]:
    """The full rule library (mining rules + view templates)."""
    return (
        constraint_mining_rules()
        + connector_view_templates()
        + summarizer_view_templates()
    )


def build_engine(
    pattern: QueryPattern | None,
    schema: GraphSchema,
    extra_facts: list[Struct] | None = None,
) -> Engine:
    """Assemble an inference engine loaded with the explicit facts of
    ``pattern``/``schema`` plus the full rule library (Fig. 4 pipeline)."""
    eng = Engine()
    eng.add_facts(schema_facts(schema))
    if pattern is not None:
        eng.add_facts(query_facts(pattern))
    # No query, a pattern with no edges or no var-length paths, or a
    # schema with no edges: make the fact predicates exist (empty) so
    # rules fail instead of raising "unknown predicate".
    for name, arity in [
        ("schemaEdge", 3),
        ("queryVertex", 1),
        ("queryVertexType", 2),
        ("queryEdge", 2),
        ("queryEdgeType", 3),
        ("queryVariableLengthPath", 4),
        ("queryReturned", 1),
        ("property", 3),
    ]:
        eng._db.setdefault((name, arity), [])
    if extra_facts:
        eng.add_facts(extra_facts)
    eng.add_rules(all_rules())
    return eng
