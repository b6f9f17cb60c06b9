"""Inference-based view enumeration (§ IV-B).

The :class:`ViewEnumerator` loads query + schema facts and the rule
library into the inference engine, evaluates each view template, and
returns typed candidate-view descriptors. Candidates carry everything
the later stages need: the cost model sizes them
(:mod:`repro.core.estimator`), view selection knapsacks them
(:mod:`repro.core.selection`), the rewriter maps queries onto them
(:mod:`repro.core.rewriter`), and the Spark engine materializes them
(:mod:`repro.views`).
"""
from __future__ import annotations

from dataclasses import dataclass

from ..prolog import Engine, Var, s
from .pattern import QueryPattern
from .schema import GraphSchema
from .rules import build_engine


@dataclass(frozen=True)
class ConnectorCandidate:
    """A k-hop connector view candidate: contract k-length paths between
    vertices of ``src_type``/``dst_type`` into single edges.

    ``src_var``/``dst_var`` name the query vertices the template was
    instantiated for; the rewriter binds a view to a query by the types
    alone. ``kind`` records which template produced it: ``"khop"``
    contracts walks of exactly k edges; ``"upto_khop"`` is the
    homogeneous connector of
    :func:`repro.views.connectors.upto_khop_connector`, one edge per pair
    within 1..k hops.
    """

    src_var: str
    dst_var: str
    src_type: str
    dst_type: str
    k: int
    kind: str = "khop"

    @property
    def same_vertex_type(self) -> bool:
        return self.src_type == self.dst_type

    @property
    def edge_type(self) -> str:
        """The edge type of the materialized connector edges."""
        k = f"1TO{self.k}" if self.kind == "upto_khop" else self.k
        return f"CONN{k}_{self.src_type}_{self.dst_type}"


@dataclass(frozen=True)
class SourceToSinkCandidate:
    """Source-to-sink connector candidate (Table I, row 4)."""

    src_var: str
    dst_var: str
    src_type: str
    dst_type: str


@dataclass(frozen=True)
class SummarizerCandidate:
    """A summarizer view candidate. ``kind`` ∈ {"vertex_inclusion",
    "vertex_removal", "edge_removal"}; ``types`` is the type set the
    filter keeps or drops (Table II semantics)."""

    kind: str
    types: frozenset[str]


def path_vertex_types(
    schema: GraphSchema, src_type: str | None, dst_type: str | None,
    max_k: int, etype: str | None = None,
) -> set[str]:
    """Vertex types that can appear on *some* schema walk
    ``src_type → … → dst_type`` of length ≤ ``max_k`` over ``etype``
    edges (any edge type when ``None``); a ``None`` endpoint is any type.

    Used to make summarizers sound: every type that could occur on a
    matching data path must be kept. A type counts when walks reach it
    from the source in i steps and reach the destination from it in j
    steps, with i + j ≤ ``max_k``.
    """
    every = set(schema.vertex_types)

    def hops(starts: set[str], ends: set[str]) -> int:
        """Fewest steps from ``starts`` to ``ends``; ``max_k + 1`` if none
        within ``max_k``."""
        counts = dict.fromkeys(starts, 1)
        for n in range(max_k + 1):
            if ends & counts.keys():
                return n
            counts = schema.step(counts, etype)
        return max_k + 1

    starts = every if src_type is None else {src_type}
    ends = every if dst_type is None else {dst_type}
    return {t for t in every if hops(starts, {t}) + hops({t}, ends) <= max_k}


class ViewEnumerator:
    """Constraint-based view enumeration (Fig. 4): facts + mining rules +
    view templates → candidate views."""

    def __init__(self, schema: GraphSchema):
        self.schema = schema

    def engine_for(self, pattern: QueryPattern | None) -> Engine:
        return build_engine(pattern, self.schema)

    # -- connector templates -------------------------------------------

    def khop_connectors(
        self, pattern: QueryPattern, *, projected_only: bool = True
    ) -> list[ConnectorCandidate]:
        """Instantiations of ``kHopConnector`` (Listing 3). With
        ``projected_only`` (the § IV-B prose behaviour) only vertices
        projected out of the MATCH clause anchor candidates."""
        eng = self.engine_for(pattern)
        X, Y, XT, YT, K = (Var(n) for n in ("X", "Y", "XT", "YT", "K"))
        template = "projectedKHopConnector" if projected_only else "kHopConnector"
        rows = eng.query(s(template, X, Y, XT, YT, K))
        seen = set()
        out: list[ConnectorCandidate] = []
        for r in rows:
            key = (r["X"], r["Y"], r["XT"], r["YT"], r["K"])
            if key in seen:
                continue
            seen.add(key)
            out.append(
                ConnectorCandidate(
                    src_var=r["X"], dst_var=r["Y"], src_type=r["XT"],
                    dst_type=r["YT"], k=r["K"],
                )
            )
        return sorted(out, key=lambda c: (c.src_type, c.dst_type, c.k,
                                          c.src_var, c.dst_var))

    def source_to_sink_connectors(
        self, pattern: QueryPattern
    ) -> list[SourceToSinkCandidate]:
        eng = self.engine_for(pattern)
        X, Y = Var("X"), Var("Y")
        rows = eng.query(s("sourceToSinkConnector", X, Y))
        seen, out = set(), []
        for r in rows:
            if (r["X"], r["Y"]) in seen:
                continue
            seen.add((r["X"], r["Y"]))
            out.append(
                SourceToSinkCandidate(
                    src_var=r["X"], dst_var=r["Y"],
                    src_type=pattern.vtype(r["X"]), dst_type=pattern.vtype(r["Y"]),
                )
            )
        return sorted(out, key=lambda c: (c.src_var, c.dst_var))

    # -- summarizer templates -------------------------------------------

    def summarizers(self, pattern: QueryPattern) -> list[SummarizerCandidate]:
        """Summarizer candidates from the templates, closed over the
        pattern so that they are sound: every vertex type and edge type on
        a schema walk some element can match is kept, and so is the type
        of a vertex on no element (every type when it is untyped)."""
        eng = self.engine_for(pattern)
        T = Var("T")
        keep = {r["T"] for r in eng.query(s("summarizerVertexInclusion", T))}
        alone = {v.name for v in pattern.vertices}
        used: set[str] = set()
        for el in pattern.paths:
            alone -= {el.src, el.dst}
            on = path_vertex_types(
                self.schema, pattern.vtype(el.src), pattern.vtype(el.dst),
                el.upper, el.etype,
            )
            keep |= on
            used |= {
                e.etype for e in self.schema.edges
                if el.etype in (None, e.etype)
                and e.src_type in on and e.dst_type in on
            }
        for name in alone:
            vtype = pattern.vtype(name)
            keep |= set(self.schema.vertex_types) if vtype is None else {vtype}
        out = [SummarizerCandidate("vertex_inclusion", frozenset(keep))]
        drop_v = {r["T"] for r in eng.query(s("summarizerVertexRemoval", T))}
        drop_v -= keep  # soundness: closure wins over the raw template
        if drop_v:
            out.append(SummarizerCandidate("vertex_removal", frozenset(drop_v)))
        drop_e = {r["T"] for r in eng.query(s("summarizerEdgeRemoval", T))} - used
        if drop_e:
            out.append(SummarizerCandidate("edge_removal", frozenset(drop_e)))
        return out

    # -- full enumeration -------------------------------------------------

    def enumerate(self, pattern: QueryPattern):
        """All candidates from all templates, in a stable order."""
        return (
            self.khop_connectors(pattern)
            + [c for c in self.source_to_sink_connectors(pattern)]
            + self.summarizers(pattern)
        )


def schema_walk_counts(schema: GraphSchema, k: int) -> dict[tuple[str, str], int]:
    """Number of k-step schema walks per ``(src_type, dst_type)``, with
    multi-edges counted (M parallel schema edges multiply walks)."""
    types = schema.vertex_types
    walks = {a: schema.walks(a, k) for a in types}
    return {(a, b): walks[a].get(b, 0) for a in types for b in types}


def unconstrained_schema_walk_count(schema: GraphSchema, k: int) -> int:
    """Number of k-step walks over the schema graph — the size of the
    search space ``schemaKHopPath`` would explore with *no* query
    constraints (§ IV-A2 argues this is ≥ M^k with a schema cycle)."""
    return sum(schema_walk_counts(schema, k).values())
