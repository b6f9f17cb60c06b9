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
    schema: GraphSchema, src_type: str, dst_type: str, max_k: int
) -> set[str]:
    """Vertex types that can appear on *some* schema walk
    ``src_type → … → dst_type`` of length ≤ ``max_k``.

    Used to make vertex-inclusion summarizers sound in the presence of
    *untyped* variable-length paths in the query: every type that could
    occur on a matching data path must be kept. Computed as a
    forward-level × backward-level intersection over the schema graph.
    """
    fwd: list[set[str]] = [{src_type}]
    for _ in range(max_k):
        fwd.append({t for f in fwd[-1] for t in schema.out_types(f)})
    inc = {e.src_type: set() for e in schema.edges}
    for e in schema.edges:
        inc.setdefault(e.dst_type, set()).add(e.src_type)
    bwd: list[set[str]] = [{dst_type}]
    for _ in range(max_k):
        bwd.append({t for b in bwd[-1] for t in inc.get(b, ())})
    out: set[str] = set()
    for k in range(max_k + 1):
        for i in range(k + 1):
            out |= fwd[i] & bwd[k - i]
    return out


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
        """Summarizer candidates: the sound vertex-inclusion summarizer
        (query types closed over untyped variable-length paths), plus
        removal candidates straight from the templates."""
        eng = self.engine_for(pattern)
        T = Var("T")
        keep = {r["T"] for r in eng.query(s("summarizerVertexInclusion", T))}
        # Close over untyped variable-length paths: any type reachable on
        # a schema walk between the endpoint types must be kept.
        for p in pattern.paths:
            if p.etype is None:
                st, dt = pattern.vtype(p.src), pattern.vtype(p.dst)
                if st and dt:
                    keep |= path_vertex_types(self.schema, st, dt, p.upper)
        out = [SummarizerCandidate("vertex_inclusion", frozenset(keep))]
        drop_v = {r["T"] for r in eng.query(s("summarizerVertexRemoval", T))}
        drop_v -= keep  # soundness: closure wins over the raw template
        if drop_v:
            out.append(SummarizerCandidate("vertex_removal", frozenset(drop_v)))
        drop_e = {r["T"] for r in eng.query(s("summarizerEdgeRemoval", T))}
        # An edge type is only removable if the query has no untyped
        # edges/paths that could traverse it between kept types.
        kept_edge_types = {
            e.etype
            for e in self.schema.edges
            if e.src_type in keep and e.dst_type in keep
        }
        untyped = any(p.etype is None for p in pattern.paths) or any(
            e.etype is None for e in pattern.edges
        )
        if untyped:
            drop_e -= kept_edge_types
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
    """Number of k-step schema walks per ``(src_type, dst_type)``: the
    k-th power of the typed adjacency matrix, with multi-edges counted
    (M parallel schema edges multiply walks)."""
    types = list(schema.vertex_types)
    idx = {t: i for i, t in enumerate(types)}
    n = len(types)
    adj = [[0] * n for _ in range(n)]
    for e in schema.edges:
        adj[idx[e.src_type]][idx[e.dst_type]] += 1

    def matmul(a, b):
        return [
            [sum(a[i][x] * b[x][j] for x in range(n)) for j in range(n)]
            for i in range(n)
        ]

    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    base = adj
    kk = k
    while kk:
        if kk & 1:
            power = matmul(power, base)
        base = matmul(base, base)
        kk >>= 1
    return {(a, b): power[idx[a]][idx[b]] for a in types for b in types}


def unconstrained_schema_walk_count(schema: GraphSchema, k: int) -> int:
    """Number of k-step walks over the schema graph — the size of the
    search space ``schemaKHopPath`` would explore with *no* query
    constraints (§ IV-A2 argues this is ≥ M^k with a schema cycle)."""
    return sum(schema_walk_counts(schema, k).values())
