"""View-based query rewriting (§ V-C).

Given a query pattern and a (candidate or materialized) connector view,
produce the equivalent rewritten pattern over the view: the traversal
core ``src ⇝ dst`` with feasible hop counts ``K`` becomes a
variable-length path over connector edges.

A connector view admits an *equivalence-preserving* single-view
rewriting iff (Lst. 1 → Lst. 4 in the paper):

1. it binds by type: ``src``/``dst`` are the query's only two projected
   vertices, typed ``(view.src_type, view.dst_type)``, and the whole
   pattern is one chain ``src → … → dst`` of length ≥ 1 (no branch,
   cycle or element the rewriting would drop);
2. for a **k-hop** connector, every schema-feasible end-to-end hop count
   ``K`` is a multiple of ``k`` (otherwise paths are lost), the ``K/k``
   form a contiguous range (Cypher's ``*lo..hi`` cannot express gaps),
   edges between two different types are not chained, and every schema
   walk ``src_type ⇝ src_type`` of each used length ``m·k`` is at
   ``src_type`` after every k edges, i.e. ``((M^k)[S,S])^m ==
   (M^{mk})[S,S]`` for the schema adjacency matrix ``M`` (otherwise a
   walk through another type there is lost);
3. for an **up-to-k** connector (pairs within 1..k hops), the ``K`` are
   exactly ``L..U`` with ``k | U`` and ``L ≤ U/k``, rewritten to
   ``*L..U/k``: a length-ℓ walk splits into ``max(L, ⌈ℓ/k⌉)`` steps of
   1..k edges, and m steps cover lengths ``[m, mk] ⊆ [L, U]``, so the
   pairs are the same, and so is the max of an edge property.

The rewriting keeps the query's variable names and RETURN order; the
candidate's own ``src_var``/``dst_var`` play no part.

Note: the paper's Listing 4 uses ``*1..4`` for the running example;
hop arithmetic gives ``*1..5`` (K ∈ {2,…,10}), which is what condition 2
produces here — see DESIGN.md § Known deviations.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..prolog import Var, s
from .enumerator import ConnectorCandidate, ViewEnumerator, schema_walk_counts
from .pattern import QueryPattern, VarLengthPath
from .schema import GraphSchema


@dataclass(frozen=True)
class Rewriting:
    """A query rewritten over a single connector view."""

    view: ConnectorCandidate
    original: QueryPattern
    rewritten: QueryPattern
    lower: int  # connector-hop bounds
    upper: int


def feasible_hop_counts(
    pattern: QueryPattern, schema: GraphSchema, src_var: str, dst_var: str
) -> list[int]:
    """Schema-feasible end-to-end hop counts between two query vertices:
    ``queryKHopPath`` values filtered by ``schemaKHopPath`` feasibility
    of the endpoint types (both rules from § IV)."""
    eng = ViewEnumerator(schema).engine_for(pattern)
    K = Var("K")
    ks = sorted({r["K"] for r in eng.query(s("queryKHopPath", src_var, dst_var, K))})
    st, dt = pattern.vtype(src_var), pattern.vtype(dst_var)
    out = []
    for k in ks:
        if k == 0:
            continue  # zero-length: endpoints coincide, no edge traversed
        if st is None or dt is None or eng.ask(s("schemaKHopPath", st, dt, k)):
            out.append(k)
    return out


def _is_chain(pattern: QueryPattern, src: str, dst: str) -> bool:
    """Condition 1's chain test, done before any Prolog call."""
    out: dict = {}
    for el in (*pattern.edges, *pattern.paths):
        if el.src in out:
            return False  # two elements leave one vertex
        out[el.src] = el
    at, seen, min_len = src, {src}, 0
    while at != dst:
        el = out.get(at)
        if el is None or el.dst in seen:
            return False
        min_len += el.lower if isinstance(el, VarLengthPath) else 1
        at = el.dst
        seen.add(at)
    return (
        min_len > 0
        and len(seen) == len(out) + 1
        and seen == {v.name for v in pattern.vertices}
    )


def _connector_hops(
    ks: list[int], view: ConnectorCandidate, schema: GraphSchema
) -> tuple[int, int] | None:
    """Connector-hop bounds for end-to-end hop counts ``ks``
    (conditions 2 and 3), or ``None``."""
    k = view.k
    if view.kind == "upto_khop":
        lo, hi = ks[0], ks[-1]
        if ks != list(range(lo, hi + 1)) or hi % k or lo > hi // k:
            return None
        return lo, hi // k
    if any(K % k for K in ks):
        return None
    hops = [K // k for K in ks]
    if hops != list(range(hops[0], hops[-1] + 1)):
        return None  # gapped ranges are inexpressible as *lo..hi
    if hops[-1] > 1 and not view.same_vertex_type:
        return None  # src_type → dst_type edges do not chain
    loop = (view.src_type, view.src_type)
    step = schema_walk_counts(schema, k)[loop]
    if any(step**m != schema_walk_counts(schema, m * k)[loop] for m in hops if m > 1):
        return None  # some walk is off src_type after a multiple of k edges
    return hops[0], hops[-1]


def rewrite_with_connector(
    pattern: QueryPattern, view: ConnectorCandidate, schema: GraphSchema
) -> Rewriting | None:
    """Rewrite ``pattern`` over ``view`` if equivalence-preserving
    (conditions in the module docstring); else ``None``."""
    projected = [var for var, _ in pattern.returns]
    if len(projected) != 2 or projected[0] == projected[1]:
        return None
    types = (view.src_type, view.dst_type)
    for src, dst in (projected, projected[::-1]):
        if (pattern.vtype(src), pattern.vtype(dst)) == types and _is_chain(
            pattern, src, dst
        ):
            break
    else:
        return None
    ks = feasible_hop_counts(pattern, schema, src, dst)
    bounds = _connector_hops(ks, view, schema) if ks else None
    if bounds is None:
        return None
    rewritten = QueryPattern(
        vertices=(pattern.vertex(src), pattern.vertex(dst)),
        paths=(VarLengthPath(src, dst, *bounds, view.edge_type),),
        returns=pattern.returns,
    )
    return Rewriting(
        view=view, original=pattern, rewritten=rewritten,
        lower=bounds[0], upper=bounds[1],
    )


def best_rewriting(
    pattern: QueryPattern,
    materialized: list[ConnectorCandidate],
    schema: GraphSchema,
    cost_of,
) -> Rewriting | None:
    """§ V-C: among materialized views applicable to ``pattern``, pick
    the rewriting with the smallest estimated evaluation cost
    (``cost_of(rewriting) -> float``). ``None`` if no view applies."""
    best: tuple[float, Rewriting] | None = None
    for view in materialized:
        rw = rewrite_with_connector(pattern, view, schema)
        if rw is None:
            continue
        c = cost_of(rw)
        if best is None or c < best[0]:
            best = (c, rw)
    return best[1] if best else None
