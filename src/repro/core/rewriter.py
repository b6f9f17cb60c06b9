"""View-based query rewriting (§ V-C).

Given a query pattern and a (candidate or materialized) connector view,
produce the equivalent rewritten pattern over the view: the traversal
core ``src ⇝ dst`` with feasible hop counts ``K`` becomes a
variable-length path over connector edges.

The decision needs hop arithmetic only, not the § IV inference engine
(which enumerates the views): the pattern's chain gives the hop counts,
every ``K`` in ``[Σ lower, Σ upper]`` but 0 (``queryKHopPath``), and
the schema keeps the feasible ones, where the number of K-step schema
walks ``(M^K)[st, dt]`` (``GraphSchema.walks``; ``M`` is the schema
adjacency matrix) is > 0 (``schemaKHopPath``). A connector view admits an
*equivalence-preserving* single-view rewriting iff (Lst. 1 → Lst. 4 in
the paper):

1. it binds by type: ``src``/``dst`` are the query's only two projected
   vertices, typed ``(view.src_type, view.dst_type)``, and the whole
   pattern is one chain ``src → … → dst`` of length ≥ 1 (no branch,
   cycle or element the rewriting would drop), whose interior
   constraints the schema implies: for every split of a hop count K
   over the chain's elements, the schema walks that follow the chain
   (each element on its edge type, each interior vertex on its declared
   type) are all ``(M^K)[st, dt]`` of them (otherwise the view, which
   contracts every walk, adds pairs);
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

import itertools
from dataclasses import dataclass

from .enumerator import ConnectorCandidate
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


def _chain(
    pattern: QueryPattern, src: str, dst: str
) -> list[VarLengthPath] | None:
    """The pattern's elements from ``src`` to ``dst``, following the one
    element that leaves each vertex on the way; ``None`` if a vertex on
    the way has none or several, or the walk comes back to a vertex."""
    leaving: dict[str, list] = {}
    for el in pattern.paths:
        leaving.setdefault(el.src, []).append(el)
    chain, at, seen = [], src, {src}
    while at != dst:
        els = leaving.get(at, [])
        if len(els) != 1 or els[0].dst in seen:
            return None
        chain.append(els[0])
        at = els[0].dst
        seen.add(at)
    return chain


def _walks(schema: GraphSchema, st: str, dt: str, K: int) -> int:
    """``(M^K)[st, dt]``: the number of K-step schema walks st ⇝ dt."""
    return schema.walks(st, K).get(dt, 0)


def feasible_hop_counts(
    pattern: QueryPattern, schema: GraphSchema, src_var: str, dst_var: str
) -> list[int]:
    """Schema-feasible end-to-end hop counts between two query vertices
    joined by a chain of the pattern: the chain's ``queryKHopPath``
    values, every K in [Σ lower, Σ upper] but 0, for which a K-step
    schema walk joins the endpoint types (``schemaKHopPath``, i.e.
    ``(M^K)[st, dt] > 0``). Empty when no chain joins them."""
    chain = _chain(pattern, src_var, dst_var)
    if chain is None:
        return []
    st, dt = pattern.vtype(src_var), pattern.vtype(dst_var)
    lo = sum(el.lower for el in chain)
    hi = sum(el.upper for el in chain)
    return [
        K for K in range(max(lo, 1), hi + 1)
        if st is None or dt is None or _walks(schema, st, dt, K) > 0
    ]


def _constraints_implied(
    pattern: QueryPattern, chain: list, schema: GraphSchema
) -> bool:
    """Condition 1's implied constraints: for every split of a hop count
    K over the chain's elements, the schema walks that follow the chain
    (each element on its edge type, each vertex on its declared type)
    are all ``(M^K)[st, dt]`` of them."""
    st, dt = pattern.vtype(chain[0].src), pattern.vtype(chain[-1].dst)
    for split in itertools.product(*(range(el.lower, el.upper + 1) for el in chain)):
        counts = {st: 1}
        for el, n in zip(chain, split):
            for _ in range(n):
                counts = schema.step(counts, el.etype)
            t = pattern.vtype(el.dst)
            if t is not None:
                counts = {t: counts.get(t, 0)}
        if counts.get(dt, 0) != _walks(schema, st, dt, sum(split)):
            return False
    return True


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
    src = view.src_type
    step = _walks(schema, src, src, k)
    if any(step**m != _walks(schema, src, src, m * k) for m in hops if m > 1):
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
    names = {v.name for v in pattern.vertices}
    types = (view.src_type, view.dst_type)
    for src, dst in (projected, projected[::-1]):
        if (pattern.vtype(src), pattern.vtype(dst)) != types:
            continue
        chain = _chain(pattern, src, dst)
        if chain is not None and len(chain) == len(pattern.paths) and names == {
            src, *(el.dst for el in chain)
        }:
            break
    else:
        return None
    if sum(el.lower for el in chain) == 0:
        return None  # a zero-length walk pairs a vertex with itself
    ks = feasible_hop_counts(pattern, schema, src, dst)
    bounds = _connector_hops(ks, view, schema) if ks else None
    if bounds is None or not _constraints_implied(pattern, chain, schema):
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
