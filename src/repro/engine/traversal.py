"""Path expansion over edge DataFrames: one kernel under every traversal.

All variable-length path semantics in this engine are *reachability*
(distinct endpoint pairs), matching how the paper's workload consumes
matches (every query groups or sets over the matched endpoints, and
connector rewritings preserve reachability, not path multiplicity).

:func:`expand` is the kernel. The k-hop and variable-length pairs, the
max-``ts`` pairs of Q4, the walk counts of Fig. 5 and every connector in
``repro.views.connectors`` are thin wrappers over it. It varies in three
ways only: the value a walk carries (nothing, the max of an edge
property, or the number of walks), which hop lengths it emits (exactly
k, or any length in a range), and three vertex filters (``sources``
filters hop 1, ``through`` the vertices a walk may continue from,
``targets`` the emitted pairs).

How it runs:

- **Lineage is cut at a leaf.** The edge table is read once per call
  into an adjacency of distinct (src, dst) pairs, partitioned by source
  and, when a second hop will read it, local-checkpointed. Every hop's
  frontier is local-checkpointed as well, so a hop's plan is two leaves
  joined: the driver never plans against the edges' lineage again, and
  a materialized view is read from its cache exactly once.
- **The adjacency gets fresh column identities.** Its columns are
  renamed (to ``_m``, ``_d``, ``_p``) before the checkpoint, so no
  frontier carries the attribute IDs of the edge table it came from. A
  frontier that kept them, joined with the edges again, made Spark's
  self-join dedup re-instance the edge side. For a materialized
  multi-hop connector the re-instanced plan no longer matched the cached
  view, so every hop recomputed the view from its construction lineage
  instead of reading it. The new names must differ from the old ones:
  the optimizer drops an alias that keeps the name, and the checkpoint
  would then record its partitioning over attributes it does not output.
- **One exchange per hop.** The adjacency is partitioned by its source
  and every frontier by its destination, so the hop join needs no
  exchange on either side. The joined rows are repartitioned by their
  new destination, and that single exchange also serves the dedup (or
  max / sum) that follows, since grouping on (src, dst) is satisfied by
  a partitioning on dst. All emitted frontiers share that partitioning,
  so merging a range of hop lengths adds no exchange either. The price
  is the map-side partial merge, which would need its own exchange on
  (src, dst) and then another on dst for the next join; on the
  soc-reach benchmark graph that layout shuffled more bytes, not fewer.

Broadcast joins are disabled by the session, so every join takes the
shuffle path the layout above is built for.
"""
from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, NamedTuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


class _Carry(NamedTuple):
    """A value carried along walks."""

    edge: Callable  # edge property name -> one edge's value
    combine: Callable  # (walk value, next edge's value) -> extended walk's
    merge: Callable  # aggregate over the walks between one pair


_CARRY = {
    "max": _Carry(F.col, F.greatest, F.max),
    "count": _Carry(lambda _prop: F.lit(1).cast("long"), operator.mul, F.sum),
}


def _keep(frame: DataFrame, col: str, vertices: DataFrame) -> DataFrame:
    """Rows of ``frame`` whose ``col`` is the ``id`` of one of ``vertices``."""
    return frame.join(vertices.select(F.col("id").alias(col)), col, "left_semi")


def _merged(rows: DataFrame, keys: tuple, carry: str | None, col: str) -> DataFrame:
    """``rows`` deduplicated on ``keys``, merging the carried ``col``."""
    if carry is None:
        return rows.distinct()
    return rows.groupBy(*keys).agg(_CARRY[carry].merge(col).alias(col))


def _adjacency(edges: DataFrame, carry: str | None, prop: str) -> DataFrame:
    """(_m, _d[, _p]): distinct edges with the carried value merged over
    parallel edges, partitioned by source ``_m``."""
    cols = [F.col("src").alias("_m"), F.col("dst").alias("_d")]
    if carry is not None:
        cols.append(_CARRY[carry].edge(prop).alias("_p"))
    adj = edges.select(*cols).repartition("_m")
    return _merged(adj, ("_m", "_d"), carry, "_p")


def _hop(frontier: DataFrame, adj: DataFrame, carry: str | None) -> DataFrame:
    """Extend every walk of ``frontier`` by one edge of ``adj``."""
    cols = [frontier.src, F.col("_d").alias("dst")]
    if carry is not None:
        cols.append(_CARRY[carry].combine(frontier.m, F.col("_p")).alias("m"))
    stepped = (
        frontier.join(adj, frontier.dst == adj._m).select(*cols).repartition("dst")
    )
    return _merged(stepped, ("src", "dst"), carry, "m").localCheckpoint(eager=False)


def expand(
    edges: DataFrame,
    lower: int,
    upper: int,
    carry: str | None = None,
    prop: str = "ts",
    sources: DataFrame | None = None,
    through: DataFrame | None = None,
    targets: DataFrame | None = None,
) -> DataFrame:
    """Distinct pairs ``(src, dst)`` connected by a walk of length in
    ``[lower, upper]``, with ``hops`` = the shortest such length.

    ``carry="max"`` adds ``m``, the maximum of edge property ``prop`` over
    all edges of all such walks; ``carry="count"`` adds ``m``, the number
    of such walks. ``sources``, ``through`` and ``targets`` are DataFrames
    with an ``id`` column: walks start at a source, pass only through
    ``through`` vertices, and are emitted only where they end at a target
    (``None`` = no restriction).
    """
    if not 1 <= lower <= upper:
        raise ValueError(f"need 1 <= lower <= upper, got [{lower}, {upper}]")
    adj = _adjacency(edges, carry, prop)
    if upper > 1:  # both are read again by every hop
        adj = adj.localCheckpoint(eager=False)
    cols = [F.col("_m").alias("src"), F.col("_d").alias("dst")]
    if carry is not None:
        cols.append(F.col("_p").alias("m"))
    frontier = adj.select(*cols)
    if sources is not None:
        frontier = _keep(frontier, "src", sources)
    if upper > 1:
        frontier = frontier.repartition("dst").localCheckpoint(eager=False)
    pieces = []
    for k in range(1, upper + 1):
        if k > 1:
            if through is not None:
                frontier = _keep(frontier, "dst", through)
            frontier = _hop(frontier, adj, carry)
        if k >= lower:
            pieces.append(frontier.withColumn("hops", F.lit(k)))
    pairs = reduce(DataFrame.unionByName, pieces)
    if targets is not None:
        pairs = _keep(pairs, "dst", targets)
    if len(pieces) == 1:
        return pairs
    aggs = [] if carry is None else [_CARRY[carry].merge("m").alias("m")]
    return pairs.groupBy("src", "dst").agg(*aggs, F.min("hops").alias("hops"))


def khop_pairs(edges: DataFrame, k: int) -> DataFrame:
    """Distinct vertex pairs connected by a walk of *exactly* k edges."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return expand(edges, k, k).select("src", "dst")


def var_length_pairs(
    edges: DataFrame,
    lower: int,
    upper: int,
    zero_vertices: DataFrame | None = None,
    sources: DataFrame | None = None,
    targets: DataFrame | None = None,
) -> DataFrame:
    """Distinct pairs connected by a walk of length in ``[lower, upper]``.

    ``lower == 0`` adds identity pairs for ``zero_vertices`` (a DataFrame
    with an ``id`` column — the vertices a zero-length path may anchor).
    ``sources`` and ``targets`` restrict the endpoints as in
    :func:`expand`, identity pairs included.
    """
    if lower == 0 and zero_vertices is None:
        raise ValueError("lower=0 requires zero_vertices")
    pairs = None
    if upper >= 1:
        pairs = expand(
            edges, max(lower, 1), upper, sources=sources, targets=targets
        ).select("src", "dst")
    if lower > 0:
        return pairs
    ident = zero_vertices.select("id")
    for ends in (sources, targets):
        if ends is not None:
            ident = _keep(ident, "id", ends)
    ident = ident.select(F.col("id").alias("src"), F.col("id").alias("dst"))
    if pairs is None:
        return ident.distinct()
    return pairs.unionByName(ident).distinct()


def khop_walk_count(edges: DataFrame, k: int, exclude_loops: bool = True) -> int:
    """Number of k-edge walks; with ``exclude_loops``, walks whose
    endpoints coincide are dropped (for k ≤ 2 on a loop-free graph this
    equals the number of k-length *simple* paths — the quantity Fig. 5
    compares the estimator against for 2-hop connectors)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    walks = expand(edges, k, k, carry="count")
    if exclude_loops:
        walks = walks.where(F.col("src") != F.col("dst"))
    row = walks.agg(F.sum("m").alias("total")).collect()[0]
    return int(row["total"] or 0)


def khop_pairs_with_max(
    edges: DataFrame, lower: int, upper: int, prop: str = "ts"
) -> DataFrame:
    """Distinct pairs within ``[lower, upper]`` hops, with the maximum of
    edge property ``prop`` over *all* edges of *all* connecting walks.

    Max is associative and commutative, so this composes exactly across
    path contraction: running it over a connector whose edges carry the
    per-contracted-path max yields the same result as over the raw graph
    (the Q4 equivalence).
    """
    if lower < 1:
        raise ValueError("lower must be >= 1 (zero-length paths carry no edges)")
    return expand(edges, lower, upper, carry="max", prop=prop).select(
        "src", "dst", "m"
    )


def restrict_endpoints(
    pairs: DataFrame,
    vertices: DataFrame,
    src_type: str | None = None,
    dst_type: str | None = None,
) -> DataFrame:
    """Filter a pair table to endpoints of the given vertex types. The
    destination goes first: expansion output is partitioned by it."""
    out = pairs
    for col, vtype in (("dst", dst_type), ("src", src_type)):
        if vtype is not None:
            out = _keep(out, col, vertices.where(F.col("vtype") == vtype))
    return out
