"""Path expansion over edge DataFrames: one kernel under every traversal.

All variable-length path semantics in this engine are *reachability*
(distinct endpoint pairs), matching how the paper's workload consumes
matches (every query groups or sets over the matched endpoints, and
connector rewritings preserve reachability, not path multiplicity).

:func:`expand` is the kernel. Every pattern element
(``repro.engine.pattern_exec.element_pairs``), the k-hop pairs, the
max-``ts`` pairs of Q4, the walk counts of Fig. 5 and every connector in
``repro.views.connectors`` are one call of it. It varies in three ways
only: the value a walk carries (nothing, the max edge ``ts``, or the
number of walks), which hop lengths it emits (a range
``lower..upper`` that may start at 0, the zero-length walks of the
sources), and three vertex filters (``sources`` filters hop 1,
``through`` the vertices a walk may continue from, ``targets`` the
emitted pairs).

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
- **No exchange per hop.** The adjacency is partitioned by its source
  ``_m``, and every frontier inherits that partitioning through the
  ``_m → src`` alias: walks are keyed by where they start. A hop joins
  the frontier with the broadcast adjacency in place, so it neither
  moves nor sorts the frontier, and the joined rows keep their source
  partitioning. The dedup (or max / sum) on (src, dst) that follows is
  satisfied by it, and so are the union of a range of hop lengths and
  its merge. The one exchange of a call builds the adjacency; with
  ``lower = 0`` a second one partitions the zero-length walks (one row
  per source) by ``src`` before the union. The
  ``sources``/``through``/``targets`` filters (and
  :func:`restrict_endpoints`) broadcast their vertex ids, so they are
  map-side semi-joins too.
- **Broadcasts are hinted, not chosen by size.** The joins above carry
  an explicit broadcast hint, which Spark honours even when the session
  sets ``spark.sql.autoBroadcastJoinThreshold`` to -1; the threshold
  still governs every other join. The adjacency is distinct edges, a
  few MB for the largest graph this repository builds.
- **Hops run while the expansion is built.** Each hop's checkpoint
  executes its broadcast, so building a multi-hop expansion runs one
  small broadcast job per hop before any action. Expansion output is
  partitioned by ``src``.
"""
from __future__ import annotations

import operator
from functools import reduce
from typing import Callable, NamedTuple

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


class _Carry(NamedTuple):
    """A value carried along walks."""

    edge: Callable  # () -> one edge's value (built late: a Column needs a SparkContext)
    combine: Callable  # (walk value, next edge's value) -> extended walk's
    merge: Callable  # aggregate over the walks between one pair


_CARRY = {
    "max": _Carry(lambda: F.col("ts"), F.greatest, F.max),
    "count": _Carry(lambda: F.lit(1).cast("long"), operator.mul, F.sum),
}


def _keep(frame: DataFrame, col: str, vertices: DataFrame) -> DataFrame:
    """Rows of ``frame`` whose ``col`` is the ``id`` of one of ``vertices``,
    kept in place: the vertex ids are broadcast."""
    ids = F.broadcast(vertices.select(F.col("id").alias(col)))
    return frame.join(ids, col, "left_semi")


def _merged(rows: DataFrame, keys: tuple, carry: str | None, col: str) -> DataFrame:
    """``rows`` deduplicated on ``keys``, merging the carried ``col``."""
    if carry is None:
        return rows.distinct()
    return rows.groupBy(*keys).agg(_CARRY[carry].merge(col).alias(col))


def _adjacency(edges: DataFrame, carry: str | None) -> DataFrame:
    """(_m, _d[, _p]): distinct edges with the carried value merged over
    parallel edges, partitioned by source ``_m``; every frontier keeps
    that partitioning as ``src``."""
    cols = [F.col("src").alias("_m"), F.col("dst").alias("_d")]
    if carry is not None:
        cols.append(_CARRY[carry].edge().alias("_p"))
    adj = edges.select(*cols).repartition("_m")
    return _merged(adj, ("_m", "_d"), carry, "_p")


def _hop(frontier: DataFrame, adj: DataFrame, carry: str | None) -> DataFrame:
    """Extend every walk of ``frontier`` by one edge of ``adj``."""
    cols = [frontier.src, F.col("_d").alias("dst")]
    if carry is not None:
        cols.append(_CARRY[carry].combine(frontier.m, F.col("_p")).alias("m"))
    stepped = frontier.join(F.broadcast(adj), frontier.dst == adj._m).select(*cols)
    return _merged(stepped, ("src", "dst"), carry, "m").localCheckpoint(eager=False)


def expand(
    edges: DataFrame,
    lower: int,
    upper: int,
    carry: str | None = None,
    sources: DataFrame | None = None,
    through: DataFrame | None = None,
    targets: DataFrame | None = None,
) -> DataFrame:
    """Distinct pairs ``(src, dst)`` connected by a walk of length in
    ``[lower, upper]``, ``0 <= lower <= upper``.

    ``carry="max"`` adds ``m``, the maximum edge ``ts`` over all edges of
    all such walks (Q4's value and every connector's ``ts``, § VI-A);
    ``carry="count"`` adds ``m``, the number of such walks. ``sources``,
    ``through`` and ``targets`` are DataFrames with an ``id`` column: walks
    start at a source, pass only through ``through`` vertices, and are
    emitted only where they end at a target (``None`` = no restriction).

    A zero-length walk is ``(v, v)`` for every ``sources`` id that
    ``targets`` keeps, so ``lower = 0`` needs ``sources``; it carries no
    edge, so it takes no ``carry``.

    The output is partitioned by ``src``. With ``upper > 1`` every hop is
    checkpointed as it is built, which runs one small broadcast job per
    hop before any action.
    """
    if not 0 <= lower <= upper:
        raise ValueError(f"need 0 <= lower <= upper, got [{lower}, {upper}]")
    pieces = []
    if lower == 0:
        if sources is None or carry is not None:
            raise ValueError("lower=0 needs sources and no carry")
        ids = sources.select(F.col("id").alias("src"), F.col("id").alias("dst"))
        pieces.append(ids.repartition("src"))  # keyed by source, as walks are
    adj = _adjacency(edges, carry)  # lazy: upper = 0 never reads it
    if upper > 1:  # both are read again by every hop
        adj = adj.localCheckpoint(eager=False)
    cols = [F.col("_m").alias("src"), F.col("_d").alias("dst")]
    if carry is not None:
        cols.append(F.col("_p").alias("m"))
    frontier = adj.select(*cols)
    if sources is not None:
        frontier = _keep(frontier, "src", sources)
    if upper > 1:
        frontier = frontier.localCheckpoint(eager=False)
    for k in range(1, upper + 1):
        if k > 1:
            if through is not None:
                frontier = _keep(frontier, "dst", through)
            frontier = _hop(frontier, adj, carry)
        if k >= lower:
            pieces.append(frontier)
    pairs = reduce(DataFrame.unionByName, pieces)
    if targets is not None:
        pairs = _keep(pairs, "dst", targets)
    if lower == upper > 0:  # one hop length: already distinct
        return pairs
    return _merged(pairs, ("src", "dst"), carry, "m")


def khop_pairs(edges: DataFrame, k: int) -> DataFrame:
    """Distinct vertex pairs connected by a walk of *exactly* k edges."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return expand(edges, k, k)


def khop_walk_count(edges: DataFrame, k: int) -> int:
    """Number of k-edge walks between distinct endpoints: closed walks
    are dropped. For k ≤ 2 on a loop-free graph this is the number of
    k-length *simple* paths, the quantity Fig. 5 compares the estimator
    against for 2-hop connectors."""
    if k < 1:
        raise ValueError("k must be >= 1")
    walks = expand(edges, k, k, carry="count").where(F.col("src") != F.col("dst"))
    row = walks.agg(F.sum("m").alias("total")).collect()[0]
    return int(row["total"] or 0)


def khop_pairs_with_max(edges: DataFrame, lower: int, upper: int) -> DataFrame:
    """Distinct pairs within ``[lower, upper]`` hops, with ``m``, the
    maximum edge ``ts`` over *all* edges of *all* connecting walks.

    Max is associative and commutative, so this composes exactly across
    path contraction: running it over a connector whose edges carry the
    per-contracted-path max yields the same result as over the raw graph
    (the Q4 equivalence).
    """
    if lower < 1:
        raise ValueError("lower must be >= 1 (zero-length paths carry no edges)")
    return expand(edges, lower, upper, carry="max")


def restrict_endpoints(
    pairs: DataFrame,
    vertices: DataFrame,
    src_type: str | None = None,
    dst_type: str | None = None,
) -> DataFrame:
    """Filter a pair table to endpoints of the given vertex types, as
    map-side semi-joins with the broadcast vertex ids."""
    out = pairs
    for col, vtype in (("dst", dst_type), ("src", src_type)):
        if vtype is not None:
            out = _keep(out, col, vertices.where(F.col("vtype") == vtype))
    return out
