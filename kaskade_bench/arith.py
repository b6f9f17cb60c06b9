"""The benchmark's own arithmetic: medians, the tail-percentile rule,
result fingerprints, q-error, span self time and the ratios it reports.

Everything here is plain Python so ``kaskade_bench/tests`` can check it
without a Spark session.
"""
from __future__ import annotations

import math
import statistics

HASH_MOD = 1 << 32

# Percentiles the benchmark may report, highest first. A percentile is
# reported only when at least MIN_BEYOND samples lie beyond it.
PERCENTILE_LADDER = (99.9, 99.0, 95.0, 90.0)
MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def tail_percentile(values) -> tuple[float, float] | None:
    """``(p, value)`` for the highest percentile of ``PERCENTILE_LADDER``
    with at least ``MIN_BEYOND`` samples strictly above its nearest rank,
    or ``None`` when there are too few samples for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILE_LADDER:
        rank = math.ceil(n * p / 100.0)  # nearest rank, 1-based
        if n - rank >= MIN_BEYOND and rank >= 1:
            return p, float(ordered[rank - 1])
    return None


def combine_row_hashes(hashes) -> tuple[int, int]:
    """Order-independent fingerprint of a result: ``(rows, Σ h mod 2³²)``.

    The benchmark computes the same expression in Spark over
    ``xxhash64`` of each row (columns in name order); this is its
    reference. Summing residues below 2³² cannot overflow a 64-bit sum
    for fewer than 2³¹ rows.
    """
    n, total = 0, 0
    for h in hashes:
        n += 1
        total += h % HASH_MOD
    return n, total


def q_error(estimate: float, actual: float) -> float:
    """max(est/act, act/est): 1 is exact; ``inf`` if exactly one side is 0."""
    if estimate < 0 or actual < 0:
        raise ValueError("q-error of a negative size")
    if estimate == 0 and actual == 0:
        return 1.0
    if estimate == 0 or actual == 0:
        return float("inf")
    return max(estimate / actual, actual / estimate)


def ratio(numerator: float, base: float) -> float:
    """``numerator / base``; the base must be positive."""
    if base <= 0:
        raise ValueError(f"ratio base must be positive, got {base}")
    return numerator / base


def slot_share(busy_s: float, wall_s: float, slots: int) -> float:
    """Executor run time ÷ the slot time a call had (``wall_s`` × task
    slots): near 1 when tasks fill every slot, near 0 when the call is
    mostly scheduling and stage overhead. 0 for a call that took no time."""
    return ratio(busy_s, wall_s * slots) if wall_s > 0 else 0.0


def self_times(spans) -> dict[str, float]:
    """Self time per layer: each span's duration minus the part of its
    interval covered by its direct children, summed by layer.

    ``spans`` are mappings with ``id``, ``parent``, ``layer``, ``start``
    and ``end``.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    out: dict[str, float] = {}
    for sp in spans:
        covered = _covered(
            [
                (max(a, sp["start"]), min(b, sp["end"]))
                for a, b in children.get(sp["id"], [])
            ]
        )
        own = (sp["end"] - sp["start"]) - covered
        out[sp["layer"]] = out.get(sp["layer"], 0.0) + own
    return out


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_a, cur_b = 0.0, None, None
    for a, b in sorted(i for i in intervals if i[1] > i[0]):
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def outermost_total(spans, layer: str) -> float:
    """Inclusive time of ``layer``: the summed duration of its spans that
    have no ancestor in the same layer (so recursion is not counted
    twice)."""
    by_id = {sp["id"]: sp for sp in spans}
    total = 0.0
    for sp in spans:
        if sp["layer"] != layer:
            continue
        p = sp["parent"]
        while p is not None and by_id[p]["layer"] != layer:
            p = by_id[p]["parent"]
        if p is None:
            total += sp["end"] - sp["start"]
    return total


def iqr_share(values) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
