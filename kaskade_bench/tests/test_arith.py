"""The benchmark's own arithmetic, checked without a Spark session:

    python3 -m pytest kaskade_bench/tests -q -p no:cacheprovider
"""
import math
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from arith import (  # noqa: E402
    HASH_MOD,
    combine_row_hashes,
    iqr_share,
    median,
    outermost_total,
    q_error,
    ratio,
    self_times,
    slot_share,
    tail_percentile,
)


# -- result fingerprints ------------------------------------------------------


def test_fingerprint_ignores_row_order():
    hashes = [random.Random(1).getrandbits(64) - (1 << 63) for _ in range(500)]
    shuffled = hashes[:]
    random.Random(2).shuffle(shuffled)
    assert combine_row_hashes(hashes) == combine_row_hashes(shuffled)


def test_fingerprint_sees_a_changed_or_missing_row():
    hashes = [11, -7, 1 << 40, -(1 << 62)]
    base = combine_row_hashes(hashes)
    assert combine_row_hashes(hashes[:-1]) != base
    assert combine_row_hashes(hashes[:-1] + [12]) != base
    # A duplicated row changes the count even when its residue is 0.
    assert combine_row_hashes(hashes + [HASH_MOD]) != base


def test_fingerprint_residues_match_spark_pmod():
    # Spark's pmod(h, 2**32) is non-negative for negative h, as is %.
    n, total = combine_row_hashes([-1, -HASH_MOD, HASH_MOD + 5])
    assert (n, total) == (3, (HASH_MOD - 1) + 0 + 5)


# -- percentiles ----------------------------------------------------------


def test_no_tail_percentile_below_ten_samples_beyond():
    assert tail_percentile(range(10)) is None
    assert tail_percentile(range(19)) is None


def test_p90_needs_ten_samples_beyond_it():
    got = tail_percentile(range(1, 101))  # 100 samples: p99 has 1 beyond
    assert got == (90.0, 90.0)
    assert sum(1 for v in range(1, 101) if v > got[1]) == 10


def test_p99_from_one_thousand_samples():
    values = list(range(1, 1001))
    random.Random(3).shuffle(values)
    p, v = tail_percentile(values)
    assert (p, v) == (99.0, 990.0)
    assert sum(1 for x in values if x > v) >= 10


def test_median():
    assert median([3, 1, 2]) == 2.0
    assert median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        median([])


# -- q-error and ratios ------------------------------------------------------


def test_q_error_is_symmetric_and_at_least_one():
    assert q_error(100, 25) == q_error(25, 100) == 4.0
    assert q_error(7, 7) == 1.0
    assert q_error(0, 0) == 1.0
    assert math.isinf(q_error(0, 5))
    with pytest.raises(ValueError):
        q_error(-1, 5)


def test_ratio_base_must_be_positive():
    assert ratio(1, 4) == 0.25
    with pytest.raises(ValueError):
        ratio(1, 0)


def test_slot_share_base_is_wall_time_times_slots():
    # 6 s of task time in 2 s of wall time on 4 slots: 3/4 of slot time.
    assert slot_share(6.0, 2.0, 4) == 0.75
    assert slot_share(0.0, 0.0, 4) == 0.0


def test_plan_ratio_bases():
    from types import SimpleNamespace

    # The planner ratios live with the workloads, which import pyspark
    # (but start no session).
    pytest.importorskip("pyspark")
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    from workloads import Plan, hit_ratio, served_ratio

    rw = SimpleNamespace(view=SimpleNamespace(edge_type="V"), lower=1, upper=5)
    # 4 queries, 1 chosen view: Q1 rewritten, Q2-Q4 refused.
    p = Plan(chosen=["V"], rewritings=[rw, None, None, None], attempts=4,
             candidates=5, useful=1)
    assert served_ratio(p) == 0.25  # base: queries
    assert hit_ratio(p) == 0.25  # base: (query, chosen view) attempts
    # 2 chosen views: Q1 hits the first, Q2 misses both -> 1 hit / 3 tries.
    p2 = Plan(chosen=["V", "W"], rewritings=[rw, None], attempts=3,
              candidates=5, useful=2)
    assert hit_ratio(p2) == pytest.approx(1 / 3)
    assert served_ratio(p2) == 0.5
    # No chosen view: nothing attempted, nothing served.
    p3 = Plan(chosen=[], rewritings=[None, None], attempts=0, candidates=5, useful=0)
    assert hit_ratio(p3) == 0.0 and served_ratio(p3) == 0.0
    # A plan that never got queries (its pass failed) serves nothing.
    p4 = Plan(chosen=[], rewritings=[], attempts=0, candidates=0, useful=0)
    assert served_ratio(p4) == 0.0


# -- spans -------------------------------------------------------------------


def _span(i, parent, layer, start, end):
    return {"id": i, "parent": parent, "layer": layer, "start": start, "end": end}


def test_self_time_subtracts_children():
    spans = [
        _span(0, None, "selection", 0.0, 10.0),
        _span(1, 0, "enumerator", 1.0, 4.0),
        _span(2, 1, "rules", 1.5, 2.5),
        _span(3, 0, "cost", 5.0, 9.0),
        _span(4, 3, "rewriter", 6.0, 7.0),
    ]
    st = self_times(spans)
    assert st == {
        "selection": pytest.approx(10 - 3 - 4),
        "enumerator": pytest.approx(3 - 1),
        "rules": pytest.approx(1.0),
        "cost": pytest.approx(4 - 1),
        "rewriter": pytest.approx(1.0),
    }
    # Self times partition the root's duration.
    assert sum(st.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [
        _span(0, None, "a", 0.0, 10.0),
        _span(1, 0, "b", 2.0, 6.0),
        _span(2, 0, "b", 4.0, 8.0),
    ]
    assert self_times(spans)["a"] == pytest.approx(4.0)


def test_outermost_total_does_not_double_count_nesting():
    spans = [
        _span(0, None, "bench", 0.0, 10.0),
        _span(1, 0, "rewriter", 1.0, 3.0),
        _span(2, 1, "prolog", 1.5, 2.0),
        _span(3, 2, "rewriter", 1.6, 1.8),  # re-entered below another layer
        _span(4, 0, "rewriter", 4.0, 5.0),
    ]
    assert outermost_total(spans, "rewriter") == pytest.approx(3.0)
    assert outermost_total(spans, "prolog") == pytest.approx(0.5)


# -- spread ------------------------------------------------------------------


def test_iqr_share_matches_statistics_quantiles():
    vals = [10, 11, 12, 13, 14, 15, 16, 17, 18, 19]
    # quantiles(n=4) with the default 'exclusive' method: 11.75 and 17.25
    assert iqr_share(vals) == pytest.approx((17.25 - 11.75) / 14.5)
