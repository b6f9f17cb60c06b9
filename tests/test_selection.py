"""Tests for view selection (§ V-B): knapsack solvers and the
workload-analyzer selection pass."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PROVENANCE_CORE, ViewEnumerator, parse_match
from repro.core.cost import CostModel
from repro.core.estimator import GraphStats, TypeStats
from repro.core.pattern import BLAST_RADIUS_MATCH
from repro.core.selection import (
    KnapsackItem,
    ViewSelector,
    knapsack_branch_and_bound,
    knapsack_dp,
)


def items_of(ws_vs):
    return [KnapsackItem(view=i, weight=w, value=v) for i, (w, v) in enumerate(ws_vs)]


class TestKnapsackBB:
    def test_takes_everything_under_budget(self):
        items = items_of([(1, 1.0), (2, 2.0), (3, 3.0)])
        chosen, val = knapsack_branch_and_bound(items, 10)
        assert chosen == [0, 1, 2] and val == 6.0

    def test_classic_instance(self):
        # weights/values where greedy-by-density is suboptimal
        items = items_of([(10, 60.0), (20, 100.0), (30, 120.0)])
        chosen, val = knapsack_branch_and_bound(items, 50)
        assert val == 220.0 and chosen == [1, 2]

    def test_zero_budget(self):
        items = items_of([(1, 5.0)])
        chosen, val = knapsack_branch_and_bound(items, 0)
        assert chosen == [] and val == 0.0

    def test_single_item_too_heavy(self):
        items = items_of([(100, 5.0)])
        chosen, val = knapsack_branch_and_bound(items, 50)
        assert chosen == []

    def test_float_weights(self):
        items = items_of([(1.5, 3.0), (1.6, 3.1), (2.9, 5.0)])
        chosen, val = knapsack_branch_and_bound(items, 3.1)
        assert val == pytest.approx(6.1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 20), st.floats(0, 50, allow_nan=False)),
            min_size=1,
            max_size=10,
        ),
        st.integers(0, 60),
    )
    def test_bb_matches_dp_oracle(self, ws_vs, budget):
        items = items_of(ws_vs)
        _, v_bb = knapsack_branch_and_bound(items, budget)
        _, v_dp = knapsack_dp(items, budget)
        assert v_bb == pytest.approx(v_dp)

    def test_dp_rejects_float_weights(self):
        with pytest.raises(ValueError):
            knapsack_dp(items_of([(1.5, 1.0)]), 10)


def _prov_stats(n_jobs=1000, n_files=2000, jdeg=3.0, fdeg=2.0):
    return GraphStats(
        n_vertices=n_jobs + n_files,
        n_edges=int(n_jobs * jdeg + n_files * fdeg),
        per_type={
            "Job": TypeStats("Job", n_jobs, {50: 1.0, 90: 2.0, 95: jdeg, 100: 10.0}),
            "File": TypeStats("File", n_files, {50: 1.0, 90: 1.5, 95: fdeg, 100: 8.0}),
        },
    )


class TestViewSelector:
    @pytest.fixture()
    def selector(self):
        enum = ViewEnumerator(PROVENANCE_CORE)
        return ViewSelector(enum, CostModel(schema=PROVENANCE_CORE, alpha=95))

    @pytest.fixture()
    def blast(self):
        return parse_match(BLAST_RADIUS_MATCH)

    def test_candidates_dedup_across_queries(self, selector, blast):
        cands = selector.candidate_views([blast, blast])
        assert len(cands) == len({(c.src_type, c.dst_type, c.k) for c in cands})

    def test_selects_2hop_connector_under_generous_budget(self, selector, blast):
        stats = _prov_stats()
        res = selector.select([blast], stats, budget=1e9)
        ks = sorted(c.k for c in res.chosen)
        assert 2 in ks  # the 2-hop job-to-job connector is the winner

    def test_respects_budget(self, selector, blast):
        stats = _prov_stats()
        cm = selector.cost_model
        size2 = cm.view_size(stats, selector.candidate_views([blast])[0])
        res = selector.select([blast], stats, budget=size2)  # room for k=2 only
        assert res.total_weight <= size2 + 1e-9
        assert all(c.k == 2 for c in res.chosen)

    def test_zero_budget_selects_nothing(self, selector, blast):
        res = selector.select([blast], _prov_stats(), budget=0)
        assert res.chosen == []

    def test_improvement_recorded_per_query(self, selector, blast):
        res = selector.select([blast], _prov_stats(), budget=1e9)
        assert any(qmap.get(0, 0) > 1 for qmap in res.per_query_improvement.values())

    def test_improvement_recorded_for_every_query(self, selector, blast):
        """The kept 2-hop candidate carries Q1's variable names and still
        improves a second query written with its own."""
        q4 = parse_match("MATCH (s:Job) -[r*1..4]-> (t:Job) RETURN s AS src, t AS dst")
        res = selector.select([blast, q4], _prov_stats(), budget=1e9)
        assert any(set(qmap) == {0, 1} for qmap in res.per_query_improvement.values())

    def test_homogeneous_connector_unselected_when_too_big(self, blast):
        """§ VII-F: 2-hop connectors over homogeneous power-law networks
        are unlikely to be materialized — their estimated size exceeds
        any reasonable budget relative to the raw graph."""
        from repro.core import HOMOGENEOUS

        q = parse_match(
            "MATCH (a:Vertex)-[p*1..4]->(b:Vertex) RETURN a AS A, b AS B"
        )
        enum = ViewEnumerator(HOMOGENEOUS)
        sel = ViewSelector(enum, CostModel(schema=HOMOGENEOUS, alpha=95))
        n, deg95 = 10_000, 40.0
        stats = GraphStats(
            n_vertices=n,
            n_edges=140_000,
            per_type={"Vertex": TypeStats("Vertex", n, {50: 8.0, 95: deg95, 100: 200.0})},
        )
        budget = stats.n_edges  # budget: the raw graph's own size
        res = sel.select([q], stats, budget=budget)
        assert all(c.k != 2 for c in res.chosen) or not res.chosen
