"""View selection as 0/1 knapsack (§ V-B).

Knapsack size = the space budget for materialized views; items = the
candidate views from the enumerator; item weight = estimated view size;
item value = Σ over workload queries of (performance improvement of the
view for the query) ÷ (view creation cost). The paper solves this with
Google OR-tools' branch-and-bound solver; ours is an exact
branch-and-bound with the fractional-relaxation bound (a DP solver is
kept as a test oracle).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CostModel
from .enumerator import ConnectorCandidate, ViewEnumerator
from .estimator import GraphStats
from .pattern import QueryPattern


@dataclass(frozen=True)
class KnapsackItem:
    """One candidate view with its knapsack weight and value."""

    view: object
    weight: float
    value: float


def knapsack_branch_and_bound(
    items: list[KnapsackItem], budget: float
) -> tuple[list[int], float]:
    """Exact 0/1 knapsack. Returns (chosen item indices, total value).

    Depth-first branch-and-bound ordered by value density, pruned with
    the fractional (LP-relaxation) upper bound — the classic algorithm
    behind OR-tools' ``KNAPSACK_MULTIDIMENSION_BRANCH_AND_BOUND_SOLVER``
    in one dimension.
    """
    order = sorted(
        range(len(items)),
        key=lambda i: (items[i].value / items[i].weight) if items[i].weight > 0
        else float("inf"),
        reverse=True,
    )
    sorted_items = [items[i] for i in order]
    best_value = 0.0
    best_set: list[int] = []

    def bound(i: int, cap: float) -> float:
        """Fractional relaxation of the remaining items."""
        total = 0.0
        while i < len(sorted_items) and cap > 0:
            it = sorted_items[i]
            if it.weight <= cap:
                total += it.value
                cap -= it.weight
            else:
                total += it.value * (cap / it.weight) if it.weight > 0 else it.value
                cap = 0
            i += 1
        return total

    def go(i: int, cap: float, value: float, taken: list[int]) -> None:
        nonlocal best_value, best_set
        if value > best_value:
            best_value, best_set = value, list(taken)
        if i == len(sorted_items) or value + bound(i, cap) <= best_value:
            return
        it = sorted_items[i]
        if it.weight <= cap:
            taken.append(i)
            go(i + 1, cap - it.weight, value + it.value, taken)
            taken.pop()
        go(i + 1, cap, value, taken)

    go(0, budget, 0.0, [])
    return sorted(order[i] for i in best_set), best_value


def knapsack_dp(
    items: list[KnapsackItem], budget: int
) -> tuple[list[int], float]:
    """Exact DP solver over *integer* weights — the test oracle for the
    branch-and-bound implementation."""
    for it in items:
        if int(it.weight) != it.weight:
            raise ValueError("DP oracle requires integer weights")
    cap = int(budget)
    table: dict[int, tuple[float, tuple[int, ...]]] = {0: (0.0, ())}
    for i, it in enumerate(items):
        nxt = dict(table)
        for w, (v, chosen) in table.items():
            w2 = w + int(it.weight)
            if w2 > cap:
                continue
            v2 = v + it.value
            if w2 not in nxt or v2 > nxt[w2][0]:
                nxt[w2] = (v2, chosen + (i,))
        table = nxt
    best_v, best_c = max(table.values(), key=lambda t: t[0])
    return sorted(best_c), best_v


@dataclass(frozen=True)
class SelectionResult:
    """Output of view selection: chosen views plus diagnostics."""

    chosen: list
    items: list[KnapsackItem]
    total_value: float
    total_weight: float
    budget: float
    per_query_improvement: dict[int, dict[int, float]] = field(default_factory=dict)


class ViewSelector:
    """The workload analyzer's view-selection pass (§ V-B): enumerate
    candidates per query, price them, knapsack under the budget."""

    def __init__(self, enumerator: ViewEnumerator, cost_model: CostModel):
        self.enumerator = enumerator
        self.cost_model = cost_model

    def candidate_views(self, queries: list[QueryPattern]) -> list[ConnectorCandidate]:
        """Union of connector candidates over the workload, deduplicated
        by the view they'd materialize (type pair + k)."""
        seen: dict[tuple, ConnectorCandidate] = {}
        for q in queries:
            for c in self.enumerator.khop_connectors(q):
                seen.setdefault((c.src_type, c.dst_type, c.k), c)
        return [seen[k] for k in sorted(seen)]

    def select(
        self,
        queries: list[QueryPattern],
        stats: GraphStats,
        budget: float,
    ) -> SelectionResult:
        cm = self.cost_model
        cands = self.candidate_views(queries)
        items: list[KnapsackItem] = []
        per_query: dict[int, dict[int, float]] = {}
        for vi, view in enumerate(cands):
            creation = cm.creation_cost(stats, view)
            imp = 0.0
            for qi, q in enumerate(queries):
                one = cm.improvement(stats, q, view)
                if one > 0:
                    per_query.setdefault(vi, {})[qi] = one
                imp += one
            value = imp / creation if creation > 0 else 0.0
            items.append(
                KnapsackItem(view=view, weight=cm.view_size(stats, view), value=value)
            )
        # Views that improve nothing are never worth materializing.
        useful = [i for i, it in enumerate(items) if it.value > 0]
        chosen_rel, total_value = knapsack_branch_and_bound(
            [items[i] for i in useful], budget
        )
        chosen_idx = [useful[i] for i in chosen_rel]
        return SelectionResult(
            chosen=[items[i].view for i in chosen_idx],
            items=items,
            total_value=total_value,
            total_weight=sum(items[i].weight for i in chosen_idx),
            budget=budget,
            per_query_improvement=per_query,
        )
