"""View creation cost and query evaluation cost (§ V-A).

- **View creation cost** is I/O-dominated, hence directly proportional
  to the estimated view size (the paper omits the compute term).
- **Query evaluation cost**: the paper proxies this with Neo4j's
  cost-based optimizer. Our substitute (DESIGN.md § Substitutions) sums
  the estimated traversal frontier per hop using the paper's own size
  estimator (Eqs. 2/3): evaluating a traversal of up to ``H`` hops costs
  ``Σ_{k=1..H} Ê(G, k, α)``. Any monotone-in-work proxy preserves the
  *ranking* of plans, which is all view selection and rewriting need.
- **Rewritten-query cost** uses the same formula over the (estimated)
  connector graph: ``n_src`` vertices whose α-degree is ``deg_α^k``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .enumerator import ConnectorCandidate, SummarizerCandidate
from .estimator import GraphStats, TypeStats, estimate_connector_size, estimate_khop_paths
from .pattern import QueryPattern
from .rewriter import Rewriting, rewrite_with_connector
from .schema import GraphSchema


def pattern_max_hops(pattern: QueryPattern) -> int:
    """Upper bound on the end-to-end traversal length of a pattern."""
    return sum(p.upper for p in pattern.paths)


@dataclass(frozen=True)
class CostModel:
    """Kaskade's cost model, parameterized by the degree percentile α
    (the paper operates at α=95, § V-A/§ VII-D)."""

    schema: GraphSchema
    alpha: int = 95

    # -- view costs -----------------------------------------------------

    def view_size(self, stats: GraphStats, view) -> float:
        """Estimated materialized size (edge count) of a view."""
        if isinstance(view, ConnectorCandidate):
            return estimate_connector_size(stats, view.src_type, view.k, self.alpha)
        if isinstance(view, SummarizerCandidate):
            # Summarizers shrink the raw graph; without per-type edge
            # histograms we bound by the raw edge count (selection only
            # needs connector sizing — summarizer cardinalities would use
            # standard relational selectivity estimation, § V-A).
            return float(stats.n_edges)
        raise TypeError(f"unknown view kind: {view!r}")

    def creation_cost(self, stats: GraphStats, view) -> float:
        """∝ estimated size: I/O dominates (§ V-A, View creation cost)."""
        return self.view_size(stats, view)

    # -- query costs ------------------------------------------------------

    def traversal_cost(self, stats: GraphStats, max_hops: int) -> float:
        """Σ_{k=1..H} Ê(G,k,α): total expected frontier work."""
        return sum(
            estimate_khop_paths(stats, k, self.alpha)
            for k in range(1, max(1, max_hops) + 1)
        )

    def eval_cost(self, stats: GraphStats, pattern: QueryPattern) -> float:
        """EvalCost(q) over the raw graph."""
        return self.traversal_cost(stats, pattern_max_hops(pattern))

    def connector_stats(self, stats: GraphStats, view: ConnectorCandidate) -> GraphStats:
        """Estimated stats of the materialized connector graph: the
        source-type vertices, with α-degree ``deg_α(src)^k``."""
        t = stats.per_type[view.src_type]
        deg = {a: t.deg(self.alpha) ** view.k for a in t.out_deg}
        ct = TypeStats(
            vtype=view.edge_type, n_vertices=t.n_vertices, out_deg=deg,
            is_source=True,
        )
        return GraphStats(
            n_vertices=t.n_vertices,
            n_edges=int(self.view_size(stats, view)),
            per_type={ct.vtype: ct},
        )

    def rewritten_eval_cost(self, stats: GraphStats, rw: Rewriting) -> float:
        """EvalCost of the rewritten query, over the connector graph."""
        return self.traversal_cost(self.connector_stats(stats, rw.view), rw.upper)

    # -- improvement (the knapsack "value" numerator, § V-B) -------------

    def improvement(
        self, stats: GraphStats, pattern: QueryPattern, view
    ) -> float:
        """Performance improvement of ``view`` for one query: raw eval
        cost divided by rewritten eval cost; 0 when not applicable."""
        if not isinstance(view, ConnectorCandidate):
            return 0.0
        rw = rewrite_with_connector(pattern, view, self.schema)
        if rw is None:
            return 0.0
        raw = self.eval_cost(stats, pattern)
        rewritten = self.rewritten_eval_cost(stats, rw)
        if rewritten <= 0:
            return 0.0
        return raw / rewritten
