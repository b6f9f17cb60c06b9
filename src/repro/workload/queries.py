"""The evaluation workload: queries Q1–Q8 (Table IV).

Each of Q1–Q4 is defined once: a MATCH pattern on the dataset's
:class:`WorkloadSpec` plus a relational tail over the matched graph. The
same definition runs over the base graph or, given a connector view
candidate and its materialized graph, over the pattern
:func:`repro.core.rewriter.rewrite_with_connector` derives for that view.
No view plan is written by hand.

Equivalences (tested in tests/test_workload.py):

- Q1–Q4 over the connector return exactly the baseline results (§ VII-C
  "these rewritings are equivalent").
- Q5/Q6 need no rewriting (they only count the dataset).
- Q7 runs half as many label-propagation iterations over the connector
  and produces *similar* (not identical) groupings — as in the paper.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, TypeVar

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.enumerator import ConnectorCandidate
from ..core.pattern import QueryPattern, parse_match
from ..core.rewriter import rewrite_with_connector
from ..core.schema import GraphSchema
from ..engine.hybrid import run_hybrid
from ..engine.pattern_exec import element_pairs, execute_pattern
from ..engine.property_graph import PropertyGraph
from ..views.algorithms import label_propagation, largest_community
from ..views.connectors import khop_connector, materialize, upto_khop_connector

T = TypeVar("T")


@dataclass(frozen=True)
class WorkloadSpec:
    """How Table IV's queries instantiate on one dataset."""

    name: str
    schema: GraphSchema
    anchor_type: str  # Job (prov) / Author (dblp) / Vertex (homogeneous)
    write_etype: str | None = None
    read_etype: str | None = None

    @property
    def heterogeneous(self) -> bool:
        return self.write_etype is not None

    @property
    def view(self) -> ConnectorCandidate:
        """The 2-hop connector Fig. 7 rewrites over (§ VII-C):
        anchor-to-anchor on heterogeneous graphs, ≤2-hop on homogeneous
        ones (exact 2 hops would lose the odd lengths). Views bind to
        queries by type, so its variable names bind nothing."""
        t = self.anchor_type
        return ConnectorCandidate(
            "src", "dst", t, t, 2, "khop" if self.heterogeneous else "upto_khop"
        )


def prov_spec() -> WorkloadSpec:
    from ..core.schema import PROVENANCE_CORE

    return WorkloadSpec("prov", PROVENANCE_CORE, "Job", "WRITES_TO", "IS_READ_BY")


def dblp_spec() -> WorkloadSpec:
    from ..core.schema import DBLP_CORE

    return WorkloadSpec("dblp", DBLP_CORE, "Author", "WROTE", "WRITTEN_BY")


def homogeneous_spec(name: str) -> WorkloadSpec:
    from ..core.schema import HOMOGENEOUS

    return WorkloadSpec(name, HOMOGENEOUS, "Vertex")


def build_connector(graph: PropertyGraph, view: ConnectorCandidate) -> PropertyGraph:
    """Materialize the connector ``view`` describes over ``graph``."""
    if view.kind == "upto_khop":
        conn = upto_khop_connector(graph, view.k)
    else:
        conn = khop_connector(graph, view.k, view.src_type, view.dst_type)
    return materialize(conn)


# ---------------------------------------------------------------------------
# Q1–Q4: one pattern and one tail each
# ---------------------------------------------------------------------------


def _run(
    tail: Callable[[PropertyGraph, QueryPattern], DataFrame],
    graph: PropertyGraph,
    spec: WorkloadSpec,
    pattern: QueryPattern,
    view: ConnectorCandidate | None,
) -> DataFrame:
    """``tail`` over ``pattern`` on the base graph or, given a ``view``
    (``graph`` is then its materialization), over the rewriting."""
    if view is not None:
        rw = rewrite_with_connector(pattern, view, spec.schema)
        if rw is None:
            raise ValueError(f"view {view.edge_type} admits no rewriting of {pattern}")
        pattern = rw.rewritten
    return tail(graph, pattern)


def q1_pattern(spec: WorkloadSpec, mid_hops: int = 8) -> QueryPattern:
    """The Lst. 1 MATCH clause, parameterized by dataset edge types:
    (a1:T)-[:W]->(m1), (m1)-[r*0..mid]->(m2), (m2)-[:R]->(a2:T)."""
    t = spec.anchor_type
    return parse_match(
        f"MATCH (q_j1:{t}) -[:{spec.write_etype}]-> (q_f1), "
        f"(q_f1) -[*0..{mid_hops}]-> (q_f2), "
        f"(q_f2) -[:{spec.read_etype}]-> (q_j2:{t}) "
        "RETURN q_j1 AS A, q_j2 AS B"
    )


_Q1_SQL = """
SELECT A_pname AS pipeline, AVG(T_CPU) AS avg_cpu FROM (
    SELECT A, A_pname, SUM(B_cpu) AS T_CPU
    FROM match_result GROUP BY A, A_pname, B
) GROUP BY A_pname
"""


def _q1_aggregate(graph: PropertyGraph, pattern: QueryPattern) -> DataFrame:
    """Lst. 1 as the hybrid query it is (§ III-B): its SQL, per (A, B)
    pair T_CPU then AVG(T_CPU) by A's pipeline, run over the MATCH."""
    return run_hybrid(graph.vertices.sparkSession, graph, pattern, _Q1_SQL)


def q1_blast_radius(
    graph: PropertyGraph,
    spec: WorkloadSpec,
    view: ConnectorCandidate | None = None,
    mid_hops: int = 8,
) -> DataFrame:
    """Q1: job blast radius (Lst. 1; heterogeneous datasets only)."""
    if not spec.heterogeneous:
        raise ValueError("Q1 is defined on heterogeneous datasets")
    return _run(_q1_aggregate, graph, spec, q1_pattern(spec, mid_hops), view)


def q2_ancestors(
    graph: PropertyGraph,
    spec: WorkloadSpec,
    view: ConnectorCandidate | None = None,
    max_hops: int = 4,
) -> DataFrame:
    """Q2: backward data lineage — (v, ancestor) pairs of anchor
    vertices within ``max_hops``."""
    t = spec.anchor_type
    match = f"MATCH (a:{t}) -[*1..{max_hops}]-> (v:{t}) RETURN v AS v, a AS ancestor"
    return _run(execute_pattern, graph, spec, parse_match(match), view)


def q3_descendants(
    graph: PropertyGraph,
    spec: WorkloadSpec,
    view: ConnectorCandidate | None = None,
    max_hops: int = 4,
) -> DataFrame:
    """Q3: forward data lineage — (v, descendant) pairs of anchor
    vertices within ``max_hops``."""
    t = spec.anchor_type
    match = f"MATCH (v:{t}) -[*1..{max_hops}]-> (d:{t}) RETURN v AS v, d AS descendant"
    return _run(execute_pattern, graph, spec, parse_match(match), view)


def _max_ts(graph: PropertyGraph, pattern: QueryPattern) -> DataFrame:
    """The max edge ``ts`` over all walks of the pattern's single path,
    as ``dist`` next to the returned endpoints."""
    (path,) = pattern.paths
    pairs = element_pairs(graph, pattern, path, carry="max")
    end = {path.src: "src", path.dst: "dst"}
    return pairs.select(
        *[F.col(end[var]).alias(alias) for var, alias in pattern.returns],
        F.col("m").alias("dist"),
    )


def q4_path_lengths(
    graph: PropertyGraph,
    spec: WorkloadSpec,
    view: ConnectorCandidate | None = None,
    max_hops: int = 4,
) -> DataFrame:
    """Q4: per (source, reached) anchor pair, the max edge ``ts`` over
    all connecting paths within ``max_hops`` (a weighted distance).
    Exact over a connector: its edges carry the max ``ts`` of the paths
    they contract, and max composes across contraction."""
    t = spec.anchor_type
    match = f"MATCH (s:{t}) -[*1..{max_hops}]-> (d:{t}) RETURN s AS src, d AS dst"
    return _run(_max_ts, graph, spec, parse_match(match), view)


# ---------------------------------------------------------------------------
# Q5 / Q6: dataset size (no rewriting — § VII-C)
# ---------------------------------------------------------------------------


def q5_edge_count(graph: PropertyGraph) -> DataFrame:
    return graph.edges.agg(F.count("*").alias("n"))


def q6_vertex_count(graph: PropertyGraph) -> DataFrame:
    return graph.vertices.agg(F.count("*").alias("n"))


# ---------------------------------------------------------------------------
# Q7 / Q8: community detection + largest community
# ---------------------------------------------------------------------------


def q7_communities(graph: PropertyGraph, iterations: int = 24) -> DataFrame:
    """Q7: label-propagation community detection (updates a community
    label per vertex). Baseline runs ``iterations``; the connector run
    uses half (§ VII-C: 'around half as many iterations')."""
    return label_propagation(graph, iterations)


def q8_largest_community(
    labels: DataFrame, graph: PropertyGraph, spec: WorkloadSpec
) -> DataFrame:
    """Q8: the community with the most anchor-type vertices, returned as
    a one-row summary (community label, vertex count, edge count)."""
    com, sub = largest_community(labels, graph, vtype=spec.anchor_type)
    return labels.sparkSession.createDataFrame(
        [(com, sub.vertex_count(), sub.edge_count())],
        "community LONG, n_vertices LONG, n_edges LONG",
    )


# ---------------------------------------------------------------------------
# Timing helper for the runtime experiments (Fig. 7)
# ---------------------------------------------------------------------------


def timed(thunk: Callable[[], T]) -> tuple[T, float]:
    """Run ``thunk`` (build a query result and force its evaluation);
    returns (its value, seconds)."""
    t0 = time.perf_counter()
    out = thunk()
    return out, time.perf_counter() - t0
