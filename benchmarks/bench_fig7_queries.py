"""Fig. 7 benchmark: Q1–Q8 baseline (summarized graph) vs. rewritten
over the 2-hop connector view, per dataset. Q1–Q4's view side runs the
same query with the rewriter's rewriting over ``spec.view``.

Each (dataset, query, plan) cell is one pytest-benchmark entry, grouped
as ``fig7:<dataset>:<query>`` so `pytest benchmarks/ --benchmark-only`
prints baseline and view side by side — the paper's Fig. 7 as a table.
"""
import pytest

from repro.workload import (
    q1_blast_radius,
    q2_ancestors,
    q3_descendants,
    q4_path_lengths,
    q5_edge_count,
    q6_vertex_count,
    q7_communities,
    q8_largest_community,
)
from repro.workload.experiments import LPA_ITER

ITER = LPA_ITER["bench"]

HET = ["prov_bench", "dblp_bench"]
ALL = ["prov_bench", "dblp_bench", "soc_bench", "roadnet_bench"]


def _run(benchmark, group, fn, rounds=2):
    benchmark.group = group
    out = benchmark.pedantic(fn, rounds=rounds, iterations=1)
    assert out >= 0


@pytest.mark.parametrize("env", HET)
class TestQ1:
    def test_baseline(self, benchmark, env, request):
        g, _conn, spec = request.getfixturevalue(env)
        _run(benchmark, f"fig7:{spec.name}:Q1", lambda: q1_blast_radius(g, spec).count())

    def test_view(self, benchmark, env, request):
        _g, conn, spec = request.getfixturevalue(env)
        _run(
            benchmark,
            f"fig7:{spec.name}:Q1",
            lambda: q1_blast_radius(conn, spec, spec.view).count(),
        )


@pytest.mark.parametrize("env", ALL)
class TestQ2:
    def test_baseline(self, benchmark, env, request):
        g, _conn, spec = request.getfixturevalue(env)
        _run(benchmark, f"fig7:{spec.name}:Q2", lambda: q2_ancestors(g, spec).count())

    def test_view(self, benchmark, env, request):
        _g, conn, spec = request.getfixturevalue(env)
        _run(
            benchmark,
            f"fig7:{spec.name}:Q2",
            lambda: q2_ancestors(conn, spec, spec.view).count(),
        )


@pytest.mark.parametrize("env", ALL)
class TestQ3:
    def test_baseline(self, benchmark, env, request):
        g, _conn, spec = request.getfixturevalue(env)
        _run(benchmark, f"fig7:{spec.name}:Q3", lambda: q3_descendants(g, spec).count())

    def test_view(self, benchmark, env, request):
        _g, conn, spec = request.getfixturevalue(env)
        _run(
            benchmark,
            f"fig7:{spec.name}:Q3",
            lambda: q3_descendants(conn, spec, spec.view).count(),
        )


@pytest.mark.parametrize("env", ALL)
class TestQ4:
    def test_baseline(self, benchmark, env, request):
        g, _conn, spec = request.getfixturevalue(env)
        _run(benchmark, f"fig7:{spec.name}:Q4", lambda: q4_path_lengths(g, spec).count())

    def test_view(self, benchmark, env, request):
        _g, conn, spec = request.getfixturevalue(env)
        _run(
            benchmark,
            f"fig7:{spec.name}:Q4",
            lambda: q4_path_lengths(conn, spec, spec.view).count(),
        )


@pytest.mark.parametrize("env", ALL)
class TestQ5Q6:
    """No rewriting (§ VII-C): both plans count the same dataset."""

    def test_q5_edge_count(self, benchmark, env, request):
        g, _conn, spec = request.getfixturevalue(env)
        _run(
            benchmark,
            f"fig7:{spec.name}:Q5",
            lambda: q5_edge_count(g).collect()[0]["n"],
            rounds=3,
        )

    def test_q6_vertex_count(self, benchmark, env, request):
        g, _conn, spec = request.getfixturevalue(env)
        _run(
            benchmark,
            f"fig7:{spec.name}:Q6",
            lambda: q6_vertex_count(g).collect()[0]["n"],
            rounds=3,
        )


@pytest.mark.parametrize("env", ALL)
class TestQ7:
    def test_baseline(self, benchmark, env, request):
        g, _conn, spec = request.getfixturevalue(env)
        _run(
            benchmark,
            f"fig7:{spec.name}:Q7",
            lambda: q7_communities(g, ITER).count(),
            rounds=1,
        )

    def test_view(self, benchmark, env, request):
        _g, conn, spec = request.getfixturevalue(env)
        _run(
            benchmark,
            f"fig7:{spec.name}:Q7",
            lambda: q7_communities(conn, ITER // 2).count(),
            rounds=1,
        )


@pytest.mark.parametrize("env", ALL)
class TestQ8:
    """Q8 consumes Q7's labels; the labels are computed once per plan
    outside the timer so the benchmark isolates the Q8 retrieval."""

    def test_baseline(self, benchmark, env, request):
        g, _conn, spec = request.getfixturevalue(env)
        labels = q7_communities(g, ITER).persist()
        labels.count()
        _run(
            benchmark,
            f"fig7:{spec.name}:Q8",
            lambda: q8_largest_community(labels, g, spec).count(),
        )
        labels.unpersist()

    def test_view(self, benchmark, env, request):
        _g, conn, spec = request.getfixturevalue(env)
        labels = q7_communities(conn, ITER // 2).persist()
        labels.count()
        _run(
            benchmark,
            f"fig7:{spec.name}:Q8",
            lambda: q8_largest_community(labels, conn, spec).count(),
        )
        labels.unpersist()
