"""Benchmark fixtures: bench-profile datasets and their 2-hop connector
views, built once per session and pinned in memory, so pytest-benchmark
measures query time, not dataset generation.
"""
import pytest

from repro.views import keep_vertex_types
from repro.workload import PROFILES, build_connector, dblp_spec, homogeneous_spec, prov_spec

SCALES = PROFILES["bench"]


def _pin(g):
    g = g.persist()
    g.vertices.count()
    g.edges.count()
    return g


@pytest.fixture(scope="session")
def prov_bench(spark):
    from repro.datasets import prov_summarized

    spec = prov_spec()
    g = _pin(prov_summarized(spark, scale=SCALES["prov"]))
    conn = build_connector(g, spec.view)
    yield g, conn, spec
    g.unpersist()
    conn.unpersist()


@pytest.fixture(scope="session")
def dblp_bench(spark):
    from repro.datasets import dblp_summarized

    spec = dblp_spec()
    g = _pin(dblp_summarized(spark, scale=SCALES["dblp"]))
    conn = build_connector(g, spec.view)
    yield g, conn, spec
    g.unpersist()
    conn.unpersist()


@pytest.fixture(scope="session")
def soc_bench(spark):
    from repro.datasets import social

    spec = homogeneous_spec("soc")
    g = _pin(social(spark, scale=SCALES["soc"]))
    conn = build_connector(g, spec.view)
    yield g, conn, spec
    g.unpersist()
    conn.unpersist()


@pytest.fixture(scope="session")
def roadnet_bench(spark):
    from repro.datasets import roadnet

    spec = homogeneous_spec("roadnet")
    g = _pin(roadnet(spark, scale=SCALES["roadnet"]))
    conn = build_connector(g, spec.view)
    yield g, conn, spec
    g.unpersist()
    conn.unpersist()


@pytest.fixture(scope="session")
def prov_raw_bench(spark):
    from repro.datasets import prov_raw

    g = _pin(prov_raw(spark, scale=SCALES["prov"]))
    yield g
    g.unpersist()


@pytest.fixture(scope="session")
def dblp_raw_bench(spark):
    from repro.datasets import dblp

    g = _pin(dblp(spark, scale=SCALES["dblp"]))
    yield g
    g.unpersist()
