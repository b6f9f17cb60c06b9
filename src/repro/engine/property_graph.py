"""Property-graph container over Spark DataFrames.

Kaskade stores raw graphs and materialized views in Neo4j; our
execution engine (DESIGN.md § Substitutions) represents a property
graph as two DataFrames with a fixed core schema:

- ``vertices(id BIGINT, vtype STRING, cpu DOUBLE, pname STRING)`` —
  ``cpu`` is the job CPU-consumption property of the workload queries;
  ``pname`` carries pipeline names (prov) / display names (dblp);
  non-applicable properties are null.
- ``edges(src BIGINT, dst BIGINT, etype STRING, ts BIGINT)`` — ``ts``
  is the edge-timestamp property that Q4 aggregates.

All operations are DataFrame/Spark-SQL transformations (Catalyst), so
views are graph→graph transformations exactly as the paper requires for
engine-agnosticism.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

VERTEX_CORE = ("id", "vtype")
EDGE_CORE = ("src", "dst", "etype")

VERTEX_SCHEMA = T.StructType(
    [
        T.StructField("id", T.LongType(), False),
        T.StructField("vtype", T.StringType(), False),
        T.StructField("cpu", T.DoubleType(), True),
        T.StructField("pname", T.StringType(), True),
    ]
)

EDGE_SCHEMA = T.StructType(
    [
        T.StructField("src", T.LongType(), False),
        T.StructField("dst", T.LongType(), False),
        T.StructField("etype", T.StringType(), False),
        T.StructField("ts", T.LongType(), True),
    ]
)


@dataclass(frozen=True)
class PropertyGraph:
    """An immutable (vertices, edges) DataFrame pair."""

    vertices: DataFrame
    edges: DataFrame
    name: str = "graph"

    def __post_init__(self) -> None:
        missing_v = [c for c in VERTEX_CORE if c not in self.vertices.columns]
        missing_e = [c for c in EDGE_CORE if c not in self.edges.columns]
        if missing_v or missing_e:
            raise ValueError(
                f"graph {self.name!r} missing core columns: "
                f"vertices={missing_v} edges={missing_e}"
            )

    # -- basic measures (queries Q5/Q6 of the workload) -----------------

    def vertex_count(self) -> int:
        return self.vertices.count()

    def edge_count(self) -> int:
        return self.edges.count()

    def vertex_types(self) -> list[str]:
        return sorted(
            r["vtype"] for r in self.vertices.select("vtype").distinct().collect()
        )

    def edge_types(self) -> list[str]:
        return sorted(
            r["etype"] for r in self.edges.select("etype").distinct().collect()
        )

    # -- helpers ----------------------------------------------------------

    def typed_vertices(self, vtype: str | None) -> DataFrame:
        if vtype is None:
            return self.vertices
        return self.vertices.where(F.col("vtype") == vtype)

    def typed_edges(self, etype: str | None) -> DataFrame:
        if etype is None:
            return self.edges
        return self.edges.where(F.col("etype") == etype)

    def persist(self) -> "PropertyGraph":
        return replace(self, vertices=self.vertices.persist(), edges=self.edges.persist())

    def unpersist(self) -> "PropertyGraph":
        self.vertices.unpersist()
        self.edges.unpersist()
        return self

    def validate_referential_integrity(self) -> None:
        """Assert every edge endpoint exists in ``vertices`` — used by
        dataset-generator tests, not on the hot path."""
        ids = self.vertices.select("id")
        dangling = (
            self.edges.select(F.col("src").alias("id"))
            .union(self.edges.select(F.col("dst").alias("id")))
            .distinct()
            .join(ids, "id", "left_anti")
            .count()
        )
        if dangling:
            raise AssertionError(f"{dangling} dangling edge endpoints in {self.name}")


def graph_from_pandas(spark: SparkSession, vertices_pdf, edges_pdf, name: str = "graph") -> PropertyGraph:
    """Build a :class:`PropertyGraph` from pandas frames, normalizing to
    the core schema (missing property columns become nulls)."""
    import pandas as pd

    v = vertices_pdf.copy()
    if "cpu" not in v.columns:
        v["cpu"] = pd.array([None] * len(v), dtype="float64")
    if "pname" not in v.columns:
        v["pname"] = pd.array([None] * len(v), dtype="object")
    e = edges_pdf.copy()
    if "ts" not in e.columns:
        e["ts"] = pd.array([0] * len(e), dtype="int64")
    vdf = spark.createDataFrame(v[["id", "vtype", "cpu", "pname"]], schema=VERTEX_SCHEMA)
    edf = spark.createDataFrame(e[["src", "dst", "etype", "ts"]], schema=EDGE_SCHEMA)
    return PropertyGraph(vertices=vdf, edges=edf, name=name)


def micro_graph(spark: SparkSession) -> PropertyGraph:
    """The worked example of Fig. 3(a): 4 jobs (j1..j4), 4 files
    (f1..f4), ``w`` (WRITES_TO) and ``r`` (IS_READ_BY) edges. Vertex ids:
    jobs 1..4, files 11..14. Used across unit tests."""
    import pandas as pd

    vertices = pd.DataFrame(
        {
            "id": [1, 2, 3, 4, 11, 12, 13, 14],
            "vtype": ["Job"] * 4 + ["File"] * 4,
            "cpu": [10.0, 20.0, 30.0, 40.0, None, None, None, None],
            "pname": ["p1", "p1", "p2", "p2", None, None, None, None],
        }
    )
    # Fig. 3(a): j1 w f1; f1 r j2, f1 r j3; j2 w f2; j3 w f3;
    # f2 r j4; f3 r j4; j4 w f4.
    edges = pd.DataFrame(
        {
            "src": [1, 11, 11, 2, 3, 12, 13, 4],
            "dst": [11, 2, 3, 12, 13, 4, 4, 14],
            "etype": ["WRITES_TO", "IS_READ_BY", "IS_READ_BY", "WRITES_TO",
                      "WRITES_TO", "IS_READ_BY", "IS_READ_BY", "WRITES_TO"],
            "ts": [1, 2, 3, 4, 5, 6, 7, 8],
        }
    )
    return graph_from_pandas(spark, vertices, edges, name="fig3")
