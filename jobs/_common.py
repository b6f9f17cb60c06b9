"""Shared CLI plumbing for the spark-submit entrypoints.

Jobs are thin wrappers: the logic lives in ``repro.workload.experiments``
as functions taking a SparkSession. Inside pytest, use the fixtures —
these mains exist for ``spark-submit jobs/<name>.py [--profile bench]``.
"""
from __future__ import annotations

import argparse

from pyspark.sql import SparkSession


def session(app: str) -> SparkSession:
    # pyspark hands builder conf to spark-submit when it launches the JVM,
    # so the driver heap set here takes effect. 4g is what the bench-profile
    # Fig. 7 job needs: it runs out of heap at pyspark's default 1g.
    return (
        SparkSession.builder.appName(app)
        .config("spark.driver.memory", "4g")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .getOrCreate()
    )


def profile_arg() -> str:
    p = argparse.ArgumentParser()
    p.add_argument(
        "--profile",
        choices=["test", "bench"],
        default="bench",
        help="dataset scale profile (see repro.workload.PROFILES)",
    )
    return p.parse_args().profile
