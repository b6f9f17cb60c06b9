"""Kaskade benchmark: one workload, one client, closed loop.

Run from the root of a checkout::

    python3 kaskade_bench/run.py --workload prov-lineage --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (and writes the spans under ``.bench_build/kaskade_bench/``).
Lines before the last describe the pinned session and each pass; the
last line is the JSON result. See ``kaskade_bench/README.md``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SETUPS = 3  # set-ups per run; setup_s is their median
# Measured passes per run, at least, even past --seconds. A traced run
# needs a traced and an untraced pass to report tracing overhead.
MIN_PASSES = 1
MIN_TRACED_PASSES = 2
PLAN_SAMPLES = 100  # plans timed at the end of a traced run

# The pinned Spark session. Task slots and shuffle partitions are equal;
# broadcast joins are off (as in the README) so joins take the shuffle
# path; adaptive execution is off so stage counts do not depend on
# runtime sizes.
SLOTS = min(4, os.cpu_count() or 1)
DRIVER_MEMORY = "2g"
# A fixed driver heap (-Xms = -Xmx) is not resized differently from run
# to run, and the throughput collector has no concurrent phases that
# compete with the task threads for the cores.
DRIVER_JVM_FLAGS = f"-Xms{DRIVER_MEMORY} -XX:+UseParallelGC"
SESSION_CONF = {
    "spark.sql.shuffle.partitions": str(SLOTS),
    "spark.default.parallelism": str(SLOTS),
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.sql.adaptive.enabled": "false",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.ui.showConsoleProgress": "false",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_session(build: Path):
    """Launch the driver JVM with everything it writes inside ``build``."""
    tmp = build / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    java_opts = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    driver_opts = f"{DRIVER_JVM_FLAGS} {java_opts}"
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(build / "spark-local")
    os.environ["SPARK_LAUNCHER_OPTS"] = java_opts  # the JVM spark-submit runs first
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{SLOTS}]",
            f"--driver-memory {DRIVER_MEMORY}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            f"--driver-java-options {shlex.quote(driver_opts)}",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("kaskade-bench").config(
        "spark.sql.warehouse.dir", str(build / "warehouse")
    )
    for key, value in SESSION_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_session(spark) -> None:
    """Stop Spark, then end the driver JVM and wait for it."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    proc = getattr(gateway, "proc", None)
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            proc.wait(timeout=30)
        except Exception:
            proc.kill()
            proc.wait()


def session_facts(spark) -> dict:
    sc = spark.sparkContext
    return {
        "master": sc.master,
        "driver_memory": DRIVER_MEMORY,
        "driver_jvm_flags": DRIVER_JVM_FLAGS,
        **SESSION_CONF,
        "nproc": os.cpu_count(),
        "spark_version": spark.version,
        "java_version": sc._jvm.java.lang.System.getProperty("java.version"),
        "python_version": sys.version.split()[0],
    }


def measure(spark, workload_name: str, seed: int, seconds: float, trace: bool, build: Path):
    from arith import median, ratio, tail_percentile
    from host import cpu_seconds, peak_rss_mb, process_tree, steal_seconds
    from layers import per_layer_metrics, unit_of
    from meter import SparkMeter
    from tracer import NullTracer, Tracer
    from workloads import (
        WORKLOADS, Context, hop_profile, plan_cpu_ms, run_pass, set_up, traced_extra_names,
        view_qerror,
    )

    workload = WORKLOADS[workload_name]
    t_start = time.perf_counter()
    steal0 = steal_seconds()
    null = NullTracer()
    tracer = Tracer(SparkMeter(spark.sparkContext)) if trace else null

    loads = []
    for _ in range(SETUPS):
        if loads:
            loads[-1].graph.unpersist()
        loads.append(set_up(spark, workload, seed, tracer))
    ctx = Context(workload, loads[-1], cpu=lambda: cpu_seconds(process_tree()))
    t_setup = time.perf_counter()
    # Warm up with one whole pass, baseline included: the first pass of
    # a JVM runs 20-30% slower while code is compiled. Its operations
    # count; its timings do not.
    warm = run_pass(ctx, None, null)
    print(f"warm-up pass: workload {warm.workload_s:.3f}s, baseline {warm.baseline_s:.3f}s, "
          f"failed {warm.failed}/{warm.attempted}")
    for err in warm.errors:
        print(f"  failure: {err}")
    t_warm = time.perf_counter()

    # The traced run alternates traced and untraced passes, so the
    # difference between them is the tracing overhead.
    passes = []
    deadline = time.perf_counter() + seconds
    min_passes = MIN_TRACED_PASSES if trace else MIN_PASSES
    while True:
        traced = trace and len(passes) % 2 == 0
        passes.append(run_pass(ctx, len(passes), tracer if traced else null))
        p = passes[-1]
        print(
            f"pass {len(passes) - 1}{' traced' if traced else ''}: "
            f"workload {p.workload_s:.3f}s (plan {p.plan_s * 1000:.1f}ms, "
            f"materialize {p.materialize_s:.3f}s, queries {p.query_s:.3f}s), "
            f"baseline {p.baseline_s:.3f}s, cpu {p.cpu_s:.2f}s, "
            f"failed {p.failed}/{p.attempted}"
        )
        print("  queries: " + ", ".join(f"{k} {v:.3f}s" for k, v in p.query_times.items()))
        for err in p.errors:
            print(f"  failure: {err}")
        if time.perf_counter() >= deadline and len(passes) >= min_passes:
            break

    t_passes = time.perf_counter()
    attempted = warm.attempted + sum(p.attempted for p in passes)
    failed = warm.failed + sum(p.failed for p in passes)
    extras = {}
    if trace:
        # Zero stands in for a figure whose step failed; the failure is
        # counted, so the run is not correct.
        extras = dict.fromkeys(traced_extra_names(), 0.0)
        try:
            plan_ms = plan_cpu_ms(ctx, PLAN_SAMPLES)
            tail = tail_percentile(plan_ms)
            print(
                f"plan CPU time: median {median(plan_ms):.2f} ms over {len(plan_ms)} samples; "
                + (f"p{tail[0]:g} {tail[1]:.2f} ms" if tail
                   else "no tail percentile (needs 10 samples beyond it)")
            )
            extras["plan.cpu_ms"] = median(plan_ms)
            extras.update(hop_profile(ctx, tracer))
            extras["estimator.view_qerror"] = view_qerror(ctx)
        except Exception as exc:  # counted against the run, never raised
            attempted, failed = attempted + 1, failed + 1
            print(f"  failure: traced extras: {type(exc).__name__}: {exc}")
    rss = peak_rss_mb(process_tree())
    ctx.drop_views()
    steal = steal_seconds() - steal0

    print(f"host.steal_s {steal:.2f}")
    print(
        f"time: set-ups {t_setup - t_start:.1f}s, warm-up {t_warm - t_setup:.1f}s, "
        f"passes {t_passes - t_warm:.1f}s, after {time.perf_counter() - t_passes:.1f}s"
    )

    if trace:
        metrics = per_layer_metrics(tracer, passes, extras, steal, SLOTS)
        metrics["host.peak_rss_mb"] = rss
        tracer.write(
            build / f"spans-{workload_name}-seed{seed}.json",
            {"workload": workload_name, "seed": seed},
        )
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics = {
            "setup_s": median(l.setup_s for l in loads),
            "workload_s": median(p.workload_s for p in passes),
            "query_s": median(p.query_s for p in passes),
            "baseline_s": median(p.baseline_s for p in passes),
            "cpu_s": median(p.cpu_s for p in passes),
            "view_space_ratio": ratio(passes[-1].view_edges, ctx.loaded.n_edges),
        }
        units = END_TO_END_UNITS
    print(f"samples: {SETUPS} set-ups, {len(passes)} passes")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "workload_s": "s",
    "query_s": "s",
    "baseline_s": "s",
    "cpu_s": "s",
    "view_space_ratio": "ratio",
}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("kaskade_bench: run from the root of a checkout (src/repro not found)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"kaskade_bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    build = root / ".bench_build" / "kaskade_bench"
    build.mkdir(parents=True, exist_ok=True)
    spark = start_session(build)
    try:
        print("session: " + json.dumps(session_facts(spark), sort_keys=True))
        report = measure(spark, args.workload, args.seed, args.seconds, bool(args.trace), build)
    finally:
        stop_session(spark)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
