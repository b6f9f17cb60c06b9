"""Synthetic provenance (data-lineage) graph — the substitute for the
Microsoft cluster graph of § I-A / § VII-B (proprietary; DESIGN.md
§ Substitutions).

Structure mirrors what the paper's experiments depend on:

- **Pipelines of jobs.** Jobs form pipeline chains; consecutive jobs
  exchange *many* files (a job writes a batch of files, its successor
  reads most of them). This is what makes the job-to-job 2-hop
  connector orders of magnitude smaller than the summarized graph:
  job–file–job path bundles contract to single edges.
- **Cross-pipeline reads** of a few popular "reference" files give the
  heavy-tailed file out-degree of the real graph (Fig. 8) and make the
  blast radius span pipelines.
- **Ballast entities** (tasks, machines, users) are connected only in
  schema-legal ways and are untouched by the workload queries — they
  are what the vertex-inclusion summarizer strips (§ VII-E).
- **Acyclicity** by construction: a job only reads files written by
  earlier jobs, so lineage traversals terminate.

Vertex-id ranges: jobs < 1e6 ≤ files < 2e6 ≤ tasks < 3e6 ≤ machines
< 4e6 ≤ users. Sizes scale linearly in ``scale`` (scale=1 ≈ 108k raw
edges; tests use ~0.05, the bench profile 1.0).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from ..core.schema import PROVENANCE_CORE, PROVENANCE_FULL
from ..engine.property_graph import PropertyGraph, graph_from_pandas

SCHEMA_RAW = PROVENANCE_FULL
SCHEMA_SUMMARIZED = PROVENANCE_CORE

FILE_BASE = 1_000_000
TASK_BASE = 2_000_000
MACHINE_BASE = 3_000_000
USER_BASE = 4_000_000


def prov_raw(
    spark: SparkSession,
    *,
    scale: float = 1.0,
    seed: int = 7,
    pipelines: int = 100,
    jobs_per_pipeline: int = 8,
    files_per_job: int = 12,
    reference_files: int = 20,
    cross_reads_per_job: int = 2,
    tasks_per_job: int = 12,
    transfers_per_task: int = 8,
    machines: int = 50,
    users: int = 40,
) -> PropertyGraph:
    """Generate the raw heterogeneous provenance graph."""
    g = np.random.default_rng(seed)
    P = max(1, int(pipelines * scale))
    L = jobs_per_pipeline
    J = P * L
    # --- jobs ----------------------------------------------------------
    job_ids = np.arange(J, dtype=np.int64)
    pipe_of_job = job_ids // L
    pos_in_pipe = job_ids % L
    cpu = np.round(np.exp(g.normal(2.0, 1.0, J)), 2)  # lognormal CPU-hours

    # --- files: each job writes a batch --------------------------------
    w = np.maximum(1, g.poisson(files_per_job, J))
    n_files = int(w.sum())
    file_ids = FILE_BASE + np.arange(n_files, dtype=np.int64)
    writer = np.repeat(job_ids, w)  # WRITES_TO: writer -> file
    # The first `reference_files` files double as popular reference data.
    n_ref = min(reference_files, n_files)

    # --- reads -----------------------------------------------------------
    # (a) pipeline reads: each non-first job reads ~80% of predecessor's
    # output files.
    first_file_of_job = np.concatenate(([0], np.cumsum(w)))[:-1]
    read_src_parts, read_dst_parts = [], []
    pred = job_ids - 1
    readers = job_ids[pos_in_pipe > 0]
    preds = pred[pos_in_pipe > 0]
    pred_w = w[preds]
    n_take = np.maximum(1, (pred_w * 0.8).astype(np.int64))
    reader_rep = np.repeat(readers, n_take)
    offsets = np.concatenate(
        [np.arange(k) for k in n_take]
    ) if len(n_take) else np.empty(0, dtype=np.int64)
    pred_first = np.repeat(first_file_of_job[preds], n_take)
    read_file_idx = pred_first + offsets
    read_src_parts.append(file_ids[read_file_idx])
    read_dst_parts.append(reader_rep)
    # (b) cross-pipeline reads of reference files (zipf-weighted).
    if n_ref > 0 and cross_reads_per_job > 0:
        n_cross = J * cross_reads_per_job
        ranks = np.arange(1, n_ref + 1)
        p = (1.0 / ranks**1.3)
        p /= p.sum()
        ref_idx = g.choice(n_ref, size=n_cross, p=p)
        read_src_parts.append(file_ids[ref_idx])
        read_dst_parts.append(np.repeat(job_ids, cross_reads_per_job))
    read_src = np.concatenate(read_src_parts)
    read_dst = np.concatenate(read_dst_parts)
    # A job cannot read a file written at or after its position: permit
    # only reference files or predecessor files (already guaranteed by
    # construction for (a); for (b), reference files belong to job 0 of
    # each pipeline's first writes — drop self-reads to stay acyclic).
    ok = writer[read_src - FILE_BASE] < read_dst
    read_src, read_dst = read_src[ok], read_dst[ok]
    # Dedup (job, file) read pairs.
    dedup = pd.DataFrame({"s": read_src, "d": read_dst}).drop_duplicates()
    read_src = dedup["s"].to_numpy()
    read_dst = dedup["d"].to_numpy()

    # --- ballast: tasks, machines, users --------------------------------
    T = J * tasks_per_job
    task_ids = TASK_BASE + np.arange(T, dtype=np.int64)
    task_job = np.repeat(job_ids, tasks_per_job)
    mach_ids = MACHINE_BASE + np.arange(machines, dtype=np.int64)
    user_ids = USER_BASE + np.arange(users, dtype=np.int64)
    task_mach = mach_ids[g.integers(0, machines, T)]
    job_user = user_ids[g.integers(0, users, J)]
    # task-to-task transfers within the same job's task group.
    n_tr = T * transfers_per_task
    tr_src = task_ids[g.integers(0, T, n_tr)]
    tr_dst_local = g.integers(0, tasks_per_job, n_tr)
    tr_dst = TASK_BASE + (
        (tr_src - TASK_BASE) // tasks_per_job * tasks_per_job + tr_dst_local
    )
    keep = tr_src != tr_dst
    tr_src, tr_dst = tr_src[keep], tr_dst[keep]

    # --- assemble ---------------------------------------------------------
    vertices = pd.DataFrame(
        {
            "id": np.concatenate([job_ids, file_ids, task_ids, mach_ids, user_ids]),
            "vtype": (
                ["Job"] * J + ["File"] * n_files + ["Task"] * T
                + ["Machine"] * machines + ["User"] * users
            ),
            "cpu": np.concatenate(
                [cpu, np.full(n_files + T + machines + users, np.nan)]
            ),
            "pname": (
                [f"pipeline_{p}" for p in pipe_of_job]
                + [None] * (n_files + T + machines + users)
            ),
        }
    )
    # Edge timestamps: writes at the writer's logical time, reads at the
    # reader's — so a path's max-ts is the most-downstream hop's time.
    ts_write = writer * 100 + g.integers(0, 50, n_files)
    ts_read = read_dst * 100 + g.integers(0, 50, len(read_dst))
    edges = pd.concat(
        [
            pd.DataFrame(
                {"src": writer, "dst": file_ids, "etype": "WRITES_TO", "ts": ts_write}
            ),
            pd.DataFrame(
                {"src": read_src, "dst": read_dst, "etype": "IS_READ_BY", "ts": ts_read}
            ),
            pd.DataFrame(
                {"src": task_job, "dst": task_ids, "etype": "HAS_TASK",
                 "ts": task_job * 100}
            ),
            pd.DataFrame(
                {"src": tr_src, "dst": tr_dst, "etype": "TRANSFERS_TO",
                 "ts": (tr_src - TASK_BASE)}
            ),
            pd.DataFrame(
                {"src": task_ids, "dst": task_mach, "etype": "RUNS_ON",
                 "ts": task_ids - TASK_BASE}
            ),
            pd.DataFrame(
                {"src": job_user, "dst": job_ids, "etype": "SUBMITS",
                 "ts": job_ids * 100}
            ),
        ],
        ignore_index=True,
    )
    return graph_from_pandas(spark, vertices, edges, name="prov_raw")


def prov_summarized(spark: SparkSession, **kwargs) -> PropertyGraph:
    """The summarized provenance graph of § VII-B (jobs + files and
    their relationships only) — the vertex-inclusion summarizer applied
    to the raw graph."""
    from ..views.summarizers import keep_vertex_types

    raw = prov_raw(spark, **kwargs)
    out = keep_vertex_types(raw, {"Job", "File"})
    return PropertyGraph(out.vertices, out.edges, name="prov")
