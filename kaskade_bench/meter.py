"""Spark counters per call, read from outside the program.

Each metered call runs under its own job group. When it returns, the
listener bus is drained and the jobs of that group are read from
``SparkContext.statusTracker()``; per-stage task counts, shuffle bytes and
executor run time come from the status store, which Spark keeps even with
``spark.ui.enabled=false``.
"""
from __future__ import annotations

import itertools

COUNTERS = (
    "spark_jobs",
    "spark_stages",
    "spark_tasks",
    "failed_tasks",
    "shuffle_read_bytes",
    "shuffle_write_bytes",
    "executor_run_s",
)


class SparkMeter:
    def __init__(self, sc):
        self.sc = sc
        jsc = sc._jsc.sc()
        self._store = jsc.statusStore()
        self._bus = jsc.listenerBus()
        self._ids = itertools.count()

    def begin(self, name: str) -> str:
        group = f"kbench-{next(self._ids)}-{name}"
        self.sc.setJobGroup(group, name)
        return group

    def end(self, group: str) -> dict:
        """Counters of every job run under ``group``; skipped stages (whose
        shuffle output was reused) are not counted."""
        self.sc.setLocalProperty("spark.jobGroup.id", None)
        self._bus.waitUntilEmpty()
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        stage_ids = set()
        for job in jobs:
            info = tracker.getJobInfo(job)
            if info is not None:
                stage_ids.update(info.stageIds)
        out = dict.fromkeys(COUNTERS, 0)
        out["spark_jobs"] = len(jobs)
        run_ms = 0
        for sid in stage_ids:
            sd = self._store.lastStageAttempt(sid)
            if sd.status().toString() == "SKIPPED":
                continue
            out["spark_stages"] += 1
            out["spark_tasks"] += sd.numCompleteTasks()
            out["failed_tasks"] += sd.numFailedTasks()
            out["shuffle_read_bytes"] += sd.shuffleReadBytes()
            out["shuffle_write_bytes"] += sd.shuffleWriteBytes()
            run_ms += sd.executorRunTime()
        out["executor_run_s"] = run_ms / 1000.0
        return out
