"""Process and host facts read from ``/proc``: CPU seconds and peak RSS of
this Python process plus every process it started (the Spark driver JVM),
and host steal time."""
from __future__ import annotations

import os

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: int) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:
        return None
    # The command name may hold spaces; fields resume after its ')'.
    return raw[raw.rindex(")") + 2:].split()


def process_tree() -> list[int]:
    """This process and all its live descendants."""
    root = os.getpid()
    parent_of: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields is not None:
                parent_of[int(name)] = int(fields[1])
    tree, frontier = [root], [root]
    while frontier:
        nxt = [p for p, pp in parent_of.items() if pp in frontier]
        tree += nxt
        frontier = nxt
    return tree


def cpu_seconds(pids) -> float:
    """User + system CPU seconds consumed so far by ``pids``."""
    total = 0
    for pid in pids:
        fields = _stat_fields(pid)
        if fields is not None:
            total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / _TICK


def peak_rss_mb(pids) -> float:
    """Sum over ``pids`` of each process's peak resident set (VmHWM)."""
    kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        kb += int(line.split()[1])
        except OSError:
            continue
    return kb / 1024.0


def steal_seconds() -> float:
    """Host-wide steal time so far, summed over CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / _TICK
