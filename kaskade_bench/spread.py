"""Run the benchmark once per seed and report each end-to-end metric's
median and quartile spread (IQR ÷ median), to check the bounds in
``BENCHMARK.json`` hold. Run from the root of a checkout::

    python3 kaskade_bench/spread.py --workload prov-lineage --seeds 1 2 3 4 5

Runs are sequential; each is a separate process.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from arith import iqr_share


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    p.add_argument("--trace", type=int, default=0)
    args = p.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    times: list[float] = []
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
        ]
        t0 = time.monotonic()
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        elapsed = time.monotonic() - t0
        times.append(elapsed)
        if out.returncode != 0:
            print(out.stdout[-2000:], out.stderr[-2000:], file=sys.stderr)
            return 1
        lines = out.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        steal = next((l.split()[1] for l in lines if l.startswith("host.steal_s")), "?")
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} in {elapsed:.0f}s, "
              f"steal {steal}s", flush=True)
        for line in lines:
            if line.startswith(("pass", "  queries")):
                print("  " + line, flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    print(f"run time: median {statistics.median(times):.1f}s, max {max(times):.1f}s")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for name, vals in values.items():
        spread = iqr_share(vals) if len(vals) >= 2 and statistics.median(vals) else 0.0
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:28s} median {statistics.median(vals):14.6g}  spread {spread:7.4f}"
              f"  bound {bound}{flag}  values {[round(v, 4) for v in vals]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
