"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 perfbench/spread.py --workload sweep --seeds 1-10
    python3 perfbench/spread.py --workload sweep --seeds 1-10 --record

Runs the benchmark once per seed, one run after another, for
``run_seconds`` from BENCHMARK.json, and prints for each end-to-end metric
its median and the distance between its first and third quartile as a
share of the median, beside the same spread of the raw figure.  With
``--record`` the medians and quartiles, and the per-layer metrics of one
traced run (first seed), go into ``perfbench/baseline.json`` under the
workload's name, with the Python version and the CPU count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import stats
from inputs import BENCH_DIR, ROOT


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600).stdout
    lines = out.strip().splitlines()
    raw = {}
    for line in lines[:-1]:
        match = re.match(r"(\S+)\s+\S+\s+\S+\s+raw (\S+)$", line)
        if match:
            raw[match.group(1)] = float(match.group(2))
    return json.loads(lines[-1]), raw


def record(workload, seeds, seconds, values) -> None:
    path = BENCH_DIR / "baseline.json"
    with open(path) as fh:
        baseline = json.load(fh)
    baseline["python"] = platform.python_version()
    baseline["nproc"] = os.cpu_count()
    summary = {}
    for name, vals in values.items():
        q1, q2, q3 = stats.quartiles(vals)
        summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": stats.quartile_spread(vals)}
    traced, _ = run_once(workload, seeds[0], seconds, trace=1)
    baseline.setdefault("workloads", {})[workload] = {
        "seeds": seeds,
        "seconds": seconds,
        "end_to_end": summary,
        "traced_seed": seeds[0],
        "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
    }
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    seeds = parse_seeds(args.seeds)
    values: dict[str, list[float]] = {}
    raws: dict[str, list[float]] = {}
    for seed in seeds:
        result, raw = run_once(args.workload, seed, seconds)
        if not result["correct"]:
            print(f"seed {seed}: incorrect output", file=sys.stderr)
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            raws.setdefault(name, []).append(raw.get(name, metric["value"]))
            row.append(f"{name}={metric['value']:.5g}")
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} " + " ".join(row), flush=True)
    if len(seeds) >= 2:
        for name in values:
            print(f"{name:<18} median {statistics.median(values[name]):.6g}  "
                  f"spread {stats.quartile_spread(values[name]):.4f}  "
                  f"raw spread {stats.quartile_spread(raws[name]):.4f}")
    if args.record:
        record(args.workload, seeds, seconds, values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
