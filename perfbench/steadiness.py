#!/usr/bin/env python3
"""Run the benchmark on several seeds and report the spread of each metric.

    python3 perfbench/steadiness.py --workload figures --seeds 1-10

For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile distance
as a share of the median, next to the metric's bound from BENCHMARK.json,
plus the failed share of operations.  Runs are made one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    results = []
    for seed in args.seeds:
        cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(result)
        values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: failed {result['failed']}/{result['attempted']} {values}", flush=True)
    for metric in bench["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        print(
            f"{args.workload} {metric['name']}: median {med:.4f} {metric['unit']}, "
            f"quartiles {q1:.4f}..{q3:.4f}, spread {(q3 - q1) / med:.4f} "
            f"(bound {metric['bound']})"
        )
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"{args.workload} failed share: {sorted(shares)}")


if __name__ == "__main__":
    main()
