#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics.

    python3 perfbench/spread.py --workload table1-np1 --seeds 1-10 --seconds 30

Runs run.py once per seed, each run in its own process, and prints every
metric's median and the distance between its first and third quartile as a
share of that median: the spread BENCHMARK.json's bounds must cover.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True

import run  # noqa: E402
import stats  # noqa: E402


def parse_seeds(spec):
    """'1-10' or '3,5,8'."""
    if "-" in spec:
        lo, hi = (int(x) for x in spec.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(x) for x in spec.split(",")]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=run.WORKLOADS)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        sys.exit("spread.py: need at least two seeds")

    values = {}
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} " +
              " ".join(f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()),
              flush=True)
    for name, v in values.items():
        med = stats.median(v)
        share = stats.iqr_share(v) if med else 0.0
        print(f"{name:34s} median {med:.6g}  IQR/median {share:.4f}")


if __name__ == "__main__":
    main()
