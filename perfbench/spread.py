#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage, from the repository root:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1,2,3,4,5]
                                [--seconds S] [--trace 0|1]

Runs perfbench/run.py once per (workload, seed), then prints for every
metric its median and its spread: the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, followed by the per-seed values in seed order.  Bounds come from
BENCHMARK.json; a spread above a third of its bound is flagged.  Each
run's wall time is printed too.  Exits non-zero if any run fails its
correctness check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    ok = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in args.seeds.split(","):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", seed, "--seconds", str(args.seconds),
                 "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{workload} seed {seed}: {time.monotonic() - start:.1f} s",
                  flush=True)
            if done.returncode != 0 or not result["correct"]:
                ok = False
                print(f"{workload} seed {seed}: FAILED correctness")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"== {workload} ({len(args.seeds.split(','))} seeds)")
        for name, vals in values.items():
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above bound/3"
            print(f"  {name:40s} median {median:14.6g} spread {spread:7.4f}"
                  f"{'' if bound is None else f'  bound {bound}'}{flag}")
            print("      " + " ".join(f"{v:.5g}" for v in vals))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
