#!/usr/bin/env python3
"""Runs one workload over several seeds and reports each metric's spread.

    python3 hostbench/spread.py --workload ha_stream --seeds 1-10 --seconds 40

For every metric of the result line it prints the median over the seeds and
the interquartile range (statistics.quantiles, n=4) as a share of the median:
the run-to-run spread a change must beat before it can claim a gain, and the
figure BENCHMARK.json's bounds are checked against. Runs are sequential.

A seed listed twice (--seeds 7,7 --trace 1) also checks that every exact
counter (unit "count") repeats between the two processes.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds_of(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args()

    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
    seeds = seeds_of(args.seeds)
    values = {}
    units = {}
    counts_by_seed = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, run_py, "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"seed {seed}: run reported failures")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        counts = {k: m["value"] for k, m in result["metrics"].items()
                  if m["unit"] == "count"}
        if counts_by_seed.setdefault(seed, counts) != counts:
            sys.exit(f"seed {seed}: exact counters differ between runs: "
                     f"{counts_by_seed[seed]} vs {counts}")
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    print(f"\n{args.workload}: median and IQR/median over {len(seeds)} seeds")
    for name, xs in values.items():
        med = statistics.median(xs)
        if len(xs) >= 2 and med != 0:
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = f"{(q3 - q1) / abs(med):.4f}"
        else:
            spread = "n/a"
        print(f"  {name:32s} {med:14.6g} {units[name]:8s} spread {spread}")


if __name__ == "__main__":
    main()
