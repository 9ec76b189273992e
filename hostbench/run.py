#!/usr/bin/env python3
"""Builds the host-cost benchmark from source and runs one workload.

Run from the repository root:

    python3 hostbench/run.py --workload task_measure --seed 1 --seconds 20 --trace 0

The first run configures and builds hostbench/ (and the simulator libraries
it links) into $CARGO_TARGET_DIR/hostbench, default .bench_build/hostbench;
later runs rebuild incrementally. The benchmark binary prints a human-readable
summary and, as its last stdout line, one JSON result object. See README.md.
"""
import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("task_measure", "cluster_replay", "ha_stream")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"hostbench/run.py: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "hostbench"), "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "--target", "hostbench",
                    "-j", jobs], check=True, stdout=sys.stderr)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log(f"simulator sources not found under {root}/src")
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, target, "hostbench")
    try:
        build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    cmd = [os.path.join(build_dir, "hostbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--pins", os.path.join(root, "hostbench", "pins.txt")]
    if args.trace:
        cmd += ["--trace-out", os.path.join(
            build_dir, f"trace-{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1


if __name__ == "__main__":
    sys.exit(main())
