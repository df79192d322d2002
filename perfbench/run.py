#!/usr/bin/env python3
"""Builds Rock's benchmark program (Release, with the repository's own CMake)
and runs one workload.

    python3 perfbench/run.py --workload batch_serial --seed 1 --seconds 25 --trace 0

Run from the root of a Rock source tree. The build goes to
.bench_build/perfbench; a traced run (--trace 1) writes its Chrome trace to
.bench_build/traces/. The program's output is passed through: its last line
is the JSON result. Exits non-zero when the build, the run or any of its
checks fails.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("batch_serial", "batch_parallel", "serve_mix")


def build(root, build_dir):
    """Configures and builds the program; build output goes to stderr. Both
    steps are quick no-ops once the tree is built."""
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "rock_perfbench",
         "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "rock_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plan-seed", type=int,
                        help="seed of the served load plan (default 42)")
    args = parser.parse_args()

    root = os.getcwd()
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    try:
        binary = build(root, build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print("perfbench: build failed: %s" % error, file=sys.stderr)
        return 1

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.plan_seed is not None:
        command += ["--plan-seed", str(args.plan_seed)]
    if args.trace:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    sys.stdout.write(result.stdout)
    sys.stdout.flush()
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        return result.returncode or 1
    # The last line must be the result object with exactly its four keys.
    summary = json.loads(lines[-1])
    if set(summary) != {"correct", "attempted", "failed", "metrics"}:
        print("perfbench: malformed result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
