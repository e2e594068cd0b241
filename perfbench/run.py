#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

    python3 perfbench/run.py --workload churn --seed 1 --seconds 10 --trace 0

The benchmark binary (lfsbench, from perfbench/src, built with
perfbench/CMakeLists.txt into .bench_build/perfbench) prints its metrics; the
last line of stdout is the result object. --trace 1 also writes the traced run's raw spans to
.bench_build/spans/<workload>-<seed>.csv. Exits non-zero, printing no
result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD = BUILD_ROOT / "perfbench"
BINARY = BUILD / "lfsbench"


def build():
    """Configures and builds the driver (a no-op when up to date); returns its path."""
    subprocess.run(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "--target", "lfsbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return BINARY


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["churn", "reread", "mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD_ROOT / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.csv")]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
