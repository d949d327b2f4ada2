#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/METRICS.md).

Usage, from the repository root:

    python3 perfbench/run.py --workload query|ingest|derive --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench/CMakeLists.txt (the mrsl
library plus the perfbench binary) in $CARGO_TARGET_DIR, default
.bench_build; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the binary's result object.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["query", "ingest", "derive"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(os.path.join(build_dir, "perfbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)
    return subprocess.run([
        binary, "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]).returncode


if __name__ == "__main__":
    sys.exit(main())
