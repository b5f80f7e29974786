#!/usr/bin/env python3
"""Builds and runs the MVDB serve-path benchmark.

    python3 perfbench/run.py --workload read-10k --seed 1 --seconds 6 --trace 0

Configures and builds perfbench/ (which compiles the engine from src/) with
CMake into $CARGO_TARGET_DIR, default .bench_build at the repository root,
then runs the benchmark binary. The binary's last stdout line is the result
JSON. With --trace 1 the spans of the traced replay are also written to
<build dir>/traces/<workload>-seed<seed>.json (Chrome trace-event format).
Build output goes to stderr. When the build fails the script exits non-zero
without printing a result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("read-1m", "read-10k", "write-200k")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Builds the benchmark and returns the binary's path."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "-S", HERE, "-B", out,
                    "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                   check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "mvdb_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        traces = os.path.join(build_dir(), "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    result = subprocess.run(cmd)
    return 0 if result.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
