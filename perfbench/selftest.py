#!/usr/bin/env python3
"""Self-test of the serve-path benchmark on tiny datasets.

    python3 perfbench/selftest.py

Builds the benchmark the way run.py does, then checks that:
  1. every workload, in both trace modes, succeeds and emits exactly the
     metrics BENCHMARK.json names, each with its unit and a sample count;
  2. the answer oracle trips on a deliberately perturbed reference answer;
  3. in the written trace, every span nests in its parent, and per request
     the layers' self times plus the root's own time (trace.other_ms) add up
     to the traced end-to-end time;
  4. run.py exits non-zero, printing no result, in a directory that holds
     only BENCHMARK.json and perfbench/ (no engine sources to build).
Exits non-zero on the first failed check.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step is shared)

# Small scales keep the whole self-test to about a minute.
TINY_AUTHORS = {"read-1m": 20000, "read-10k": 4000, "write-200k": 8000}
SECONDS = "0.3"


def fail(msg):
    print(f"SELFTEST FAILED: {msg}")
    sys.exit(1)


def run_bench(binary, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "3", "--seconds", SECONDS,
           "--trace", trace, "--authors", str(TINY_AUTHORS[workload]), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"{' '.join(cmd)} printed nothing; stderr: {proc.stderr}")
    return proc.returncode, lines, json.loads(lines[-1])


def metric_table(lines):
    """name -> (unit, samples) from the printed metric table."""
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) < 4 or not parts[3].isdigit():
            continue
        try:
            float(parts[1])
        except ValueError:
            continue
        rows[parts[0]] = (parts[2], int(parts[3]))
    return rows


def check_metrics(binary, spec):
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            rc, lines, result = run_bench(binary, workload, trace)
            where = f"{workload} --trace {trace}"
            if rc != 0 or not result["correct"] or result["failed"] != 0:
                fail(f"{where}: rc {rc}, result {result}")
            if result["attempted"] < 1:
                fail(f"{where}: nothing attempted")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = result["metrics"]
            if set(got) != set(expected):
                fail(f"{where}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(set(expected) - set(got))}, "
                     f"extra {sorted(set(got) - set(expected))}")
            table = metric_table(lines)
            for name, unit in expected.items():
                value = got[name]["value"]
                if got[name]["unit"] != unit or not math.isfinite(value):
                    fail(f"{where}: {name} = {got[name]}, expected unit {unit}")
                if name not in table or table[name][0] != unit or table[name][1] < 1:
                    fail(f"{where}: {name} has no unit/sample-count row")
            print(f"ok  {where}: {len(expected)} metrics")


def check_oracle_trips(binary):
    rc, _, result = run_bench(binary, "read-10k", "0", "--perturb-oracle")
    if rc == 0 or result["correct"] or result["failed"] < 1:
        fail(f"perturbed oracle did not trip: rc {rc}, result {result}")
    print("ok  perturbed reference answer fails the run")


def check_trace_sums(binary):
    path = os.path.join(run.build_dir(), "selftest-trace.json")
    rc, _, result = run_bench(binary, "read-10k", "1", "--trace-out", path)
    if rc != 0:
        fail("traced run failed")
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    os.remove(path)
    spans = {e["args"]["span"]: e for e in events}
    children = {}
    for e in events:
        children.setdefault(e["args"]["parent"], []).append(e)
    eps = 0.002  # us; the file rounds every time to 1 ns
    others_ms, total_e2e, total_self = [], 0.0, 0.0
    for e in events:
        start, end = e["ts"], e["ts"] + e["dur"]
        parent = e["args"]["parent"]
        if parent >= 0:
            p = spans[parent]
            if (e["args"]["request"] != p["args"]["request"]
                    or start < p["ts"] - eps or end > p["ts"] + p["dur"] + eps):
                fail(f"span {e['args']['span']} is not inside its parent")
        covered, reach = 0.0, start
        for c in sorted(children.get(e["args"]["span"], []), key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], reach), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        self_us = e["dur"] - covered
        total_self += self_us
        if parent < 0:
            total_e2e += e["dur"]
            others_ms.append(self_us / 1e3)
    if abs(total_self - total_e2e) > eps * len(events):
        fail(f"self times {total_self} us != end-to-end {total_e2e} us")
    other = sum(others_ms) / len(others_ms)
    reported = result["metrics"]["trace.other_ms"]["value"]
    if abs(other - reported) > 1e-5:
        fail(f"trace.other_ms {reported} != {other} recomputed from the trace")
    print(f"ok  trace sums: {len(events)} spans, {len(others_ms)} requests")


def check_bare_directory():
    bare = os.path.join(run.build_dir(), "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "read-10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"})
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail(f"bare directory: rc {proc.returncode}, stdout {proc.stdout!r}")
    print("ok  bare directory fails without a result")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    check_metrics(binary, spec)
    check_oracle_trips(binary)
    check_trace_sums(binary)
    check_bare_directory()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
