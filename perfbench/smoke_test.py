#!/usr/bin/env python3
"""Smoke test of the repo benchmark.

Usage (from the root of a checkout): python3 perfbench/smoke_test.py

Runs every workload briefly, untraced and traced, through perfbench/run.py
and checks that:
  * each run exits 0 and its last line is a result object with exactly the
    keys correct / attempted / failed / metrics, every check passing;
  * the metric names are exactly the ones BENCHMARK.json declares, each
    with a finite numeric value and the declared unit;
  * each traced run wrote a Chrome trace that tools/check_trace.py accepts
    (when that tool is present);
  * in a directory holding only BENCHMARK.json and perfbench/, run.py exits
    non-zero without printing a result.
Exits non-zero listing every failure.
"""

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dense-overload", "wan-churn", "server-live"]


def run(args, cwd=ROOT, env=None):
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    failures = []
    build = os.path.join(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"),
        "perfbench")

    for trace in (0, 1):
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if trace else "end_to_end"]}
        for workload in WORKLOADS:
            label = f"{workload} --trace {trace}"
            proc = run([os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", "7", "--seconds", "5", "--trace",
                        str(trace)])
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}\n"
                                f"{proc.stderr[-2000:]}")
                continue
            try:
                result = json.loads(proc.stdout.strip().split("\n")[-1])
            except ValueError:
                failures.append(f"{label}: last line is not JSON")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                failures.append(f"{label}: checks failed\n{proc.stdout}")
            metrics = result["metrics"]
            if set(metrics) != set(declared):
                failures.append(f"{label}: metrics {sorted(metrics)}")
            for name, m in metrics.items():
                value = m.get("value")
                if not isinstance(value, (int, float)) or \
                        not math.isfinite(value):
                    failures.append(f"{label}: {name} value {value!r}")
                if name in declared and m.get("unit") != declared[name]:
                    failures.append(f"{label}: {name} unit {m.get('unit')}")
            if trace:
                path = os.path.join(build, "traces", f"{workload}-seed7.json")
                checker = os.path.join(ROOT, "tools", "check_trace.py")
                if not os.path.isfile(path):
                    failures.append(f"{label}: no trace at {path}")
                elif os.path.isfile(checker):
                    check = run([checker, path, "--require", "bench.setup"])
                    if check.returncode != 0:
                        failures.append(f"{label}: {check.stderr}")

    # Outside a full checkout the benchmark must refuse to run.
    bare = os.path.join(build, "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = run(["perfbench/run.py", "--workload", "dense-overload", "--seed",
                "1", "--seconds", "1", "--trace", "0"], cwd=bare, env=env)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("bare directory: run.py did not refuse to run")
    shutil.rmtree(bare, ignore_errors=True)

    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    print(f"smoke test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
