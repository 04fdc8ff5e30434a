#!/usr/bin/env python3
"""Run the THEMIS repo benchmark.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload dense-overload|wan-churn|server-live|all
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark program from the checkout's sources (CMake + the
perfbench/CMakeLists.txt package) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset, then runs one workload.
Untraced runs (--trace 0) report the end-to-end metrics, traced runs
(--trace 1) the per-layer metrics plus a Chrome trace under
<build>/traces/. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dense-overload", "wan-churn", "server-live"]
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds both benchmark binaries; False on error."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"no THEMIS sources in {ROOT}; run from a full checkout")
        return False
    if shutil.which("cmake") is None:
        log("cmake not found")
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", out, "-j", jobs, "--target",
           "themis_perfbench", "themis_perfbench_traced"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return False
    return True


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this kind of run, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError):
        return None
    return [m["name"] for m in doc["per_layer" if trace else "end_to_end"]]


def trace_problems(path):
    """Structural check of the exported Chrome trace (the same rules as
    tools/check_trace.py): every event a complete span with name, numeric
    non-negative ts/dur and numeric pid/tid."""
    try:
        with open(path, encoding="utf-8") as f:
            events = json.load(f)["traceEvents"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        return [f"unreadable trace: {e}"]
    problems = []
    for i, ev in enumerate(events):
        ok = (isinstance(ev, dict) and isinstance(ev.get("name"), str)
              and ev.get("name") and ev.get("ph") == "X"
              and all(isinstance(ev.get(k), (int, float))
                      and not isinstance(ev.get(k), bool)
                      for k in ("ts", "dur", "pid", "tid"))
              and ev["ts"] >= 0 and ev["dur"] >= 0)
        if not ok:
            problems.append(f"traceEvents[{i}] malformed")
    if not events:
        problems.append("no trace events")
    return problems


def run_workload(out, workload, seed, seconds, trace):
    """Runs one workload; returns its result object, or None on error."""
    binary = os.path.join(
        out, "themis_perfbench_traced" if trace else "themis_perfbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(out, "traces"), exist_ok=True)
        trace_path = os.path.join(out, "traces", f"{workload}-seed{seed}.json")
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0:
        log(f"{workload} exited with {proc.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        log(f"{workload} printed no result line")
        return None
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"{workload}: malformed result keys {sorted(result)}")
        return None
    declared = declared_metrics(trace)
    if declared is not None and sorted(declared) != sorted(result["metrics"]):
        missing = sorted(set(declared) - set(result["metrics"]))
        extra = sorted(set(result["metrics"]) - set(declared))
        log(f"{workload}: metrics differ from BENCHMARK.json "
            f"(missing {missing}, undeclared {extra})")
        return None
    if trace_path is not None:
        problems = trace_problems(trace_path)
        print(f"check trace_export_valid: {len(problems)} / 1"
              + (f"  first failure: {problems[0]}" if problems else ""))
        result["attempted"] += 1
        if problems:
            result["failed"] += 1
            result["correct"] = False
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(out, name, args.seed, args.seconds,
                              bool(args.trace))
        if result is None:
            return 1
        if len(names) == 1:
            combined = result
            break
        print(json.dumps(result))
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
