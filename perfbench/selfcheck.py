#!/usr/bin/env python3
"""Smoke-scale self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

Run from the root of a source checkout. Runs every workload in
BENCHMARK.json at a tiny size, once with --trace 0 and once with --trace 1,
and checks each result line against BENCHMARK.json: exactly the declared
metrics with their units, finite values, every end-to-end value above zero,
and every correctness gate passed. Then runs a train and the serve workload
against a tampered reference and checks that the gate fails them: exit code
1 and "correct": false. Exits 0 when every check holds.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

SMOKE_RECORDS = "3000"


def run(workload, trace, *extra):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", "5", "--seconds", "1", "--trace", str(trace),
            "--records", SMOKE_RECORDS, *extra]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


def check_result(result, declared):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
        return problems
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            problems.append(f"{key} is not an integer")
    if result["attempted"] < 1:
        problems.append("attempted < 1")
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        problems.append("metric names differ: "
                        f"{sorted(set(metrics) ^ set(declared))}")
    for name, spec in declared.items():
        got = metrics.get(name)
        if got is None:
            continue
        if got.get("unit") != spec["unit"]:
            problems.append(f"{name}: unit {got.get('unit')} != {spec['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif spec.get("bound") is not None and value <= 0:
            problems.append(f"{name}: end-to-end value {value} is not > 0")
    return problems


def main():
    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m for m in spec["end_to_end"]},
        1: {m["name"]: m for m in spec["per_layer"]},
    }
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, result, stderr = run(workload, trace)
            problems = [] if result else ["no result line"]
            if code != 0:
                problems.append(f"exit code {code}")
            if result:
                problems += check_result(result, declared[trace])
                if not result.get("correct") or result.get("failed") != 0:
                    problems.append("a correctness gate failed")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"{workload:16s} trace={trace}  {status}", flush=True)
            if problems:
                failures += 1
                print(stderr[-3000:], file=sys.stderr)
    for workload in ("train-histogram", "serve-csv"):
        code, result, _ = run(workload, 0, "--tamper")
        caught = code == 1 and result is not None and not result["correct"]
        print(f"{workload:16s} tampered reference  "
              f"{'ok (gate failed the run)' if caught else 'FAIL gate missed it'}")
        failures += 0 if caught else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
