#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at the criterion-10 scale
(nx=41, nt=80, m=7).

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json once untraced and once traced, and
checks that the last output line is a result with every named metric and
its unit, that the human-readable lines name every metric with its unit,
and that no check failed.  Also checks that the benchmark refuses to run,
without printing a result, when the westinv sources are missing.  Exits 0
when everything holds.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_result(proc, wanted: dict) -> list:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"correct={result.get('correct')} "
                        f"failed={result.get('failed')}: "
                        + " | ".join(l for l in lines if l.startswith("FAIL")))
    if not (isinstance(result.get("attempted"), int)
            and result["attempted"] >= 1):
        problems.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(wanted):
        problems.append(f"metrics {sorted(set(metrics) ^ set(wanted))} "
                        f"missing or unexpected")
    for name, unit in wanted.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, want {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r}")
        if not any(l.startswith(f"metric {name} = ") and l.endswith(f" {unit}")
                   for l in lines):
            problems.append(f"{name}: no printed line with unit {unit}")
    if not any(l.startswith("metric fail_frac = ") for l in lines):
        problems.append("fail_frac not printed")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    groups = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in groups.items():
            proc = run(["--workload", workload, "--seed", "11", "--seconds",
                        "1", "--trace", str(trace), "--size", "tiny"])
            problems = check_result(proc, wanted)
            failures += bool(problems)
            print(f"{'ok  ' if not problems else 'FAIL'} {workload} "
                  f"trace={trace}")
            for p in problems:
                print(f"     {p}")

    bare = os.path.join(HERE, "_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "11",
                "--seconds", "1", "--trace", "0"], cwd=bare)
    refused = proc.returncode != 0 and '"metrics"' not in proc.stdout
    shutil.rmtree(bare)
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses without the sources "
          f"(exit {proc.returncode})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
