"""Smoke test of the benchmark itself, at toy size.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json with ``--toy`` (toy grid, tiny budget
and episodes), untraced and traced, and checks that each run is correct,
that every metric name printed matches ``[A-Za-z0-9_.-]+`` and that the JSON
metrics are exactly the ones BENCHMARK.json declares, with their units.
Last, it checks that the benchmark fails, without a result, in a directory
holding only BENCHMARK.json and perfbench/.
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_run(spec, workload, trace):
    proc = run_bench(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        problems.append(f"run not clean: {lines[-1][:200]}")
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        problems.append(f"metric names differ from BENCHMARK.json: "
                        f"{sorted(set(metrics) ^ set(units))}")
    printed = list(metrics) + [line.split()[0] for line in lines if line.startswith("  ")]
    problems += [f"bad metric name {name!r}" for name in printed if not NAME.fullmatch(name)]
    for name, m in metrics.items():
        if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name} value {m['value']!r}")
        if name in units and m["unit"] != units[name]:
            problems.append(f"{name} unit {m['unit']!r} != {units[name]!r}")
    return problems


def check_bare_directory(spec):
    """Without the program beside it the benchmark must fail and print no result."""
    bare = ROOT / "perfbench" / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = 0
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems = check_run(spec, workload["name"], trace)
            print(f"{'FAIL' if problems else 'ok  '} {workload['name']} trace {trace}")
            for p in problems:
                print(f"     {p}")
            failures += bool(problems)
    problems = check_bare_directory(spec)
    print(f"{'FAIL' if problems else 'ok  '} bare directory fails without a result")
    for p in problems:
        print(f"     {p}")
    failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
