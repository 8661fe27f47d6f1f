#!/usr/bin/env python3
"""Smoke test of the end-to-end benchmark: a tiny run of every workload.

    python3 e2e_bench/smoke.py [--seconds 1] [--seed 7]

For each workload in BENCHMARK.json it makes one timed run (--trace 0) and
two traced runs (--trace 1) with the same seed, and checks that

  * every run exits 0 with correct=true, failed=0 and attempted >= 1;
  * the timed run prints every end_to_end metric, the traced runs every
    per_layer metric, each with the unit BENCHMARK.json gives it;
  * the traced counts repeat exactly between the two traced runs.

Exits 1 on the first failure.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
REPEATING_COUNTS = ["reachtube.base_tests", "reachtube.cf_fresh_tests", "reachtube.cf_free_frac",
                    "monitor.elevated_frac", "monitor.escalation_ticks"]


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=400)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"smoke: {workload} trace={trace} exited {out.returncode}\n{out.stdout}{out.stderr}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"smoke: {workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"smoke: {workload} trace={trace} failed its checks\n{out.stdout}")
    return result["metrics"]


def check_metrics(workload: str, metrics: dict, expected: list) -> None:
    want = {m["name"]: m["unit"] for m in expected}
    if set(metrics) != set(want):
        sys.exit(f"smoke: {workload}: missing {sorted(set(want) - set(metrics))}, "
                 f"unexpected {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics[name]
        if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            sys.exit(f"smoke: {workload}: {name} printed as {got}, want unit {unit}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        name = w["name"]
        check_metrics(name, run(name, args.seed, args.seconds, 0), spec["end_to_end"])
        first = run(name, args.seed, args.seconds, 1)
        check_metrics(name, first, spec["per_layer"])
        second = run(name, args.seed, args.seconds, 1)
        for count in REPEATING_COUNTS:
            if first[count]["value"] != second[count]["value"]:
                sys.exit(f"smoke: {name}: {count} did not repeat "
                         f"({first[count]['value']} vs {second[count]['value']})")
        print(f"smoke: {name} ok ({len(spec['end_to_end'])} end-to-end, "
              f"{len(spec['per_layer'])} per-layer metrics; counts repeat)", flush=True)
    print("smoke: all workloads ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
