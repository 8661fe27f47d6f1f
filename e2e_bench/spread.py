#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 e2e_bench/spread.py --workload typology_ticks --seeds 1-10

Runs the timed benchmark once per seed and prints, per end-to-end metric,
the median, the quartiles (statistics.quantiles(values, n=4)), the spread
(third minus first quartile, as a share of the median) and the metric's
bound from BENCHMARK.json. A spread at or above its bound is flagged; the
set-up time is reported but not flagged.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'a-b' or a comma list")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in parse_seeds(args.seeds):
        out = subprocess.run([sys.executable, str(RUN), "--workload", args.workload,
                              "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                             cwd=ROOT, capture_output=True, text=True)
        result = json.loads(out.stdout.strip().splitlines()[-1]) if out.stdout.strip() else {}
        if out.returncode != 0 or result.get("failed", 1) != 0:
            print(f"seed {seed}: run failed (exit {out.returncode})\n{out.stdout}{out.stderr}")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={v[-1]:.5g}" for n, v in values.items()),
              flush=True)

    flagged = False
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        over = spread >= m["bound"] and m["name"] != "setup_s"
        flagged |= over
        print(f"{m['name']:16s} median {med:12.6g} {m['unit']:5s} q1 {q1:12.6g} q3 {q3:12.6g}"
              f"  spread {spread:.3f}  bound {m['bound']}{'  OVER' if over else ''}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
