#!/usr/bin/env python3
"""Measure the benchmark baseline and write it to perfbench/baseline.json.

    python3 perfbench/baseline.py [--seeds 1-10] [--out perfbench/baseline.json]

Runs every workload of BENCHMARK.json once per seed with tracing off, then
once traced with the first seed.  For each end-to-end metric it stores the
median over the seeds, the quartiles as ``statistics.quantiles(values, n=4)``
gives them, and the spread (third minus first quartile, over the median).
A spread at or above a third of the metric's bound is flagged, except for
setup_s.  The confirm seeds are kept out of the baseline so that a later
claim can be checked on inputs nobody tuned against.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIRM_SEEDS = list(range(101, 111))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                          timeout=600)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: a gate failed\n{proc.stdout}")
    return {"result": result, "record": json.loads(lines[-2])["record"]}


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "baseline.json")
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    baseline = {"run_seconds": seconds, "seeds": args.seeds,
                "confirm_seeds": CONFIRM_SEEDS, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run(workload, seed, seconds, 0) for seed in args.seeds]
        end_to_end = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            end_to_end[name] = {"unit": metric["unit"], "median": median,
                                "q1": q1, "q3": q3, "spread": spread, "values": values}
            flag = ""
            if name != "setup_s" and spread >= metric["bound"] / 3:
                steady = False
                flag = f"  above a third of bound {metric['bound']}"
            print(f"{workload:12s} {name:14s} median {median:12.6g} {metric['unit']:4s} "
                  f"spread {spread:.4f}{flag}", flush=True)
        traced = run(workload, args.seeds[0], seconds, 1)
        baseline["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {k: v["value"] for k, v in traced["result"]["metrics"].items()},
            "absent": traced["record"]["absent_metrics"],
            "rounds": [r["record"]["rounds"] for r in runs],
            "datum_samples": [r["record"]["datum_samples"] for r in runs],
            "warnings": runs[0]["record"]["warnings"],
            "env": runs[0]["record"]["env"],
        }
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
