#!/usr/bin/env python3
"""Paired benchmark of two checkouts, summarized into a BENCH_<n>.json record.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json \\
        [--claim recovery-1d:setup_s --held-out-seed 5] [--seed 1] \\
        [--traced-pairs 2] [--annotations FILE]

DIR is a checkout holding ``src/`` and ``perfbench/`` (a fresh copy of a
commit, made with ``git archive``).  Every workload of the change's
BENCHMARK.json runs ten pairs of ``perfbench/run.py`` at ``--seed``, and the
claimed workload ten more at ``--held-out-seed``, each run as long as the
benchmark's ``run_seconds``.  ``--claim`` and ``--held-out-seed`` go
together; without them the record only shows whether each metric stays
within its bound, and its ``claim`` is null.  Pairs alternate which side
runs first (even pairs the parent), one process at a time, each pinned to
the same CPU (the highest in this script's affinity set; the record's
``host`` names it as ``cpu``).
``--traced-pairs`` adds that many pairs of ``--trace 1`` runs of the claimed
workload at ``--seed`` for the per-layer medians.  ``--annotations`` names a
JSON object whose keys (``change``, ``notes``, ``checks``) are copied into
the record.

For each metric and side the record keeps every run, the median and the
quartiles (``statistics.quantiles(n=4, method='inclusive')``); for each pair
whether the change won, lost or tied; and whether the change's median is
within the metric's bound of the parent's and better by more than the
parent's interquartile range.  The claim is met when, on every seed, at
least ten pairs ran, the change wins at least nine pairs in ten and its
median is better by more than the parent's interquartile range, and the
change fails no larger share of the claimed workload's operations than the
parent.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

RUN_TIMEOUT_S = 1200
PAIRS = 10
PROTOCOL = ("alternating pairs, one process at a time, every run pinned to the CPU "
            "host.cpu: even pairs run the parent first, odd pairs the change first; "
            "each side is a fresh copy of its commit's src/ and perfbench/")
QUARTILES = "statistics.quantiles(n=4, method='inclusive') over the runs of one side"
SIDES = ("parent", "change")


def bench_cpu() -> int:
    """The CPU every perfbench run is pinned to: the highest in this
    script's own affinity set, the same for both sides."""
    return max(os.sched_getaffinity(0))


def run_side(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One perfbench run in ``checkout``, pinned to ``bench_cpu()``: its
    metric values, attempted and failed counts, and the environment record
    with the pinned CPU as ``cpu``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cpu = bench_cpu()
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} failed:\n"
                 f"{proc.stdout}{proc.stderr}")
    result = json.loads(lines[-1])
    return {"metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "env": {**json.loads(lines[-2])["record"]["env"], "cpu": cpu}}


def run_pairs(checkouts: dict, workload: str, seed: int, pairs: int,
              seconds: float, trace: int = 0) -> list[dict]:
    """``pairs`` pairs of runs, {"parent": result, "change": result} each."""
    out = []
    for i in range(pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run_side(checkouts[side], workload, seed, seconds, trace)
                for side in order}
        print(f"{workload} seed={seed} pair {i + 1}/{pairs} done", file=sys.stderr)
        out.append(pair)
    return out


def side_stats(runs: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": statistics.median(runs), "q1": q1, "q3": q3, "runs": runs}


def compare(pairs: list[dict], name: str, better: str) -> dict:
    """Both sides' statistics of one metric over paired runs, the pairs won
    and lost by the change (ties count for neither), its median change
    relative to the parent's median, and whether it is better by more than
    the parent's interquartile range."""
    sign = 1.0 if better == "lower" else -1.0
    values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
    gains = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
    parent, change = side_stats(values["parent"]), side_stats(values["change"])
    return {
        "parent": parent,
        "change": change,
        "pairs_run": len(pairs),
        "pairs_won": sum(g > 0 for g in gains),
        "pairs_lost": sum(g < 0 for g in gains),
        "median_change_rel": (change["median"] - parent["median"]) / parent["median"],
        "median_gap_exceeds_parent_iqr":
            sign * (parent["median"] - change["median"]) > parent["q3"] - parent["q1"],
    }


def summarize(spec: dict, runs: dict, claim: tuple[str, str] | None = None,
              held_out_seed: int | None = None) -> dict:
    """The record's measured part from ``runs[workload][seed]``, each a list
    of pairs as ``run_pairs`` returns them; with no ``claim`` its entry is
    None."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    workloads = {}
    for workload, by_seed in runs.items():
        pairs = [p for seed in by_seed for p in by_seed[seed]]
        entry = {"seeds": list(by_seed), "pairs_run": len(pairs),
                 "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
                 "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
                 "metrics": {}}
        for name, m in metrics.items():
            row = compare(pairs, name, m["better"])
            worst = 1.0 + m["bound"] if m["better"] == "lower" else 1.0 - m["bound"]
            limit = worst * row["parent"]["median"]
            row["within_bound"] = (row["change"]["median"] <= limit if m["better"] == "lower"
                                   else row["change"]["median"] >= limit)
            entry["metrics"][name] = {"unit": m["unit"], "better": m["better"],
                                      "bound": m["bound"], **row}
        workloads[workload] = entry
    # every run records the same host: take the first workload's first pair
    first = next(iter(runs.values()))
    record = {"claim": None, "protocol": PROTOCOL, "quartiles": QUARTILES,
              "host": next(iter(first.values()))[0]["parent"]["env"],
              "workloads": workloads}
    if claim is None:
        return record

    workload, name = claim
    better = metrics[name]["better"]
    per_seed = {}
    for seed, pairs in runs[workload].items():
        row = compare(pairs, name, better)
        per_seed[str(seed)] = {
            "pairs_run": row["pairs_run"], "pairs_won": row["pairs_won"],
            "median_change_rel": row["median_change_rel"],
            "median_gap_exceeds_parent_iqr": row["median_gap_exceeds_parent_iqr"],
            "parent_median": row["parent"]["median"],
            "change_median": row["change"]["median"],
            "parent_iqr": row["parent"]["q3"] - row["parent"]["q1"]}
    claimed = workloads[workload]
    failed_share = {s: claimed["failed"][s] / max(claimed["attempted"][s], 1) for s in SIDES}
    met = (failed_share["change"] <= failed_share["parent"]
           and all(s["pairs_run"] >= PAIRS and 10 * s["pairs_won"] >= 9 * s["pairs_run"]
                   and s["median_gap_exceeds_parent_iqr"] for s in per_seed.values()))
    seeds = [s for s in per_seed if s != str(held_out_seed)]
    record["claim"] = {"workload": workload, "metric": name, "better": better, "met": met,
                       "per_seed": per_seed, "held_out_seed": held_out_seed,
                       "note": f"seed {', '.join(seeds)} was used while building the "
                               f"change; seed {held_out_seed} was not"}
    return record


def summarize_layers(pairs: list[dict]) -> dict:
    """Median over each side's traced runs of every per-layer metric."""
    names = [k for k in pairs[0]["parent"]["metrics"]
             if all(k in p[s]["metrics"] for p in pairs for s in SIDES)]
    out = {"runs_per_side": len(pairs)}
    for k in names:
        out[k] = {s: statistics.median(p[s]["metrics"][k] for p in pairs) for s in SIDES}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--claim", help="WORKLOAD:METRIC")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--held-out-seed", type=int)
    parser.add_argument("--traced-pairs", type=int, default=0)
    parser.add_argument("--annotations", type=Path)
    args = parser.parse_args(argv)
    if (args.claim is None) != (args.held_out_seed is None):
        parser.error("--claim and --held-out-seed go together")
    if args.seed == args.held_out_seed:
        parser.error("--held-out-seed must differ from --seed")
    if args.traced_pairs and args.claim is None:
        parser.error("--traced-pairs traces the claimed workload; give --claim")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    claim = tuple(args.claim.split(":", 1)) if args.claim else None
    names = [w["name"] for w in spec["workloads"]]
    if claim and (len(claim) != 2 or claim[0] not in names
                  or claim[1] not in [m["name"] for m in spec["end_to_end"]]):
        parser.error("--claim must be WORKLOAD:METRIC, a workload and an end-to-end "
                     "metric of BENCHMARK.json")

    runs = {}
    for workload in names:
        seeds = [args.seed] + ([args.held_out_seed] if claim and workload == claim[0] else [])
        runs[workload] = {seed: run_pairs(checkouts, workload, seed, PAIRS, seconds)
                          for seed in seeds}
    record = {"change": "", "command": "python3 perfbench/run.py --workload <name> "
              f"--seed <seed> --seconds {seconds:g}", "seconds": seconds}
    record.update(summarize(spec, runs, claim, args.held_out_seed))
    if args.traced_pairs:
        traced = run_pairs(checkouts, claim[0], args.seed, args.traced_pairs,
                           seconds, trace=1)
        record["per_layer"] = {
            "command": f"python3 perfbench/run.py --workload {claim[0]} --seed {args.seed} "
                       f"--seconds {seconds:g} --trace 1",
            "value": "median over the traced runs of each side of the per-layer "
                     "metric (itself the median over traced rounds)",
            claim[0]: summarize_layers(traced)}
    if args.annotations:
        record.update(json.loads(args.annotations.read_text()))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    outside = [f"{w} {m}" for w, entry in record["workloads"].items()
               for m, row in entry["metrics"].items() if not row["within_bound"]]
    print(f"{args.out}: claim met: {record['claim'] and record['claim']['met']}; "
          f"outside their bound: {', '.join(outside) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
