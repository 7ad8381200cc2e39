#!/usr/bin/env python3
"""Benchmark of the calderon library, run from the root of a source checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload, one table

A run imports the library from ``src/`` next to this directory, builds its
inputs from the seed, then repeats whole workload rounds (see workloads.py)
until ``--seconds`` have passed and at least three rounds are done.  It checks
every answer against the workload's gates and prints, last, one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics, with no wrappers installed.
``--trace 1`` alternates untraced and traced rounds, reports the per-layer
metrics (median over traced rounds) plus ``trace_overhead_s`` (median traced
minus median untraced round), and writes the spans to
``perfbench-out/trace-<workload>-<seed>.json``.

The line before the result is a JSON record of the environment (thread
settings, versions, BLAS), the per-datum latency median (and p90 where there
are at least 100 samples) with its sample count, the worst value of every
gate, the Python warnings raised (by category) and any absent entry points.
The latency median is not an end-to-end metric: on a shared 2-core VM
(Xeon, OpenBLAS SkylakeX kernels) the CPU speed was seen to switch between
two levels about 25% apart every few seconds, which makes the median of
short latencies jump between them; data_per_s carries the same cost as a
mean.

BLAS, OpenMP and library threads are pinned to 1 before numpy loads: on that
2-core VM, BLAS threads alone change the maps-2d timings by almost 2x, and
one thread per process keeps the load at one core.
"""

import os

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "CALDERON_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench-out"
NAMES = ("bridge-2d", "recovery-1d", "maps-2d", "battery")
MIN_ROUNDS = 3
MIN_TRACE_ROUNDS = 2
CHILD_TIMEOUT_S = 600


def import_program():
    """Import calderon from this checkout's sources, nowhere else."""
    if not (SRC / "calderon" / "__init__.py").is_file():
        sys.exit(f"perfbench: no calderon sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import calderon

    if Path(calderon.__file__).resolve().parent != (SRC / "calderon").resolve():
        sys.exit(f"perfbench: imported calderon from {calderon.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{k: os.environ.get(k) for k in THREADS},
    }


def run_rounds(workload, seconds, min_rounds):
    rounds = []
    start = time.perf_counter()
    while len(rounds) < min_rounds or time.perf_counter() - start < seconds:
        gc.collect()
        rounds.append(workload.run_round())
    return rounds


def run_traced(workload, seconds, tracer):
    """Alternate untraced and traced rounds, so that slow drift of the
    machine's speed cancels out of the tracing overhead."""
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < MIN_TRACE_ROUNDS or time.perf_counter() - start < seconds:
        gc.collect()
        untraced.append(workload.run_round())
        gc.collect()
        tracer.round = len(traced)
        tracer.install()
        try:
            traced.append(workload.run_round())
        finally:
            tracer.uninstall()
    return untraced, traced


def end_to_end(rounds, maxrss_mb) -> dict:
    latencies = [x for r in rounds for x in r.latencies]
    values = {
        "wall_s": (statistics.median(r.wall_s for r in rounds), "s"),
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "data_per_s": (len(latencies) / sum(latencies), "1/s"),
        "peak_rss_mb": (maxrss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def gate_summary(rounds) -> dict:
    out = {}
    for gate in (g for r in rounds for g in r.gates):
        entry = out.setdefault(gate.name, {"min": gate.value, "max": gate.value,
                                           "limit": gate.limit, "failed": 0})
        entry["min"] = min(entry["min"], gate.value)
        entry["max"] = max(entry["max"], gate.value)
        entry["failed"] += not gate.ok
    return out


def run_one(args) -> int:
    import_program()
    import spans
    import workloads

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": environment()}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            OUT.mkdir(exist_ok=True)
            workload = workloads.WORKLOADS[args.workload](args.seed, OUT)
            if args.trace:
                tracer = spans.Tracer()
                untraced, rounds = run_traced(workload, args.seconds, tracer)
            else:
                untraced, rounds = [], run_rounds(workload, args.seconds, MIN_ROUNDS)
        except Exception:
            traceback.print_exc()
            print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
            return 1
    attempted = failed = 0
    for r in untraced + rounds:
        attempted += len(r.latencies) + len(r.gates)
        failed += sum(not g.ok for g in r.gates)
    latencies = [x for r in rounds for x in r.latencies]
    record.update(rounds=len(rounds), untraced_rounds=len(untraced),
                  datum_samples=len(latencies),
                  datum_ms_p50=1000 * statistics.median(latencies),
                  gates=gate_summary(untraced + rounds),
                  warnings=dict(collections.Counter(w.category.__name__ for w in caught)))
    if len(latencies) >= 100:
        record["datum_ms_p90"] = 1000 * statistics.quantiles(latencies, n=10)[-1]

    if args.trace:
        metrics, absent = spans.layer_metrics(tracer, list(range(len(rounds))))
        metrics["trace_overhead_s"] = {
            "value": statistics.median(r.wall_s for r in rounds)
            - statistics.median(r.wall_s for r in untraced),
            "unit": "s"}
        record["absent_entry_points"] = tracer.absent
        record["absent_metrics"] = absent
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps(tracer.dump()) + "\n")
        record["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        metrics = end_to_end(rounds, spans.maxrss_mb())

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  rounds={len(rounds)}  "
          f"data={len(latencies)}  failed={failed}/{attempted}")
    for name, m in metrics.items():
        print(f"  {name:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is the workload's own."""
    status = 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-2]) if proc.returncode == 0 else proc.stdout + proc.stderr)
        if proc.returncode != 0 or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
