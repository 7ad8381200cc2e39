#!/usr/bin/env python3
"""The scaling ladder: bridge pipelines past the benchmark's sizes, one run
per rung and side, recorded as a JSON trajectory.

    python3 scripts/ladder.py --side parent=DIR --side change=DIR --out FILE

Each DIR is a checkout holding ``src/`` (a fresh copy of a commit, made
with ``git archive``); without ``--side`` the checkout holding this script
is run as ``change``.  Every rung runs in its own process, pinned to the
highest CPU of this script's affinity set with one BLAS thread, so its
peak RSS is the rung's own.  A rung builds a ``BridgePipeline`` at s = 1/2
on the default geometry (``mesh.default_boxes``), then sends DATA seeded
bumps on the measurement region through ``operator_T`` one at a time, after
one untimed call.  Per rung and side the record holds the tensor block's
route, the active node count, the pipeline build time, the median and mean
milliseconds per ``operator_T`` call and the process's peak RSS.

One run per side is a trajectory, not a claim: the rungs are not paired or
repeated, so a difference smaller than run-to-run noise means nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# name -> (dimension, nodes per axis, levels, coefficient spec)
BUMP = {"type": "diagonal", "identity_outside": True,
        "entries": [{"const": 1.0, "bumps": [{"amplitude": 0.5, "center": [0.5, 0.5],
                                              "width": 0.35}]}] * 2}
RUNGS = {
    "2d-id-n24": (2, 24, 48, "identity"),
    "2d-id-n40": (2, 40, 48, "identity"),
    "2d-id-n64": (2, 64, 48, "identity"),
    "2d-bump-n24": (2, 24, 48, BUMP),
    "3d-id-n18": (3, 18, 48, "identity"),
}
DATA = 32
THREADS = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def worker(rung: str) -> dict:
    """One rung in this process: the record of its build and solves."""
    import resource
    import statistics
    import time

    import numpy as np

    from calderon import bridge, coefficients, mesh

    dim, nodes, levels, coeff_spec = RUNGS[rung]
    omega, w = mesh.default_boxes(dim)
    spec = mesh.GeometrySpec(dim=dim, omega_box=omega, w_box=w, nodes=nodes,
                             padding=mesh.DEFAULT_PADDING)
    grid = mesh.build_tangential_grid(spec)
    coeff = coefficients.coefficient_from_spec(grid, coeff_spec)
    t0 = time.perf_counter()
    pipe = bridge.BridgePipeline(grid, coeff, 0.5, levels=levels)
    build_s = time.perf_counter() - t0

    rng = np.random.default_rng(0)
    wpts = grid.points[grid.w_indices]
    lo, hi = wpts.min(axis=0), wpts.max(axis=0)
    data = []
    for _ in range(DATA):
        c = lo + rng.random(dim) * (hi - lo)
        f = np.zeros(grid.num_nodes)
        f[grid.w_indices] = np.exp(-np.sum((wpts - c) ** 2, axis=1) / 0.05)
        data.append(f)
    bridge.operator_T(pipe, data[0])
    times = []
    for f in data:
        t = time.perf_counter()
        bridge.operator_T(pipe, f)
        times.append(1000 * (time.perf_counter() - t))
    return {"route": pipe.solver._block.route, "active_nodes": int(grid.active.sum()),
            "levels": levels, "build_s": build_s,
            "operator_T_ms_median": statistics.median(times),
            "operator_T_ms_mean": statistics.fmean(times), "data": DATA,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def run_rung(checkout: Path, rung: str) -> dict:
    cpu = max(os.sched_getaffinity(0))
    env = {**os.environ, **THREADS, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--worker", rung],
                          env=env, capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
    if proc.returncode != 0:
        sys.exit(f"ladder: rung {rung} in {checkout} failed:\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--side", action="append", default=[],
                        help="NAME=DIR, a checkout to run (repeatable)")
    parser.add_argument("--out", type=Path)
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(worker(args.worker)))
        return 0
    sides = dict(s.split("=", 1) for s in args.side) or {
        "change": str(Path(__file__).resolve().parent.parent)}
    record = {"command": "python3 scripts/ladder.py " + " ".join(
                  f"--side {name}=<{name}>" for name in sides),
              "protocol": "one run per rung and side, each in its own process pinned "
                          "to one CPU with one BLAS thread; per rung the sides run in "
                          "the order given",
              "threads": THREADS, "rungs": {}}
    for rung in RUNGS:
        record["rungs"][rung] = {name: run_rung(Path(d), rung) for name, d in sides.items()}
        print(rung, json.dumps(record["rungs"][rung]), file=sys.stderr)
    text = json.dumps(record, indent=1) + "\n"
    if args.out:
        args.out.write_text(text)
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
