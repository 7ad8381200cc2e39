"""The four benchmark workloads.

Every workload is a closed loop with one caller: each datum is sent only
after the previous answer has come back.  A workload is run in rounds; one
round does the whole job from nothing (set-up, its checks, a fixed batch of
data), so per-round counts repeat exactly and ``wall_s`` is the time of one
round.  All inputs (coefficient bumps, exterior data, forward measurements,
reference answers) are built from the seed in the constructor, before any
round is timed; the library receives only the resulting arrays and specs.

Library functions are always looked up on their module at call time
(``bridge.operator_T``, never a name imported into this file), so the traced
run sees every call.

Why these four (each optimisation planned in the roadmap has one workload
that exercises it and one that bypasses it):

* bridge-2d: the 2D extension factorization dominates set-up; per-datum work
  is a back-substitution.  Moves with the extension solver and its fill.
* recovery-1d: the factorization is cheap and per-datum back-substitution
  dominates (snapshot solves in set-up, one solve per reconstruction).
  Moves with block solves; a cheaper factorization with slower solves loses.
* maps-2d: the dense spectral route (eigendecompositions and the nonlocal
  map, which rebuilds the dense power per column); the extension and
  Tikhonov layers are never called.
* battery: the seven CLI experiments through config validation, run_config
  and file emission; the only workload covering duality, decay, calibration
  and the density basis.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calderon import (
    bridge,
    coefficients,
    config,
    experiments,
    extension,
    fractional_core,
    local_elliptic,
    mesh,
    tikhonov,
)

S = 0.5
# Tolerances the experiments declare: oracle-crosscheck (trace vs oracle),
# bridge-residual (both weak residuals), tikhonov-sweep (reconstruction).
ORACLE_TOL = 0.05
RESIDUAL_TOL = 0.10
RECONSTRUCT_TOL = 0.10
# distinguishability: identical coefficients give gaps at rounding level.
IDENTICAL_GAP_TOL = 1e-9
# rounding-level invariants: linearity of T, zero local flux of constants
ROUNDING_TOL = 1e-9


@dataclass
class Gate:
    name: str
    value: float
    limit: float
    ok: bool


@dataclass
class Round:
    setup_s: float = 0.0
    wall_s: float = 0.0
    latencies: list[float] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)

    def check(self, name: str, value: float, limit: float, ok: bool | None = None):
        """Record a gate; by default it passes when value <= limit."""
        value = float(value)
        self.gates.append(Gate(name, value, limit,
                               bool(value <= limit) if ok is None else bool(ok)))


def _geometry(dim: int, nodes: int) -> mesh.GeometrySpec:
    """The default geometry: unit interior box, measurement box to its right."""
    omega = tuple((0.0, 1.0) for _ in range(dim))
    w = ((1.5, 2.1),) + tuple((0.0, 1.0) for _ in range(dim - 1))
    return mesh.GeometrySpec(dim=dim, omega_box=omega, w_box=w, nodes=nodes,
                             padding=0.9)


def _bump(points: np.ndarray, center, width: float) -> np.ndarray:
    """Smooth bump, 1 at the center and 0 beyond ``width``."""
    r2 = np.sum((points - np.asarray(center)) ** 2, axis=1) / width**2
    out = np.zeros(len(points))
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def _coefficient_spec(rng, dim: int, amplitude: float) -> dict:
    """Diagonal bump coefficient inside the interior box, identity outside."""
    bump = {"amplitude": float(amplitude),
            "center": rng.uniform(0.35, 0.65, dim).tolist(),
            "width": float(rng.uniform(0.25, 0.35))}
    return {"type": "diagonal",
            "entries": [{"const": 1.0, "bumps": [bump]} for _ in range(dim)],
            "identity_outside": True}


def _exterior_data(rng, grid, count: int, widths=(0.15, 0.3)) -> list[np.ndarray]:
    """Seeded bumps supported on the measurement region."""
    widx = grid.w_indices
    wpts = grid.points[widx]
    lo, hi = wpts.min(axis=0), wpts.max(axis=0)
    data = []
    while len(data) < count:
        f = np.zeros(grid.num_nodes)
        f[widx] = _bump(wpts, lo + rng.random(grid.dim) * (hi - lo), rng.uniform(*widths))
        if f.max() > 1e-3:
            data.append(f)
    return data


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def _pair_error(pair, truth) -> float:
    return max(_rel(pair.boundary_values, truth.boundary_values),
               _rel(pair.boundary_flux, truth.boundary_flux))


class Bridge2D:
    """2D bridge: pipeline build, trace-vs-oracle and residual checks, then
    seeded Cauchy pairs through operator T."""

    name = "bridge-2d"
    NODES, LEVELS, PAIRS, AMPLITUDE = 24, 40, 32, 0.2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.geometry = _geometry(2, self.NODES)
        grid = mesh.build_tangential_grid(self.geometry)
        self.coeff_spec = _coefficient_spec(rng, 2, self.AMPLITUDE)
        self.probe = _exterior_data(rng, grid, 1, widths=(0.25, 0.35))[0]
        self.data = _exterior_data(rng, grid, self.PAIRS)

    def run_round(self) -> Round:
        r = Round()
        t0 = time.perf_counter()
        grid = mesh.build_tangential_grid(self.geometry)
        coeff = coefficients.coefficient_from_spec(grid, self.coeff_spec)
        pipe = bridge.BridgePipeline(grid, coeff, S, levels=self.LEVELS)
        r.setup_s = time.perf_counter() - t0

        f = self.probe
        power = fractional_core.spectral_power(pipe.local_op, S)
        oracle = power.apply(fractional_core.solve_fractional_dirichlet(power, f))
        trace = extension.neumann_trace(pipe.extension(f)).values
        widx = grid.w_indices
        r.check("trace_vs_oracle", _rel(-pipe.cs * trace[widx], oracle[widx]), ORACLE_TOL)
        v = pipe.bridge_solution(f)
        interior = bridge.verify_local_equation(
            v, pipe.local_op, np.zeros(grid.num_nodes), region="omega")
        sourced = bridge.verify_local_equation(
            v, pipe.local_op, oracle / pipe.cs, region="active")
        r.check("interior_residual", interior.normalized, RESIDUAL_TOL)
        r.check("sourced_residual", sourced.normalized, RESIDUAL_TOL)

        pairs = []
        for f in self.data:
            t = time.perf_counter()
            pairs.append(bridge.operator_T(pipe, f))
            r.latencies.append(time.perf_counter() - t)
        both = bridge.operator_T(pipe, self.data[0] + self.data[1])
        summed = bridge.CauchyPair(
            boundary_values=pairs[0].boundary_values + pairs[1].boundary_values,
            boundary_flux=pairs[0].boundary_flux + pairs[1].boundary_flux)
        r.check("T_linearity", _pair_error(both, summed), ROUNDING_TOL)
        r.wall_s = time.perf_counter() - t0
        return r


class Recovery1D:
    """1D recovery: pipeline and data operator, then seeded Tikhonov
    reconstructions from forward data, each checked against operator T."""

    name = "recovery-1d"
    NODES, LEVELS, DATA, AMPLITUDE, ALPHA = 384, 128, 100, 0.2, 1e-6

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.geometry = _geometry(1, self.NODES)
        grid = mesh.build_tangential_grid(self.geometry)
        self.coeff_spec = _coefficient_spec(rng, 1, self.AMPLITUDE)
        data = _exterior_data(rng, grid, self.DATA)
        # forward measurements and reference answers, computed once untimed
        coeff = coefficients.coefficient_from_spec(grid, self.coeff_spec)
        power = fractional_core.spectral_power(local_elliptic.assemble_local(grid, coeff), S)
        pipe = bridge.BridgePipeline(grid, coeff, S, levels=self.LEVELS)
        widx = grid.w_indices
        self.measurements = [(f[widx], fractional_core.nonlocal_dtn(power, f)) for f in data]
        self.truth = [bridge.operator_T(pipe, f) for f in data]

    def run_round(self) -> Round:
        r = Round()
        t0 = time.perf_counter()
        grid = mesh.build_tangential_grid(self.geometry)
        coeff = coefficients.coefficient_from_spec(grid, self.coeff_spec)
        pipe = bridge.BridgePipeline(grid, coeff, S, levels=self.LEVELS)
        aop = tikhonov.build_data_operator(pipe)
        r.setup_s = time.perf_counter() - t0

        for (f_w, lam_s_f), truth in zip(self.measurements, self.truth):
            t = time.perf_counter()
            pair, _ = tikhonov.reconstruct_cauchy_from_data(pipe, aop, f_w, lam_s_f, self.ALPHA)
            r.latencies.append(time.perf_counter() - t)
            r.check("reconstruction", _pair_error(pair, truth), RECONSTRUCT_TOL)
        r.wall_s = time.perf_counter() - t0
        return r


def _weighted_specnorm(D: np.ndarray, w: np.ndarray) -> float:
    sw = np.sqrt(w)
    return float(np.max(np.abs(np.linalg.eigvalsh(sw[:, None] * D / sw[None, :]))))


def _sym(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.T)


class Maps2D:
    """2D forward maps: local and nonlocal measurement maps of a reference
    and a seeded perturbed coefficient, then their gaps (no pipeline)."""

    name = "maps-2d"
    NODES = 30

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.geometry = _geometry(2, self.NODES)
        self.specs = ("identity", _coefficient_spec(rng, 2, rng.uniform(0.1, 0.3)))
        # reference maps from an untimed build: a round's reference maps must
        # agree with them (identical coefficients give zero gaps)
        grid = mesh.build_tangential_grid(self.geometry)
        op = local_elliptic.assemble_local(grid, coefficients.coefficient_from_spec(grid, "identity"))
        self.reference = (local_elliptic.local_dtn_matrix(op),
                          fractional_core.nonlocal_dtn_matrix(fractional_core.spectral_power(op, S)))

    def _gaps(self, a, b) -> tuple[float, float]:
        local = _weighted_specnorm(a[0].matrix - b[0].matrix, a[0].weights)
        nonlocal_ = float(np.max(np.abs(np.linalg.eigvalsh(
            _sym(a[1].matrix) - _sym(b[1].matrix)))))
        return local, nonlocal_

    def run_round(self) -> Round:
        r = Round()
        t0 = time.perf_counter()
        grid = mesh.build_tangential_grid(self.geometry)
        ops = [local_elliptic.assemble_local(grid, coefficients.coefficient_from_spec(grid, spec))
               for spec in self.specs]
        powers = [fractional_core.spectral_power(op, S) for op in ops]
        r.setup_s = time.perf_counter() - t0

        maps = []
        for op, power in zip(ops, powers):
            t = time.perf_counter()
            maps.append((local_elliptic.local_dtn_matrix(op),
                         fractional_core.nonlocal_dtn_matrix(power)))
            r.latencies.append(time.perf_counter() - t)
        ones = np.ones(len(grid.boundary_indices))
        for k, (dtn, _) in enumerate(maps):
            r.check(f"constants_{k}", np.max(np.abs(dtn.matrix @ ones)),
                    ROUNDING_TOL * np.max(np.abs(dtn.matrix)))
        same = self._gaps(self.reference, maps[0])
        r.check("identical_local_gap", same[0], IDENTICAL_GAP_TOL)
        r.check("identical_nonlocal_gap", same[1], IDENTICAL_GAP_TOL)
        perturbed = self._gaps(maps[0], maps[1])
        r.check("perturbed_local_gap", perturbed[0], 0.0, ok=perturbed[0] > 0)
        r.check("perturbed_nonlocal_gap", perturbed[1], 0.0, ok=perturbed[1] > 0)
        r.wall_s = time.perf_counter() - t0
        return r


# The configurations scripts/run_all_experiments.py runs, fixed here so the
# yardstick does not move when that script changes.
BATTERY = {
    "oracle-crosscheck": {"s": 0.5, "nodes": 64, "levels": 64,
                          "params": {"s_values": [0.25, 0.5, 0.75]}},
    "duality": {"s": 0.5, "nodes": 64, "levels": 64},
    "bridge-residual": {"s": 0.5, "nodes": 64, "levels": 64},
    "decay-slopes": {"s": 0.5},
    "density": {"dim": 2, "s": 0.5, "nodes": 24, "levels": 24, "seed": 11},
    "tikhonov-sweep": {"s": 0.5, "nodes": 48, "levels": 48},
    "distinguishability": {"s": 0.5, "nodes": 48, "levels": 48},
}


class Battery:
    """The seven CLI experiments through validate_config and run_config,
    written into a scratch directory; the seed drives the experiments' RNG."""

    name = "battery"

    def __init__(self, seed: int, workdir: Path):
        self.seed = int(seed) % 2**31
        self.workdir = workdir

    def run_round(self) -> Round:
        r = Round()
        outdir = Path(tempfile.mkdtemp(prefix="battery-", dir=self.workdir))
        try:
            t0 = time.perf_counter()
            cfgs = [config.validate_config({"experiment": name, **raw})
                    for name, raw in BATTERY.items()]
            r.setup_s = time.perf_counter() - t0
            for cfg in cfgs:
                t = time.perf_counter()
                summary = experiments.run_config(cfg, outdir / cfg.experiment, seed=self.seed)
                r.latencies.append(time.perf_counter() - t)
                r.check(cfg.experiment, 0.0 if summary.passed else 1.0, 0.0)
            r.wall_s = time.perf_counter() - t0
        finally:
            shutil.rmtree(outdir)
        return r


WORKLOADS = {w.name: w for w in (Bridge2D, Recovery1D, Maps2D, Battery)}
