"""Named experiments, their runners, and file emission for the CLI.

Every experiment consumes a validated ExperimentConfig and an RNG seeded
from its ``seed``, and returns tables (written as CSV), curves (two-column
whitespace files for any plotting tool), metrics and a pass flag against its
declared tolerances.  A run is one serial pass in the calling thread; given
the same config, seed and BLAS thread count the outputs are byte-identical.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import bridge as br
from . import extension as ext
from . import fractional_core as fc
from . import tikhonov as tk
from .coefficients import coefficient_from_spec, mollifier_bump, w_bump
from .config import EXPERIMENT_NAMES, PARAMS, ExperimentConfig, _grid_from_config
from .errors import ExperimentError
from .local_elliptic import assemble_local

__all__ = ["ExperimentResult", "RunSummary", "run_experiment", "run_config",
           "experiment_descriptions", "EXPERIMENT_NAMES"]


@dataclass
class ExperimentResult:
    name: str
    passed: bool
    metrics: dict
    tables: dict = dc_field(default_factory=dict)   # name -> (header, rows)
    curves: dict = dc_field(default_factory=dict)   # name -> (x, y)


def _refine_nodes(nodes):
    if isinstance(nodes, tuple):
        return tuple(2 * (n - 1) + 1 for n in nodes)
    return 2 * (nodes - 1) + 1


def _dense_route_grids(cfg: ExperimentConfig, nodes, rungs: int):
    """The grids of ``rungs`` refinement rungs from ``nodes``, each checked
    against the dense route's cap before any work is built on them."""
    grids = []
    for _ in range(rungs):
        grids.append(_grid_from_config(cfg, nodes=nodes))
        fc._check_dense_cap(grids[-1])
        nodes = _refine_nodes(nodes)
    return grids


# --------------------------------------------------------------------------
# experiment runners
# --------------------------------------------------------------------------


def _run_oracle_crosscheck(cfg: ExperimentConfig, rng) -> ExperimentResult:
    s_values = [float(v) for v in cfg.params.get("s_values", [cfg.s])]
    tol = float(cfg.params.get("tolerance", 0.05))
    cal_tol = float(cfg.params.get("calibration_tolerance", 0.05))
    grids = _dense_route_grids(cfg, cfg.nodes, 2)

    table = []
    curves = {}
    passed = True
    metrics = {}
    for s in s_values:
        rows = []
        for level, grid in enumerate(grids):
            levels = cfg.levels * 2 ** level
            coeff = coefficient_from_spec(grid, cfg.coefficient)
            pipe = br.BridgePipeline(
                grid, coeff, s, levels=levels, height=cfg.height, grading=cfg.grading
            )
            P = fc.spectral_power(pipe.local_op, s)
            f = w_bump(grid, cfg.params.get("bump_center"), cfg.params.get("bump_width"))
            u = fc.solve_fractional_dirichlet(P, f)
            oracle = P.apply(u)
            tr = ext.neumann_trace(pipe.extension(f)).values
            widx = grid.w_indices
            err = float(
                np.linalg.norm((-pipe.cs * tr - oracle)[widx])
                / np.linalg.norm(oracle[widx])
            )
            rows.append((level, err))
        cal = ext.calibrate_cs(
            cfg.dim, s, nodes=cfg.nodes if isinstance(cfg.nodes, int) else cfg.nodes[0],
            levels=cfg.levels, height=cfg.height, grading=cfg.grading,
        )
        err0, err1 = rows[0][1], rows[1][1]
        ok = err0 <= tol and err1 < err0 and cal.rel_gap <= cal_tol
        if abs(s - 0.5) < 1e-12:
            ok = ok and abs(cal.fitted - 1.0) <= 0.02
        passed = passed and ok
        table.append([s, err0, err1, cal.fitted, cal.value, cal.rel_gap, int(ok)])
        curves[f"error_s{s:g}"] = (
            np.array([0.0, 1.0]),
            np.array([err0, err1]),
        )
        metrics[f"s={s:g}"] = {"error": err0, "error_refined": err1,
                               "cs_fitted": cal.fitted, "cs_analytic": cal.value}
    return ExperimentResult(
        name="oracle-crosscheck",
        passed=passed,
        metrics=metrics,
        tables={
            "trace_vs_oracle": (
                ["s", "rel_error", "rel_error_refined", "cs_fitted",
                 "cs_analytic", "cs_rel_gap", "passed"],
                table,
            )
        },
        curves=curves,
    )


def _run_duality(cfg: ExperimentConfig, rng) -> ExperimentResult:
    s = cfg.s
    from .mesh import build_extension_mesh, build_vertical_mesh, default_height

    grid = _grid_from_config(cfg)
    coeff = coefficient_from_spec(grid, cfg.coefficient)
    height = cfg.height or default_height(grid)

    # explicit power solution: exactness of the transform
    vm_dual = build_vertical_mesh(1 - s, height, cfg.levels, cfg.grading)
    em_dual = build_extension_mesh(grid, vm_dual)
    y = vm_dual.levels
    cols = np.tile(y ** (2 - 2 * s) / (2 - 2 * s), (grid.num_nodes, 1))
    u1 = ext.ExtensionField(emesh=em_dual, values=cols.ravel())
    u2, rep = br.duality_transform(u1, coeff)
    power_dev = float(np.max(np.abs(u2.values - 1.0)))
    power_res = rep.bulk_residual
    power_trace = float(np.max(np.abs(rep.trace - 1.0)))

    # bump Neumann datum with a refinement sweep
    trace_errors, residuals = [], []
    nodes, levels = cfg.nodes, cfg.levels
    for level in range(int(cfg.params.get("refinements", 1)) + 1):
        g = _grid_from_config(cfg, nodes=nodes)
        c = coefficient_from_spec(g, cfg.coefficient)
        vmd = build_vertical_mesh(1 - s, height * 2 ** (level / 2), levels, cfg.grading)
        emd = build_extension_mesh(g, vmd)
        omega_pts = g.points[g.omega_closure]
        center = omega_pts.mean(axis=0)
        h = mollifier_bump(g.points, center, 0.45)
        u1 = ext.solve_weighted_neumann(emd, c, h)
        u2, rep = br.duality_transform(u1, c)
        trace_errors.append(
            float(np.linalg.norm(rep.trace - h) / np.linalg.norm(h))
        )
        residuals.append(rep.bulk_residual)
        nodes, levels = _refine_nodes(nodes), 2 * levels

    ratios = [residuals[k + 1] / residuals[k] for k in range(len(residuals) - 1)]
    passed = (
        power_dev <= 1e-10
        and power_res <= 1e-10
        and power_trace <= 1e-10
        and trace_errors[0] <= 0.05
        and all(r <= 0.6 for r in ratios)
    )
    return ExperimentResult(
        name="duality",
        passed=passed,
        metrics={
            "power_max_deviation": power_dev,
            "power_bulk_residual": power_res,
            "power_trace_deviation": power_trace,
            "bump_trace_error": trace_errors[0],
            "bump_residuals": residuals,
            "residual_ratios": ratios,
        },
        tables={
            "bump_refinement": (
                ["level", "trace_error", "bulk_residual"],
                [[k, trace_errors[k], residuals[k]] for k in range(len(residuals))],
            )
        },
        curves={"bump_residual": (np.arange(len(residuals), dtype=float),
                                  np.array(residuals))},
    )


def _run_bridge_residual(cfg: ExperimentConfig, rng) -> ExperimentResult:
    s = cfg.s
    tol = float(cfg.params.get("tolerance", 0.10))
    num_levels = int(cfg.params.get("refinements", 2)) + 1
    rows = []
    res_interior, res_sourced, tail_bounds = [], [], []
    levels = cfg.levels
    from .mesh import default_height

    for level, grid in enumerate(_dense_route_grids(cfg, cfg.nodes, num_levels)):
        coeff = coefficient_from_spec(grid, cfg.coefficient)
        height = (cfg.height or default_height(grid)) * 2 ** (level / 2)
        pipe = br.BridgePipeline(grid, coeff, s, levels=levels, height=height,
                                 grading=cfg.grading)
        f = w_bump(grid)
        vi = br.vertical_integral(pipe.extension(f))
        v = vi.values
        tail_bounds.append(vi.tail_bound / float(np.max(np.abs(v))))
        r_int = br.verify_local_equation(
            v, pipe.local_op, np.zeros(grid.num_nodes), region="omega"
        ).normalized
        P = fc.spectral_power(pipe.local_op, s)
        u = fc.solve_fractional_dirichlet(P, f)
        rhs = P.apply(u) / pipe.cs
        r_src = br.verify_local_equation(v, pipe.local_op, rhs, region="active").normalized
        res_interior.append(r_int)
        res_sourced.append(r_src)
        rows.append([level, r_int, r_src])
        levels *= 2

    dec_int = all(b < a for a, b in zip(res_interior, res_interior[1:]))
    dec_src = all(b < a for a, b in zip(res_sourced, res_sourced[1:]))
    passed = res_interior[0] <= tol and res_sourced[0] <= tol and dec_int and dec_src
    lv = np.arange(num_levels, dtype=float)
    return ExperimentResult(
        name="bridge-residual",
        passed=passed,
        metrics={
            "interior_residuals": res_interior,
            "sourced_residuals": res_sourced,
            "interior_decreasing": dec_int,
            "sourced_decreasing": dec_src,
            # truncation defect over max|v| per level; the check refuses
            # more than br.TAIL_FRACTION
            "tail_bounds": tail_bounds,
        },
        tables={
            "residuals": (
                ["level", "interior_mode", "sourced_mode"],
                rows,
            )
        },
        curves={
            "interior_residual": (lv, np.array(res_interior)),
            "sourced_residual": (lv, np.array(res_sourced)),
        },
    )


def _run_decay_slopes(cfg: ExperimentConfig, rng) -> ExperimentResult:
    dims = [int(d) for d in cfg.params.get("dims", [1, 2])]
    tol = float(cfg.params.get("tolerance", 0.10))
    rows = []
    curves = {}
    passed = True
    metrics = {}
    for dim in dims:
        nodes = int(cfg.params.get("nodes", 48 if dim == 1 else 24))
        grid = _grid_from_config(cfg, nodes=nodes, dim=dim)
        center = grid.points[grid.omega_closure].mean(axis=0)
        u = mollifier_bump(grid.points, center, 0.3)
        heights = cfg.params.get("heights")
        if heights is None:
            heights = np.geomspace(2.0, 80.0, 10)
        rep = ext.decay_diagnostic(grid, u, cfg.s, np.asarray(heights, dtype=float),
                                   l2_points=121 if dim > 1 else 201)
        ok = (
            abs(rep.sup_slope - rep.predicted["sup"]) <= tol * abs(rep.predicted["sup"])
            and abs(rep.grad_slope - rep.predicted["grad"])
            <= tol * abs(rep.predicted["grad"])
        )
        passed = passed and ok
        rows.append([dim, rep.sup_slope, rep.predicted["sup"], rep.grad_slope,
                     rep.predicted["grad"], rep.l2_slope, rep.predicted["l2"], int(ok)])
        curves[f"sup_decay_n{dim}"] = (rep.heights, rep.sup_values)
        curves[f"grad_decay_n{dim}"] = (rep.heights, rep.grad_values)
        curves[f"l2_decay_n{dim}"] = (rep.heights, rep.l2_values)
        metrics[f"n={dim}"] = {
            "sup_slope": rep.sup_slope,
            "grad_slope": rep.grad_slope,
            "l2_slope": rep.l2_slope,
        }
    return ExperimentResult(
        name="decay-slopes",
        passed=passed,
        metrics=metrics,
        tables={
            "slopes": (
                ["dim", "sup_fitted", "sup_predicted", "grad_fitted",
                 "grad_predicted", "l2_fitted", "l2_predicted", "passed"],
                rows,
            )
        },
        curves=curves,
    )


def _run_density(cfg: ExperimentConfig, rng) -> ExperimentResult:
    dim = cfg.dim if cfg.dim > 1 else int(cfg.params.get("dim", 2))
    nodes = cfg.nodes if cfg.dim == dim else int(cfg.params.get("nodes", 24))
    grid = _grid_from_config(cfg, nodes=nodes, dim=dim)
    coeff = coefficient_from_spec(grid, cfg.coefficient) if dim == cfg.dim else (
        coefficient_from_spec(grid, "identity")
    )
    levels = int(cfg.params.get("levels", min(cfg.levels, 24)))
    pipe = br.BridgePipeline(grid, coeff, cfg.s, levels=levels, height=cfg.height,
                             grading=cfg.grading)
    basis_size = int(cfg.params.get("basis_size", 40))
    widx = grid.w_indices
    wpts = grid.points[widx]
    lo = wpts.min(axis=0)
    extent = wpts.max(axis=0) - lo
    basis = []
    while len(basis) < basis_size:
        c = lo + rng.random(dim) * extent
        wd = 0.08 + 0.18 * rng.random()
        f = np.zeros(grid.num_nodes)
        f[widx] = mollifier_bump(wpts, c, wd)
        if np.abs(f).max() > 1e-3:
            basis.append(f)
    bpts = grid.points[grid.boundary_indices]
    targets = [np.ones(len(bpts)), bpts[:, 0]]
    if dim >= 2:
        targets += [bpts[:, 0] ** 2 - bpts[:, 1] ** 2, np.sin(np.pi * bpts[:, 1])]
    in_span = pipe.cauchy_pair(basis[0]).boundary_values
    rep = br.density_diagnostic(pipe, [in_span] + targets, basis)
    rel = rep.distances / np.where(rep.target_norms > 0, rep.target_norms, 1.0)[:, None]
    nonincreasing = bool(
        np.all(np.diff(rep.distances, axis=1) <= 1e-10 * rep.distances[:, :-1] + 1e-300)
    )
    line = float(cfg.params.get("target_fraction", 0.10))
    first_k = []
    for t in range(1, rel.shape[0]):
        below = np.flatnonzero(rel[t] <= line)
        first_k.append(int(below[0] + 1) if below.size else -1)
    passed = (
        rel[0, 0] <= 1e-8
        and nonincreasing
        and all(k > 0 for k in first_k)
    )
    rows = [[t, rel[t, 0], float(rel[t].min()), first_k[t - 1] if t > 0 else 1]
            for t in range(rel.shape[0])]
    curves = {
        f"distance_target{t}": (np.arange(1, rel.shape[1] + 1, dtype=float), rel[t])
        for t in range(rel.shape[0])
    }
    return ExperimentResult(
        name="density",
        passed=passed,
        metrics={
            "in_span_distance": float(rel[0, 0]),
            "nonincreasing": nonincreasing,
            "first_k_below_line": first_k,
            "line": line,
            "basis_size": basis_size,
            # the distance curves are rounding past this many traces
            "numerical_rank": rep.numerical_rank,
        },
        tables={
            "distances": (
                ["target", "rel_distance_k1", "rel_distance_min", "first_k_below_line"],
                rows,
            )
        },
        curves=curves,
    )


def _run_tikhonov(cfg: ExperimentConfig, rng) -> ExperimentResult:
    # the forward data take the dense route on this grid, or on its
    # refinement under fine_data
    fine_data = bool(cfg.params.get("fine_data", False))
    grids = _dense_route_grids(cfg, cfg.nodes, 1 + fine_data)
    grid = grids[0]
    coeff = coefficient_from_spec(grid, cfg.coefficient)
    pipe = br.BridgePipeline(grid, coeff, cfg.s, levels=cfg.levels,
                             height=cfg.height, grading=cfg.grading)
    eps = cfg.params.get("eps")
    Aop = tk.build_data_operator(pipe, float(eps) if eps is not None else None)
    alphas = [float(a) for a in cfg.params.get(
        "alphas", [10.0 ** (-k) for k in range(0, 9)]
    )]

    # attainable data: image of a mid-region basis element
    b = np.zeros(Aop.basis_size)
    b[Aop.basis_size // 2] = 1.0
    data = Aop.apply(b)
    sweep = tk.alpha_sweep(Aop, data, alphas)
    sol = tk.minimize(Aop, data, alphas[len(alphas) // 2])
    probe = tk.optimality_probe(Aop, sol, data, rng)
    M = sol.alpha * Aop.G_E + Aop.G_A
    eigs = np.linalg.eigvalsh(0.5 * (M + M.T))
    lam_e = np.linalg.eigvalsh(Aop.G_E)
    spd_ok = bool(eigs.min() >= sol.alpha * lam_e.min() * (1 - 1e-8))

    # closed-loop reconstruction from forward data
    f = w_bump(grid)
    f_w = f[grid.w_indices]
    noise = float(cfg.params.get("noise", 0.0))
    if fine_data:
        # the same bump, centre and width taken on the coarse W nodes
        wpts = grid.points[grid.w_indices]
        width = 0.45 * float(np.max(wpts.max(axis=0) - wpts.min(axis=0)))
        lam_s_f = _fine_forward_data(cfg, grids, wpts.mean(axis=0), width)
    else:
        P = fc.spectral_power(pipe.local_op, cfg.s)
        lam_s_f = fc.nonlocal_dtn(P, f)
    if noise > 0:
        lam_s_f = lam_s_f + noise * np.linalg.norm(lam_s_f) / np.sqrt(
            len(lam_s_f)
        ) * rng.standard_normal(len(lam_s_f))
    alpha_rec = float(cfg.params.get("alpha_reconstruct", 1e-6))
    rec, _ = tk.reconstruct_cauchy_from_data(pipe, Aop, f_w, lam_s_f, alpha_rec)
    truth = br.operator_T(pipe, f)
    rec_err_values = float(
        np.linalg.norm(rec.boundary_values - truth.boundary_values)
        / np.linalg.norm(truth.boundary_values)
    )
    rec_err_flux = float(
        np.linalg.norm(rec.boundary_flux - truth.boundary_flux)
        / np.linalg.norm(truth.boundary_flux)
    )

    passed = (
        sweep.misfit_nonincreasing
        and sweep.penalty_nondecreasing
        and sweep.misfits[-1] <= 1e-6
        and probe >= -1e-10
        and spd_ok
        and (noise > 0 or max(rec_err_values, rec_err_flux) <= 0.10)
    )
    return ExperimentResult(
        name="tikhonov-sweep",
        passed=passed,
        metrics={
            "misfit_nonincreasing": sweep.misfit_nonincreasing,
            "penalty_nondecreasing": sweep.penalty_nondecreasing,
            "final_misfit": float(sweep.misfits[-1]),
            "probe_margin": probe,
            "normal_equations_spd": spd_ok,
            "reconstruction_error_values": rec_err_values,
            "reconstruction_error_flux": rec_err_flux,
            "noise": noise,
        },
        tables={
            "alpha_sweep": (
                ["alpha", "misfit", "penalty"],
                [[a, m, p] for a, m, p in zip(sweep.alphas, sweep.misfits,
                                              sweep.penalties)],
            )
        },
        curves={"misfit": (sweep.alphas, sweep.misfits),
                "penalty": (sweep.alphas, sweep.penalties)},
    )


def _fine_forward_data(cfg: ExperimentConfig, grids, center, width) -> np.ndarray:
    """Forward data generated on the fine grid of ``grids = (coarse, fine)``,
    the coarse grid refined once, sampled back at the coarse measurement
    nodes (inverse-crime mitigation).

    The datum is re-evaluated analytically on the fine grid; coarse nodes
    coincide with every second fine node because refinement preserves the
    box ends.
    """
    grid, fine = grids
    coeff_f = coefficient_from_spec(fine, cfg.coefficient)
    f_fine = mollifier_bump(fine.points, center, width) * fine.w_mask
    P = fc.spectral_power(assemble_local(fine, coeff_f), cfg.s)
    u_fine = fc.solve_fractional_dirichlet(P, f_fine)
    vals_fine = P.apply(u_fine)
    fidx = np.array(np.unravel_index(np.arange(fine.num_nodes), fine.shape)).T
    coarse_of_fine = np.all(fidx % 2 == 0, axis=1)
    return vals_fine[coarse_of_fine][grid.w_indices]


def _run_distinguishability(cfg: ExperimentConfig, rng) -> ExperimentResult:
    grid = _grid_from_config(cfg)
    base = coefficient_from_spec(grid, cfg.coefficient)
    amplitudes = [float(a) for a in cfg.params.get("amplitudes", [0.05, 0.10, 0.20])]
    levels = int(cfg.params.get("levels", min(cfg.levels, 48)))

    # the base is built once for every row; the identical row compares it
    # with a second, independent build
    base_maps = br._coefficient_maps(grid, base, cfg.s, levels, cfg.height)
    same = br._gaps(base_maps, br._coefficient_maps(grid, base, cfg.s, levels, cfg.height))
    center = grid.points[grid.omega_closure].mean(axis=0)
    rows = [[0.0, same.local_gap, same.nonlocal_gap, same.t_gap]]
    gaps_local, gaps_nonlocal = [], []
    for amp in amplitudes:
        spec = {
            "type": "diagonal",
            "entries": [
                {
                    "const": 1.0,
                    "bumps": [{"amplitude": amp, "center": list(center),
                               "width": 0.35}],
                }
                for _ in range(grid.dim)
            ],
            "identity_outside": True,
        }
        pert = coefficient_from_spec(grid, spec)
        # superpose the base away from identity if the base is not identity
        if not base.is_identity():
            diag = base.diag * pert.diag
            from .coefficients import Coefficient

            pert = Coefficient(grid=grid, diag=diag,
                               identity_outside=base.identity_outside)
        rep = br._gaps(base_maps, br._coefficient_maps(grid, pert, cfg.s, levels, cfg.height))
        rows.append([amp, rep.local_gap, rep.nonlocal_gap, rep.t_gap])
        gaps_local.append(rep.local_gap)
        gaps_nonlocal.append(rep.nonlocal_gap)

    passed = (
        same.local_gap <= 1e-9
        and same.nonlocal_gap <= 1e-9
        and all(g > 0 for g in gaps_local)
        and all(g > 0 for g in gaps_nonlocal)
    )
    amps = np.array([r[0] for r in rows])
    return ExperimentResult(
        name="distinguishability",
        passed=passed,
        metrics={
            "identical_local_gap": same.local_gap,
            "identical_nonlocal_gap": same.nonlocal_gap,
            "local_gaps": gaps_local,
            "nonlocal_gaps": gaps_nonlocal,
            "monotone_local": bool(np.all(np.diff(gaps_local) > 0)),
            "monotone_nonlocal": bool(np.all(np.diff(gaps_nonlocal) > 0)),
        },
        tables={
            "gaps": (
                ["amplitude", "local_gap", "nonlocal_gap", "t_gap"],
                rows,
            )
        },
        curves={
            "local_gap": (amps[1:], np.array(gaps_local)),
            "nonlocal_gap": (amps[1:], np.array(gaps_nonlocal)),
        },
    )


_RUNNERS = {
    "oracle-crosscheck": _run_oracle_crosscheck,
    "duality": _run_duality,
    "bridge-residual": _run_bridge_residual,
    "decay-slopes": _run_decay_slopes,
    "density": _run_density,
    "tikhonov-sweep": _run_tikhonov,
    "distinguishability": _run_distinguishability,
}

_DESCRIPTIONS = {
    "oracle-crosscheck": (
        "Weighted Neumann trace of the degenerate extension against the "
        "spectral fractional operator on the measurement region, plus the "
        "normalization-constant calibration."
    ),
    "duality": (
        "The weighted vertical derivative maps dual-weight Neumann solutions "
        "to primal-weight Dirichlet solutions; exact on the power profile, "
        "with a bump-datum refinement sweep."
    ),
    "bridge-residual": (
        "The vertical average of the extension weakly solves the tangential "
        "conductivity equation: zero source inside the interior region, "
        "fractional source elsewhere; residuals over a refinement sweep."
    ),
    "decay-slopes": (
        "Large-height decay exponents of the constant-coefficient extension: "
        "sup ~ y^-n, gradient ~ y^-(n+1), L2 ~ y^-(n/2)."
    ),
    "density": (
        "Boundary traces of bridged solutions approximate boundary targets: "
        "least-squares distance versus basis size in the H^1/2 proxy norm."
    ),
    "tikhonov-sweep": (
        "Regularized recovery of the exterior field from measurement pairs: "
        "misfit/penalty monotonicity, optimality probes, and closed-loop "
        "reconstruction of the Cauchy pair."
    ),
    "distinguishability": (
        "Distinct interior coefficients produce distinct local and nonlocal "
        "measurement maps; gap magnitudes over bump amplitudes."
    ),
}


def experiment_descriptions() -> str:
    return "\n".join(f"{name}\n    {_DESCRIPTIONS[name]}\n    params: {', '.join(params)}"
                     for name, params in PARAMS.items())


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    if cfg.experiment not in _RUNNERS:
        raise ExperimentError(
            f"unknown experiment {cfg.experiment!r}; known: "
            + ", ".join(EXPERIMENT_NAMES)
        )
    return _RUNNERS[cfg.experiment](cfg, np.random.default_rng(cfg.seed))


# --------------------------------------------------------------------------
# file emission
# --------------------------------------------------------------------------


def _atomic_write(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(int(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_curve(path: Path, x, y):
    lines = [f"{_fmt(a)} {_fmt(b)}" for a, b in zip(np.asarray(x), np.asarray(y))]
    _atomic_write(path, "\n".join(lines) + "\n")


@dataclass
class RunSummary:
    config: dict
    seed: int
    result: ExperimentResult
    wall_clock_s: float

    @property
    def passed(self) -> bool:
        return self.result.passed

    def as_dict(self) -> dict:
        return {
            "config": self.config,
            "seed": self.seed,
            "passed": self.passed,
            "wall_clock_s": self.wall_clock_s,
            "experiments": {
                self.result.name: {"passed": self.passed,
                                   "metrics": self.result.metrics},
            },
        }


def run_config(cfg: ExperimentConfig, outdir, seed: int | None = None) -> RunSummary:
    """Run the configured experiment and emit CSV/plot/summary files.

    ``outdir`` is created after the experiment returns.  The summary is
    written last; table and curve files are written through
    a rename so partial files never appear.
    """
    import json

    if seed is not None:
        cfg = ExperimentConfig(**{**cfg.__dict__, "seed": int(seed)})
    t0 = time.perf_counter()
    result = run_experiment(cfg)
    wall = time.perf_counter() - t0
    # made only once the experiment has returned, so a run refused at run
    # time (a CalderonError, exit 2) leaves no directory behind
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for tname, (header, rows) in result.tables.items():
        write_csv(outdir / f"{result.name}_{tname}.csv", header, rows)
    for cname, (x, y) in result.curves.items():
        write_curve(outdir / f"{result.name}_{cname}.dat", x, y)
    summary = RunSummary(
        config=cfg.echo(), seed=cfg.seed, result=result, wall_clock_s=wall
    )
    _atomic_write(outdir / "summary.json",
                  json.dumps(summary.as_dict(), indent=2, sort_keys=True) + "\n")
    return summary
