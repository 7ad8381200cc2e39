"""Acceptance suite: every criterion at its declared tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.  Tolerances are pinned here, not tuned elsewhere.
"""

import math

import numpy as np
import pytest

import calderon as cd
from calderon.errors import TailError
from calderon.extension import ExtensionField, assemble_extension, solve_weighted_neumann

from conftest import make_grid, w_bump

S_VALUES = (0.25, 0.5, 0.75)


def criterion(num, description, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"criterion {num} failed: {description} {detail}"


@pytest.fixture(scope="module")
def setups():
    """Base and refined pipelines with spectral powers for each order."""
    out = {}
    for s in S_VALUES:
        entry = {}
        for tag, nodes, levels in (("base", 64, 64), ("fine", 127, 128)):
            grid = make_grid(nodes=nodes)
            a = cd.identity_coefficient(grid)
            pipe = cd.BridgePipeline(grid, a, s, levels=levels)
            P = cd.spectral_power(pipe.local_op, s)
            f = w_bump(grid)
            entry[tag] = (grid, pipe, P, f)
        out[s] = entry
    return out


def trace_oracle_error(grid, pipe, P, f):
    u = cd.solve_fractional_dirichlet(P, f)
    oracle = P.apply(u)
    tr = cd.neumann_trace(pipe.extension(f)).values
    widx = grid.w_indices
    return float(np.linalg.norm((-pipe.cs * tr - oracle)[widx])
                 / np.linalg.norm(oracle[widx]))


def test_criterion_1_oracle_crosscheck(setups):
    ok = True
    details = []
    for s in S_VALUES:
        e0 = trace_oracle_error(*setups[s]["base"])
        e1 = trace_oracle_error(*setups[s]["fine"])
        details.append(f"s={s}: {e0:.2e}->{e1:.2e}")
        ok = ok and e0 <= 0.05 and e1 < e0
    criterion(1, "extension trace matches spectral oracle (<=5%, improving)",
              ok, "; ".join(details))


def test_criterion_2_calibration():
    ok = True
    details = []
    for s in S_VALUES:
        cal = cd.calibrate_cs(1, s, nodes=64, levels=64)
        ok = ok and cal.rel_gap <= 0.05
        if s == 0.5:
            ok = ok and abs(cal.fitted - 1.0) <= 0.02
        details.append(f"s={s}: fit {cal.fitted:.4f} vs {cal.value:.4f}")
    criterion(2, "fitted normalization within 5% of analytic (2% at s=1/2)",
              ok, "; ".join(details))


def test_criterion_3_duality():
    s = 0.5
    grid = make_grid(nodes=64)
    a = cd.identity_coefficient(grid)
    vm = cd.build_vertical_mesh(1 - s, 6.0, 64)
    em = cd.build_extension_mesh(grid, vm)
    y = vm.levels
    cols = np.tile(y ** (2 - 2 * s) / (2 - 2 * s), (grid.num_nodes, 1))
    u1 = ExtensionField(emesh=em, values=cols.ravel(),
                        system=assemble_extension(em, a))
    u2, rep = cd.duality_transform(u1, a)
    power_ok = (np.max(np.abs(u2.values - 1.0)) <= 1e-10
                and rep.bulk_residual <= 1e-10
                and np.max(np.abs(rep.trace - 1.0)) <= 1e-10)

    trace_errs, residuals = [], []
    for level, (nodes, levels) in enumerate(((64, 64), (127, 128))):
        g = make_grid(nodes=nodes)
        ag = cd.identity_coefficient(g)
        vmd = cd.build_vertical_mesh(1 - s, 6.0 * 2 ** (level / 2), levels)
        emd = cd.build_extension_mesh(g, vmd)
        h = cd.mollifier_bump(g.points, [1.0], 0.45)
        u1 = solve_weighted_neumann(emd, ag, h)
        _, repb = cd.duality_transform(u1, ag)
        trace_errs.append(np.linalg.norm(repb.trace - h) / np.linalg.norm(h))
        residuals.append(repb.bulk_residual)
    bump_ok = trace_errs[0] <= 0.05 and residuals[1] <= 0.5 * residuals[0] * 1.2
    criterion(3, "duality: power case exact to 1e-10; bump case <=5%, residual halving",
              power_ok and bump_ok,
              f"power ok={power_ok}, trace {trace_errs[0]:.3f}, "
              f"residual ratio {residuals[1] / residuals[0]:.2f}")


def test_criterion_4_bridge_residual():
    s = 0.5
    res_interior, res_sourced = [], []
    nodes, levels, height = 64, 64, 7.0
    for level in range(3):
        grid = make_grid(nodes=nodes)
        a = cd.identity_coefficient(grid)
        pipe = cd.BridgePipeline(grid, a, s, levels=levels,
                                 height=height * 2 ** (level / 2))
        f = w_bump(grid)
        v = pipe.bridge_solution(f)
        res_interior.append(cd.verify_local_equation(
            v, pipe.local_op, np.zeros(grid.num_nodes), region="omega"
        ).normalized)
        P = cd.spectral_power(pipe.local_op, s)
        u = cd.solve_fractional_dirichlet(P, f)
        res_sourced.append(cd.verify_local_equation(
            v, pipe.local_op, P.apply(u) / pipe.cs, region="active"
        ).normalized)
        nodes, levels = 2 * (nodes - 1) + 1, 2 * levels
    ok = (res_interior[0] <= 0.10 and res_sourced[0] <= 0.10
          and all(b < a for a, b in zip(res_interior, res_interior[1:]))
          and all(b < a for a, b in zip(res_sourced, res_sourced[1:])))
    criterion(4, "bridge weak residual <=10% and monotone over 3 levels (both modes)",
              ok,
              "interior " + "->".join(f"{r:.1e}" for r in res_interior)
              + "; sourced " + "->".join(f"{r:.1e}" for r in res_sourced))


def test_criterion_5_vertical_quadrature():
    grid = make_grid(nodes=64)
    phi = cd.mollifier_bump(grid.points, [0.5], 0.3)
    ok = True
    details = []
    for s in S_VALUES:
        vm = cd.build_vertical_mesh(s, 12.0, 64, grading=2.0)
        em = cd.build_extension_mesh(grid, vm)
        cols = phi[:, None] * np.exp(-vm.levels)[None, :]
        fld = ExtensionField(emesh=em, values=cols.ravel(), system=None)
        vi = cd.vertical_integral(fld)
        exact = math.gamma(2 - 2 * s) * phi
        nz = phi > 1e-6
        rel = np.max(np.abs(vi.values[nz] - exact[nz]) / exact[nz])
        details.append(f"s={s}: {rel:.2e}")
        ok = ok and rel <= 0.005
    vm = cd.build_vertical_mesh(0.75, 8.0, 32)
    em = cd.build_extension_mesh(grid, vm)
    const = ExtensionField(emesh=em, values=np.ones(em.num_nodes), system=None)
    try:
        cd.vertical_integral(const)
        tail_ok = False
    except TailError:
        tail_ok = True
    criterion(5, "weighted quadrature exact to 0.5% on the Gamma test; "
                 "constant field trips the tail check",
              ok and tail_ok, "; ".join(details) + f"; TailError={tail_ok}")


def test_criterion_6_decay_slopes():
    ok = True
    details = []
    for dim, nodes in ((1, 48), (2, 24)):
        grid = make_grid(dim=dim, nodes=nodes)
        center = grid.points[grid.omega_closure].mean(axis=0)
        u = cd.mollifier_bump(grid.points, center, 0.3)
        rep = cd.decay_diagnostic(grid, u, 0.5, np.geomspace(2.0, 80.0, 10),
                                  l2_points=121 if dim > 1 else 201)
        ok = ok and abs(rep.sup_slope + dim) <= 0.1 * dim
        ok = ok and abs(rep.grad_slope + dim + 1) <= 0.1 * (dim + 1)
        details.append(f"n={dim}: sup {rep.sup_slope:.3f}, grad {rep.grad_slope:.3f}")
    criterion(6, "decay slopes within 10% of -n (sup) and -(n+1) (gradient), n=1,2",
              ok, "; ".join(details))


@pytest.fixture(scope="module")
def tikhonov_setup():
    grid = make_grid(nodes=48)
    a = cd.identity_coefficient(grid)
    pipe = cd.BridgePipeline(grid, a, 0.5, levels=48)
    return grid, pipe, cd.build_data_operator(pipe)


def test_criterion_7_tikhonov(tikhonov_setup):
    grid, pipe, aop = tikhonov_setup
    b = np.zeros(aop.basis_size)
    b[aop.basis_size // 2] = 1.0
    data = aop.apply(b)
    alphas = [10.0 ** (-k) for k in range(0, 9)]
    rep = cd.alpha_sweep(aop, data, alphas)
    rng = np.random.default_rng(12)
    probes_ok = True
    for alpha in alphas[::3]:
        sol = cd.minimize(aop, data, alpha)
        probes_ok = probes_ok and cd.optimality_probe(
            aop, sol, data, rng) >= -1e-10
    M = 1e-4 * aop.G_E + aop.G_A
    spd_ok = np.linalg.eigvalsh(0.5 * (M + M.T)).min() >= \
        1e-4 * np.linalg.eigvalsh(aop.G_E).min() * (1 - 1e-8)
    ok = (rep.misfit_nonincreasing and rep.misfits[-1] <= 1e-6
          and probes_ok and spd_ok)
    criterion(7, "misfit monotone to <=1e-6 at alpha=1e-8; 100 probes per alpha; "
                 "normal equations SPD",
              ok, f"final misfit {rep.misfits[-1]:.2e}")


def test_criterion_8_closed_loop(tikhonov_setup):
    grid, pipe, aop = tikhonov_setup
    f = w_bump(grid)
    P = cd.spectral_power(pipe.local_op, 0.5)
    lam_s_f = cd.nonlocal_dtn(P, f)
    pair, _ = cd.reconstruct_cauchy_from_data(pipe, aop, f[grid.w_indices],
                                              lam_s_f, 1e-6)
    truth = cd.operator_T(pipe, f)
    ev = np.linalg.norm(pair.boundary_values - truth.boundary_values) \
        / np.linalg.norm(truth.boundary_values)
    efl = np.linalg.norm(pair.boundary_flux - truth.boundary_flux) \
        / np.linalg.norm(truth.boundary_flux)
    criterion(8, "closed-loop reconstruction within 10% of the forward map",
              max(ev, efl) <= 0.10, f"values {ev:.2e}, flux {efl:.2e}")


def test_criterion_9_semigroup_and_symmetry(setups):
    grid, pipe, P_half, f = setups[0.5]["base"]
    op = pipe.local_op
    rng = np.random.default_rng(21)
    u = rng.standard_normal(grid.num_nodes)
    u[~grid.active] = 0.0
    P_comp = cd.spectral_power(op, 0.5)
    both = P_comp.apply(cd.spectral_power(op, 0.5).apply(u))
    once = (op.stiffness @ u) / op.node_volume
    semigroup = np.linalg.norm((both - once)[grid.active]) \
        / np.linalg.norm(once[grid.active])

    dtn = cd.local_dtn_matrix(op)
    S = dtn.schur()
    sym_local = np.max(np.abs(S - S.T)) / max(np.max(np.abs(S)), 1e-300)
    nl = cd.nonlocal_dtn_matrix(P_half).matrix
    sym_nonlocal = np.max(np.abs(nl - nl.T)) / np.max(np.abs(nl))
    const_flux = np.max(np.abs(cd.local_dtn(op, np.ones(grid.num_nodes))))
    ok = (semigroup <= 1e-9 and sym_local <= 1e-10 and sym_nonlocal <= 1e-10
          and const_flux <= 1e-10)
    criterion(9, "semigroup to 1e-9; both maps symmetric to 1e-10; "
                 "constants carry zero flux",
              ok, f"semigroup {semigroup:.1e}, sym {sym_local:.1e}/"
                  f"{sym_nonlocal:.1e}, const flux {const_flux:.1e}")


def test_criterion_10_density():
    grid = make_grid(dim=2, nodes=24)
    a = cd.identity_coefficient(grid)
    pipe = cd.BridgePipeline(grid, a, 0.5, levels=24)
    rng = np.random.default_rng(11)
    widx = grid.w_indices
    wpts = grid.points[widx]
    lo = wpts.min(axis=0)
    extent = wpts.max(axis=0) - lo
    basis = []
    while len(basis) < 40:
        c = lo + rng.random(2) * extent
        wd = 0.08 + 0.18 * rng.random()
        f = np.zeros(grid.num_nodes)
        f[widx] = cd.mollifier_bump(wpts, c, wd)
        if np.abs(f).max() > 1e-3:
            basis.append(f)
    bpts = grid.points[grid.boundary_indices]
    targets = [np.ones(len(bpts)), bpts[:, 0] ** 2 - bpts[:, 1] ** 2,
               np.sin(np.pi * bpts[:, 1])]
    in_span = pipe.cauchy_pair(basis[0]).boundary_values
    with pytest.warns(Warning):
        rep = cd.density_diagnostic(pipe, [in_span] + targets, basis)
    rel = rep.distances / rep.target_norms[:, None]
    noninc = np.all(np.diff(rep.distances, axis=1)
                    <= 1e-10 * rep.distances[:, :-1] + 1e-300)
    smooth_ok = all(rel[t].min() <= 0.10 for t in range(1, rel.shape[0]))
    ok = bool(rel[0, 0] <= 1e-8 and noninc and smooth_ok)
    criterion(10, "density: nonincreasing distances, in-span zero, smooth "
                  "targets below 10%",
              ok, f"in-span {rel[0, 0]:.1e}, mins "
                  + ", ".join(f"{rel[t].min():.3f}" for t in range(1, rel.shape[0])))


def test_criterion_11_distinguishability():
    grid = make_grid(nodes=48)
    a1 = cd.identity_coefficient(grid)
    same = cd.distinguishability_experiment(grid, a1, a1, 0.5, levels=32)
    spec = {"type": "diagonal",
            "entries": [{"const": 1.0,
                         "bumps": [{"amplitude": 0.10, "center": [0.5],
                                    "width": 0.35}]}],
            "identity_outside": True}
    a2 = cd.coefficient_from_spec(grid, spec)
    diff = cd.distinguishability_experiment(grid, a1, a2, 0.5, levels=32)
    ok = (same.local_gap <= 1e-9 and same.nonlocal_gap <= 1e-9
          and diff.local_gap > 0 and diff.nonlocal_gap > 0)
    criterion(11, "identical coefficients give zero gaps; a 10% interior bump "
                  "separates both maps",
              ok, f"same ({same.local_gap:.1e}, {same.nonlocal_gap:.1e}); "
                  f"bump ({diff.local_gap:.2e}, {diff.nonlocal_gap:.2e})")
