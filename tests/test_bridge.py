import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import scipy.sparse.linalg as spla

import calderon as cd
from calderon.bridge import TAIL_FRACTION, h_half_gram
from calderon.errors import ParamError, RankWarning, TailError
from calderon.extension import ExtensionField, assemble_extension
from calderon.local_elliptic import boundary_flux

from conftest import make_grid, w_bump


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_vertical_integral_gamma_oracle(grid64, ident64, s):
    """phi(x) e^-t integrates to Gamma(2-2s) phi against the weight."""
    vm = cd.build_vertical_mesh(s, 12.0, 64, grading=2.0)
    em = cd.build_extension_mesh(grid64, vm)
    phi = cd.mollifier_bump(grid64.points, [0.5], 0.3)
    cols = phi[:, None] * np.exp(-vm.levels)[None, :]
    fld = ExtensionField(emesh=em, values=cols.ravel(), system=None)
    vi = cd.vertical_integral(fld)
    exact = math.gamma(2 - 2 * s) * phi
    nz = phi > 1e-6
    rel = np.max(np.abs(vi.values[nz] - exact[nz]) / exact[nz])
    assert rel < 0.005


def test_vertical_integral_constant_field_tail_error(grid64):
    vm = cd.build_vertical_mesh(0.75, 8.0, 32)
    em = cd.build_extension_mesh(grid64, vm)
    fld = ExtensionField(emesh=em, values=np.ones(em.num_nodes), system=None)
    with pytest.raises(TailError):
        cd.vertical_integral(fld)


def test_vertical_integral_zero_field(grid64):
    vm = cd.build_vertical_mesh(0.5, 4.0, 16)
    em = cd.build_extension_mesh(grid64, vm)
    fld = ExtensionField(emesh=em, values=np.zeros(em.num_nodes), system=None)
    vi = cd.vertical_integral(fld)
    assert np.all(vi.values == 0.0) and vi.tail_bound == 0.0


def test_bridge_solution_h1_stable_under_refinement():
    """v stays bounded with a stabilizing discrete H1 norm as the mesh refines."""
    norms = []
    for nodes, levels in ((65, 48), (129, 96)):
        grid = make_grid(nodes=nodes)
        a = cd.identity_coefficient(grid)
        pipe = cd.BridgePipeline(grid, a, 0.5, levels=levels)
        v = pipe.bridge_solution(w_bump(grid))
        op = pipe.local_op
        norms.append(float(np.sqrt(v @ (op.stiffness @ v)
                                   + grid.node_volume * np.sum(v**2))))
    assert abs(norms[1] - norms[0]) / norms[1] < 0.05


def test_vertical_integral_is_the_level_weight_sum(grid64, pipeline_half):
    """v is the sum of the levels with the weights the extension is
    assembled with, to the bit."""
    fld = pipeline_half.extension(w_bump(grid64))
    nu = pipeline_half.emesh.vertical.level_weights()
    assert np.array_equal(cd.vertical_integral(fld).values, fld.as_columns() @ nu)


@pytest.mark.parametrize("dim,nodes", [(1, 64), (2, 24)])
def test_cauchy_pair_is_the_level_average(dim, nodes):
    """The bridged Cauchy pair is two vertical averages with the level
    weights: of the per-level boundary traces and of the per-level conormal
    fluxes."""
    grid = make_grid(dim=dim, nodes=nodes)
    pipe = cd.BridgePipeline(grid, _bump_coefficient(grid), 0.5, levels=48)
    fld = pipe.extension(w_bump(grid))
    cols = fld.as_columns()
    nu = pipe.emesh.vertical.level_weights()
    fluxes = np.column_stack([boundary_flux(pipe.local_op, u) for u in cols.T])
    pair = pipe.cauchy_pair(w_bump(grid))
    for got, levels in ((pair.boundary_values, cols[grid.boundary_indices]),
                        (pair.boundary_flux, fluxes)):
        want = levels @ nu
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_duality_power_solution_exact(grid64, ident64):
    s = 0.5
    vm = cd.build_vertical_mesh(1 - s, 6.0, 64)
    em = cd.build_extension_mesh(grid64, vm)
    y = vm.levels
    cols = np.tile(y ** (2 - 2 * s) / (2 - 2 * s), (grid64.num_nodes, 1))
    u1 = ExtensionField(emesh=em, values=cols.ravel(),
                        system=assemble_extension(em, ident64))
    u2, rep = cd.duality_transform(u1, ident64)
    assert np.max(np.abs(u2.values - 1.0)) <= 1e-10
    assert rep.bulk_residual <= 1e-10
    assert np.max(np.abs(rep.trace - 1.0)) <= 1e-10


def test_duality_linearity(grid64, ident64):
    s = 0.4
    from calderon.extension import solve_weighted_neumann

    vm = cd.build_vertical_mesh(1 - s, 6.0, 32)
    em = cd.build_extension_mesh(grid64, vm)
    h1 = cd.mollifier_bump(grid64.points, [0.8], 0.4)
    h2 = cd.mollifier_bump(grid64.points, [1.2], 0.3)
    u_a = solve_weighted_neumann(em, ident64, h1)
    u_b = solve_weighted_neumann(em, ident64, h2)
    u_ab = solve_weighted_neumann(em, ident64, h1 + h2)
    v_a, _ = cd.duality_transform(u_a, ident64)
    v_b, _ = cd.duality_transform(u_b, ident64)
    v_ab, _ = cd.duality_transform(u_ab, ident64)
    scale = np.abs(v_ab.values).max()
    assert np.allclose(v_ab.values, v_a.values + v_b.values, atol=1e-9 * scale)


def test_verify_local_equation_zero_data(grid64, op64):
    rep = cd.verify_local_equation(np.zeros(grid64.num_nodes), op64,
                                   np.zeros(grid64.num_nodes))
    assert rep.normalized == 0.0


def test_rhs_self_consistency(grid64, op64, power_half, pipeline_half):
    """The spectral source vanishes on the interior region, so the sourced
    and zero-source residuals coincide there to oracle tolerance."""
    f = w_bump(grid64)
    v = pipeline_half.bridge_solution(f)
    u = cd.solve_fractional_dirichlet(power_half, f)
    rhs = power_half.apply(u) / pipeline_half.cs
    r_zero = cd.verify_local_equation(v, op64, np.zeros(grid64.num_nodes),
                                      region="omega")
    r_src = cd.verify_local_equation(v, op64, rhs, region="omega")
    assert abs(r_zero.normalized - r_src.normalized) < 1e-8


def test_operator_t_zero_and_linearity(grid64, pipeline_half):
    zero = cd.operator_T(pipeline_half, np.zeros(grid64.num_nodes))
    assert np.all(zero.boundary_values == 0) and np.all(zero.boundary_flux == 0)
    f = w_bump(grid64)
    g = np.zeros(grid64.num_nodes)
    g[grid64.w_indices] = np.linspace(0.5, -0.5, len(grid64.w_indices))
    t_f = cd.operator_T(pipeline_half, f)
    t_g = cd.operator_T(pipeline_half, g)
    t_fg = cd.operator_T(pipeline_half, f + g)
    scale = np.abs(t_fg.boundary_values).max() + np.abs(t_fg.boundary_flux).max()
    assert np.allclose(t_fg.boundary_values, t_f.boundary_values
                       + t_g.boundary_values, atol=1e-8 * scale)
    assert np.allclose(t_fg.boundary_flux, t_f.boundary_flux + t_g.boundary_flux,
                       atol=1e-8 * scale)


def test_operator_t_flux_consistent_with_dtn(grid64, pipeline_half):
    """v is discrete-harmonic inside, so the boundary map applied to its
    boundary values reproduces its conormal flux up to the bridge residual."""
    pair = cd.operator_T(pipeline_half, w_bump(grid64))
    dtn = cd.local_dtn_matrix(pipeline_half.local_op)
    pred = dtn.matrix @ pair.boundary_values
    rel = np.linalg.norm(pred - pair.boundary_flux) / np.linalg.norm(
        pair.boundary_flux
    )
    assert rel < 0.02


def test_h_half_gram_spd(grid64):
    G = h_half_gram(grid64)
    assert np.all(np.linalg.eigvalsh(G) > 0)


def test_density_in_span_and_monotone(grid64, pipeline_half):
    basis = [w_bump(grid64, center=[c], width=0.2) for c in (1.6, 1.8, 2.0)]
    target = pipeline_half.cauchy_pair(basis[1]).boundary_values
    # three traces on a 1D box's two boundary nodes have rank at most two
    with pytest.warns(RankWarning):
        rep = cd.density_diagnostic(pipeline_half, [target], basis)
    # distances nonincreasing, and zero once the generating trace enters
    d = rep.distances[0]
    assert np.all(np.diff(d) <= 1e-10 * d[:-1] + 1e-300)
    assert d[1] <= 1e-8 * rep.target_norms[0]


def test_density_warns_on_duplicate_basis(grid64, pipeline_half):
    f = w_bump(grid64, center=[1.8], width=0.2)
    target = np.ones(len(grid64.boundary_indices))
    with pytest.warns(RankWarning):
        cd.density_diagnostic(pipeline_half, [target], [f, f])


def test_density_experiment_records_numerical_rank(monkeypatch):
    from calderon import bridge
    from calderon.config import validate_config
    from calderon.experiments import run_experiment

    real = bridge.density_diagnostic
    reports = []

    def recording(*args):
        reports.append(real(*args))
        return reports[-1]

    monkeypatch.setattr(bridge, "density_diagnostic", recording)
    # a 1D box has two boundary nodes, so six traces have rank at most two
    cfg = validate_config({"experiment": "density", "s": 0.5, "nodes": 40,
                           "levels": 24, "seed": 5,
                           "params": {"dim": 1, "basis_size": 6}})
    with pytest.warns(RankWarning):
        result = run_experiment(cfg)
    sv = reports[0].singular_values
    rank = int(np.count_nonzero(sv >= 1e-10 * sv.max()))
    assert result.metrics["numerical_rank"] == rank
    assert result.metrics["basis_size"] == 6
    assert 0 < rank < 6


def test_distinguishability_gaps(grid64):
    a1 = cd.identity_coefficient(grid64)
    spec = {"type": "diagonal",
            "entries": [{"const": 1.0,
                         "bumps": [{"amplitude": 0.1, "center": [0.5],
                                    "width": 0.35}]}],
            "identity_outside": True}
    a2 = cd.coefficient_from_spec(grid64, spec)
    same = cd.distinguishability_experiment(grid64, a1, a1, 0.5, levels=32)
    assert same.local_gap <= 1e-9 and same.nonlocal_gap <= 1e-9
    diff = cd.distinguishability_experiment(grid64, a1, a2, 0.5, levels=32)
    assert diff.local_gap > 0 and diff.nonlocal_gap > 0 and diff.t_gap > 0


def test_distinguishability_assembles_each_local_operator_once(grid64, monkeypatch):
    """The maps are read off the two pipelines' local operators: one
    assemble_local per coefficient."""
    from calderon import bridge

    calls = []
    assemble = bridge.assemble_local
    monkeypatch.setattr(bridge, "assemble_local",
                        lambda *args: calls.append(args) or assemble(*args))
    a = cd.identity_coefficient(grid64)
    cd.distinguishability_experiment(grid64, a, a, 0.5, levels=32)
    assert len(calls) == 2


def clipped_midpoint_integral(field, start):
    """Reference integral from ``start``: clipped weighted cell measures times
    the linear interpolant at the clipped midpoint, one product per cell end."""
    vm = field.emesh.vertical
    y = vm.levels
    e = 2.0 - 2.0 * field.emesh.vertical.s
    lo = np.maximum(y[:-1], start)
    hi = y[1:]
    live = hi > lo
    measure = np.zeros(vm.num_levels)
    measure[live] = (hi[live] ** e - lo[live] ** e) / e
    mid = np.zeros(vm.num_levels)
    mid[live] = ((lo[live] + hi[live]) / 2 - y[:-1][live]) / (y[1:] - y[:-1])[live]
    cols = field.as_columns()
    return cols[:, :-1] @ (measure * (1.0 - mid)) + cols[:, 1:] @ (measure * mid)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_vertical_integral_matches_reference_formulas(dim, s):
    grid = make_grid(dim=dim, nodes=48 if dim == 1 else 16)
    pipe = cd.BridgePipeline(grid, cd.identity_coefficient(grid), s, levels=40)
    f = np.zeros(grid.num_nodes)
    f[grid.w_indices] = np.random.default_rng(2).standard_normal(len(grid.w_indices))
    fld = pipe.extension(f)
    old = clipped_midpoint_integral(fld, 0.0)
    new = cd.vertical_integral(fld).values
    assert np.max(np.abs(new - old)) <= 1e-13 * np.max(np.abs(old))
    flat = ExtensionField(emesh=fld.emesh, values=np.ones_like(fld.values))
    with pytest.raises(TailError):
        cd.vertical_integral(flat)


def _bump_coefficient(grid):
    center = grid.points[grid.omega_closure].mean(axis=0)
    # a dip to 0.75 at the interior region's centre, so a_min is not 1
    bump = {"const": 1.0, "bumps": [{"amplitude": -0.25, "center": list(center),
                                     "width": 0.35}]}
    return cd.coefficient_from_spec(grid, {"type": "diagonal", "identity_outside": True,
                                           "entries": [bump] * grid.dim})


def _lowest_eigenvalue(grid):
    """Smallest eigenvalue of the identity-coefficient operator on the
    active nodes, per unit node volume, by a shift-invert eigensolve."""
    K = cd.assemble_local(grid, cd.identity_coefficient(grid)).stiffness
    act = np.flatnonzero(grid.active)
    lam = spla.eigsh(K[act][:, act].tocsc(), k=1, sigma=0.0, return_eigenvectors=False)
    return float(lam[0]) / grid.node_volume


@pytest.mark.parametrize("dim,nodes,levels", [(1, 64, 64), (2, 16, 32), (3, 14, 16)])
@pytest.mark.parametrize("bump", [False, True])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_tail_bound_is_the_omega_residual(dim, nodes, levels, bump, s):
    """On the interior region's rows the weak residual of v is the flux q
    the pinned top draws, and tail_bound is max|q| over a_min times the
    smallest eigenvalue of the identity operator.  On this geometry q peaks
    between the interior region and W, so ``tail_bound * lam_lo`` bounds
    the interior residual rather than equals it.  In 1D at
    s = 0.1 the default height leaves a defect over 1% of max|v|, which is
    refused with a message naming the height and the config key."""
    grid = make_grid(dim=dim, nodes=nodes)
    a = _bump_coefficient(grid) if bump else cd.identity_coefficient(grid)
    pipe = cd.BridgePipeline(grid, a, s, levels=levels)
    fld = pipe.extension(w_bump(grid))
    q = fld.as_columns()[:, -2] / pipe.emesh.vertical.cell_resistances()[-1]
    v = fld.as_columns() @ pipe.emesh.vertical.level_weights()
    omega = grid.omega_interior
    residual = (pipe.local_op.stiffness @ v)[omega] / grid.node_volume
    assert np.max(np.abs(residual + q[omega])) <= 1e-6 * np.max(np.abs(residual))
    lam_lo = a.lam_min * _lowest_eigenvalue(grid)
    refused = np.max(np.abs(q)) / lam_lo > TAIL_FRACTION * np.max(np.abs(v))
    assert refused == (dim == 1 and s == 0.1)
    if refused:
        height = f"{pipe.emesh.vertical.height:.4g}"
        with pytest.raises(TailError, match=f"height {re.escape(height)} .*'height'"):
            cd.vertical_integral(fld)
        return
    vi = cd.vertical_integral(fld)
    assert vi.tail_bound * lam_lo == pytest.approx(np.max(np.abs(q)), rel=1e-9)
    assert vi.tail_bound * lam_lo >= np.max(np.abs(residual))


def test_half_height_trips_the_tail_check():
    """On the battery's 1D grid at s = 0.5 the default height leaves a
    truncation defect of about 0.25% of max|v|; half that height leaves about
    5%, which the check refuses."""
    grid = make_grid(nodes=64)
    a = cd.identity_coefficient(grid)
    f = w_bump(grid)
    vi = cd.vertical_integral(cd.BridgePipeline(grid, a, 0.5, levels=64).extension(f))
    assert vi.tail_bound <= 0.003 * np.max(np.abs(vi.values))
    half = cd.BridgePipeline(grid, a, 0.5, levels=64, height=cd.default_height(grid) / 2)
    with pytest.raises(TailError):
        cd.vertical_integral(half.extension(f))


def test_pipeline_refuses_data_on_the_interior_region(grid64, pipeline_half):
    """Data must vanish on the closed interior region, for one datum and for
    every column of a block."""
    f = w_bump(grid64)
    f[np.flatnonzero(grid64.omega_closure)[-1]] = 1.0
    with pytest.raises(ParamError, match="exterior region"):
        pipeline_half.extension(f)
    F = np.column_stack([w_bump(grid64), f])
    with pytest.raises(ParamError, match="exterior region"):
        pipeline_half.extensions(F)
