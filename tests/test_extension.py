import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import calderon as cd
from calderon.errors import (
    CalibrationError,
    FitError,
    MeshMismatch,
    ParamError,
    SolveError,
)
from calderon.extension import (
    _CHUNK,
    ExtensionField,
    ExtensionSolver,
    _weighted_trace,
    assemble_extension,
    extend_via_kernel,
    poisson_kernel_constant,
    solve_weighted_neumann,
)

from conftest import assert_same_sparse, make_grid, w_bump


@pytest.fixture(scope="module")
def emesh64(grid64):
    vm = cd.build_vertical_mesh(0.5, 6.0, 64)
    return cd.build_extension_mesh(grid64, vm)


def synthetic_field(emesh, coeff, profile):
    """Field constant in the tangential directions with a given y-profile."""
    cols = np.tile(profile(emesh.vertical.levels), (emesh.grid.num_nodes, 1))
    return ExtensionField(
        emesh=emesh, values=cols.ravel(), s=emesh.vertical.s,
        system=assemble_extension(emesh, coeff),
    )


def test_constant_data_diagnostic_mode_exact(grid64, ident64, emesh64):
    """All-Dirichlet trace with natural top/lateral conditions: constants are
    exact discrete solutions and their weighted trace vanishes."""
    c = 2.5
    f = np.full(grid64.num_nodes, c)
    fld = cd.solve_extension(emesh64, ident64, 0.5, f, dirichlet_trace=True,
                             top="neumann", lateral="natural")
    assert np.max(np.abs(fld.values - c)) < 1e-10
    tr = cd.neumann_trace(fld)
    assert np.max(np.abs(tr.values)) < 1e-10


def test_power_profile_is_stencil_exact(grid64, ident64):
    """t**(2s)/(2s) zeroes the interior rows of the weighted stencil exactly."""
    for s in (0.25, 0.5, 0.75):
        vm = cd.build_vertical_mesh(s, 4.0, 32)
        em = cd.build_extension_mesh(grid64, vm)
        fld = synthetic_field(em, ident64, lambda y, s=s: y ** (2 * s) / (2 * s))
        S = fld.system.stiffness
        r = (S @ fld.values).reshape(grid64.num_nodes, vm.num_levels + 1)[:, 1:-1]
        scale = np.abs(S.diagonal()).max() * np.abs(fld.values).max()
        assert np.max(np.abs(r)) < 1e-12 * scale


def test_mesh_mismatch():
    grid = make_grid(nodes=24)
    a = cd.identity_coefficient(grid)
    vm = cd.build_vertical_mesh(0.5, 4.0, 16)
    em = cd.build_extension_mesh(grid, vm)
    with pytest.raises(MeshMismatch):
        cd.solve_extension(em, a, 0.25, np.zeros(grid.num_nodes))


def test_trace_data_support_check(grid64, ident64, emesh64):
    f = np.zeros(grid64.num_nodes)
    f[np.flatnonzero(grid64.omega_interior)[0]] = 1.0
    with pytest.raises(ParamError):
        cd.solve_extension(emesh64, ident64, 0.5, f)


def test_neumann_trace_power_profile_both_estimators(grid64, ident64):
    for s in (0.25, 0.5, 0.75):
        vm = cd.build_vertical_mesh(s, 4.0, 32)
        em = cd.build_extension_mesh(grid64, vm)
        fld = synthetic_field(em, ident64, lambda y, s=s: y ** (2 * s) / (2 * s))
        tr = cd.neumann_trace(fld)
        assert np.max(np.abs(tr.values - 1.0)) < 1e-10
        assert np.max(np.abs(tr.finite_quotient - 1.0)) < 1e-10


def test_mixed_solve_neumann_rows_satisfied(grid64, ident64, emesh64):
    """The weighted trace of the mixed solve vanishes on the interior region."""
    fld = cd.solve_extension(emesh64, ident64, 0.5, w_bump(grid64))
    tr = cd.neumann_trace(fld)
    closure = grid64.omega_closure
    assert np.max(np.abs(tr.values[closure])) < 1e-9 * np.abs(tr.values).max()


def test_maximum_principle_surrogate(grid64, ident64, emesh64):
    f = w_bump(grid64)
    fld = cd.solve_extension(emesh64, ident64, 0.5, f, dirichlet_trace=True)
    assert fld.values.min() > -1e-10


def test_trace_matches_spectral_oracle(grid64, ident64, op64, power_half, emesh64):
    """The two independent routes to the fractional operator agree on W."""
    f = w_bump(grid64)
    u = cd.solve_fractional_dirichlet(power_half, f)
    oracle = power_half.apply(u)
    fld = cd.solve_extension(emesh64, ident64, 0.5, f)
    tr = cd.neumann_trace(fld)
    cs = cd.analytic_cs(0.5)
    widx = grid64.w_indices
    err = np.linalg.norm((-cs * tr.values - oracle)[widx]) / np.linalg.norm(
        oracle[widx]
    )
    assert err < 0.05


def test_weighted_energy_stable_under_refinement(ident64):
    """The weighted gradient energy converges from above under refinement."""
    energies = []
    for nodes, levels in ((65, 48), (129, 96), (257, 192)):
        grid = make_grid(nodes=nodes)
        a = cd.identity_coefficient(grid)
        vm = cd.build_vertical_mesh(0.5, 6.0, levels)
        em = cd.build_extension_mesh(grid, vm)
        fld = cd.solve_extension(em, a, 0.5, w_bump(grid))
        energies.append(float(fld.values @ (fld.system.stiffness @ fld.values)))
    rel = abs(energies[2] - energies[1]) / energies[2]
    rel_prev = abs(energies[1] - energies[0]) / energies[2]
    assert rel < rel_prev < 0.1


def test_analytic_cs_values():
    import math

    assert cd.analytic_cs(0.5) == pytest.approx(1.0, rel=1e-14)
    assert cd.analytic_cs(0.25) == pytest.approx(
        2.0 ** (-0.5) * math.gamma(0.25) / math.gamma(0.75), rel=1e-12
    )


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75])
def test_calibration_within_tolerance(s):
    cal = cd.calibrate_cs(1, s, nodes=64, levels=64)
    assert cal.rel_gap <= 0.05
    if s == 0.5:
        assert abs(cal.fitted - 1.0) <= 0.02


def test_calibration_tightens_under_refinement_and_height_doubling():
    base = cd.calibrate_cs(1, 0.25, nodes=64, levels=64, height=5.0)
    fine = cd.calibrate_cs(1, 0.25, nodes=127, levels=128, height=5.0)
    tall = cd.calibrate_cs(1, 0.25, nodes=64, levels=64, height=10.0)
    assert fine.rel_gap <= 0.01
    assert abs(tall.fitted - base.fitted) <= 0.01 * base.fitted


def test_calibration_error_on_broken_mesh():
    """A truncation height far below the decay scale breaks the fit."""
    with pytest.raises(CalibrationError):
        cd.calibrate_cs(1, 0.5, nodes=48, levels=16, height=0.05)


def test_kernel_preserves_constants(grid64):
    u = np.ones(grid64.num_nodes)
    # the quadrature of the analytic kernel reproduces the exact kernel mass
    # of the node cells, (1/pi)(arctan((b-x)/y) + arctan((x-a)/y)) at s=1/2
    # with the interval extended half a cell past the edge nodes
    y = 0.3
    out2 = extend_via_kernel(grid64, u, 0.5, y)
    x = grid64.points[:, 0]
    h = grid64.h[0]
    a, b = grid64.lo[0] - h / 2, grid64.hi[0] + h / 2
    exact = (np.arctan((b - x) / y) + np.arctan((x - a) / y)) / np.pi
    assert np.max(np.abs(out2 - exact)) < 1e-3


def test_kernel_point_mass_shape(grid64):
    u = np.zeros(grid64.num_nodes)
    j = grid64.num_nodes // 2
    u[j] = 3.0
    y = 0.7
    out = extend_via_kernel(grid64, u, 0.3, y)
    d2 = (grid64.points[:, 0] - grid64.points[j, 0]) ** 2
    expected = (3.0 * grid64.node_volume * poisson_kernel_constant(1, 0.3)
                * y**0.6 / (d2 + y**2) ** (0.5 + 0.3))
    assert np.allclose(out, expected, rtol=1e-12)


def test_kernel_param_error(grid64):
    with pytest.raises(ParamError):
        extend_via_kernel(grid64, np.ones(grid64.num_nodes), 0.5, 0.0)


def test_kernel_agrees_with_extension_solve():
    """Two independent realizations: kernel quadrature versus mixed solve in
    all-Dirichlet diagnostic mode, compared at mid heights away from the
    lateral frame (wide padding keeps the truncation influence small)."""
    grid = make_grid(nodes=229, padding=2.6)
    a = cd.identity_coefficient(grid)
    u0 = cd.mollifier_bump(grid.points, [1.05], 0.35)
    vm = cd.build_vertical_mesh(0.5, 12.0, 96)
    em = cd.build_extension_mesh(grid, vm)
    fld = cd.solve_extension(em, a, 0.5, u0, dirichlet_trace=True)
    inner = np.abs(grid.points[:, 0] - 1.05) < 0.8
    cols = fld.as_columns()
    for j in np.flatnonzero((vm.levels > 0.2) & (vm.levels < 0.8))[::3]:
        kernel_vals = extend_via_kernel(grid, u0, 0.5, vm.levels[j])
        num = np.linalg.norm((cols[:, j] - kernel_vals)[inner])
        den = np.linalg.norm(kernel_vals[inner])
        assert num / den < 0.03


def test_weighted_neumann_solve_power_datum(grid64, ident64):
    """A constant weighted Neumann datum under the Dirichlet top and frame:
    the variational trace of the solution gives the datum back on every
    active node; under a natural frame the solution is the dual power
    profile."""
    s = 0.6
    vm = cd.build_vertical_mesh(1 - s, 6.0, 48)
    em = cd.build_extension_mesh(grid64, vm)
    h = np.ones(grid64.num_nodes)
    fld = solve_weighted_neumann(em, ident64, h)
    tr = cd.neumann_trace(fld).values
    assert np.max(np.abs(tr[grid64.active] - 1.0)) < 1e-9
    # under natural lateral conditions the exact solution is the dual power
    # profile, checked through its cell fluxes
    fld = solve_weighted_neumann(em, ident64, h, top="dirichlet",
                                 lateral="natural")
    cols = fld.as_columns()
    flux = (cols[:, 1:] - cols[:, :-1]) / vm.cell_resistances()[None, :]
    assert np.max(np.abs(flux[:, 0] - 1.0)) < 1e-9


# every layout the library solves, plus the free trace under a Neumann top
# (singular vertical pencil): (dirichlet_trace, top, lateral)
LAYOUTS = {
    "mixed": (False, "dirichlet", "dirichlet"),
    "dirichlet": (True, "dirichlet", "dirichlet"),
    "dirichlet-open": (True, "neumann", "natural"),
    "neumann": (None, "dirichlet", "dirichlet"),
    "neumann-natural-lateral": (None, "dirichlet", "natural"),
    "neumann-open-top": (None, "neumann", "dirichlet"),
}


def spsolve_oracle(solver: ExtensionSolver, data: np.ndarray, neumann: bool):
    """Direct sparse solve of the assembled free block for the same datum."""
    emesh = solver.emesh
    S = solver.system.stiffness
    tr = emesh.trace_indices()
    u = np.zeros(emesh.num_nodes)
    if neumann:
        b = np.zeros(emesh.num_nodes)
        b[tr] = -emesh.grid.node_volume * data
    else:
        fixed_tr = solver.fixed[tr]
        u[tr[fixed_tr]] = data[fixed_tr]
        b = -(S @ u)
    free = solver.free
    u[free] = spla.spsolve(S[free][:, free].tocsc(), b[free])
    return u


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_tensor_solver_matches_sparse_oracle(layout, s, data):
    """The tensor solve equals a direct solve of the assembled free block on
    random small grids, bump coefficients, heights and data, at the default
    grading (whose weights span many orders of magnitude for small s)."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    nodes = data.draw(st.integers(12, 40) if dim == 1 else st.integers(10, 12),
                      label="nodes")
    grid = make_grid(dim=dim, nodes=nodes,
                     padding=data.draw(st.floats(0.2, 0.4), label="padding"))
    seed = data.draw(st.integers(0, 2**16), label="seed")
    rng = np.random.default_rng(seed)
    omega_pts = grid.points[grid.omega_closure]
    entries = [
        1.0 + rng.uniform(-0.5, 2.0) * cd.mollifier_bump(
            grid.points, rng.uniform(omega_pts.min(0), omega_pts.max(0)),
            rng.uniform(0.2, 0.6))
        for _ in range(dim)
    ]
    coeff = cd.diagonal_coefficient(grid, entries, identity_outside=True)
    height = cd.default_height(grid) * rng.uniform(0.5, 1.5)
    levels = data.draw(st.integers(48, 64), label="levels")
    vm = cd.build_vertical_mesh(s, height, levels)
    emesh = cd.build_extension_mesh(grid, vm)
    dirichlet_trace, top, lateral = LAYOUTS[layout]
    solver = ExtensionSolver(emesh, coeff, dirichlet_trace, top, lateral)
    f = rng.standard_normal(grid.num_nodes)
    if layout == "mixed":
        f[grid.omega_closure] = 0.0
    u = solver.solve(f).values
    ref = spsolve_oracle(solver, f, neumann=dirichlet_trace is None)
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))
    # the weighted trace multiplies the level-1 error by the first-cell
    # conductance, so it is checked on its own
    act = grid.active
    tr, tr_ref = (_weighted_trace(solver.system, v)[act] for v in (u, ref))
    assert np.max(np.abs(tr - tr_ref)) <= 1e-9 * np.max(np.abs(tr_ref))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@given(data=st.data())
@settings(max_examples=4, deadline=None)
def test_block_extension_solve_matches_column_solves(layout, data):
    """One block solve equals per-column solves, over more columns than one
    chunk, with a zero column that must stay exactly zero."""
    dim = data.draw(st.sampled_from([1, 2]), label="dim")
    grid = make_grid(dim=dim, nodes=data.draw(
        st.integers(12, 32) if dim == 1 else st.integers(10, 12), label="nodes"),
        padding=data.draw(st.floats(0.2, 0.4), label="padding"))
    s = data.draw(st.sampled_from([0.1, 0.25, 0.5, 0.9]), label="s")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    coeff = cd.diagonal_coefficient(
        grid, [1.0 + 0.5 * cd.mollifier_bump(grid.points, [0.5] * dim, 0.4)] * dim,
        identity_outside=True)
    vm = cd.build_vertical_mesh(s, cd.default_height(grid), data.draw(
        st.integers(16, 40), label="levels"))
    solver = ExtensionSolver(cd.build_extension_mesh(grid, vm), coeff,
                             *LAYOUTS[layout])
    k = data.draw(st.integers(_CHUNK + 1, 2 * _CHUNK + 3), label="columns")
    F = rng.standard_normal((grid.num_nodes, k))
    if layout == "mixed":
        F[grid.omega_closure] = 0.0
    zero = data.draw(st.integers(0, k - 1), label="zero column")
    F[:, zero] = 0.0
    U = solver.solve_block(F)
    cols = np.column_stack([solver.solve(F[:, j]).values for j in range(k)])
    assert U.shape == (solver.emesh.num_nodes, k)
    assert not np.any(U[:, zero])
    assert np.max(np.abs(U - cols)) <= 1e-12 * np.max(np.abs(cols))


class CountingLU:
    """Stands in for the solver's factorization and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def small_solver(layout, dim, s, nodes=None, levels=40):
    grid = make_grid(dim=dim, nodes=nodes or (32 if dim == 1 else 11), padding=0.3)
    coeff = cd.diagonal_coefficient(
        grid, [1.0 + 0.5 * cd.mollifier_bump(grid.points, [0.5] * dim, 0.4)] * dim,
        identity_outside=True)
    vm = cd.build_vertical_mesh(s, cd.default_height(grid), levels)
    return ExtensionSolver(cd.build_extension_mesh(grid, vm), coeff, *LAYOUTS[layout])


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_one_lu_solve_per_chunk(layout):
    """Every chunk of a block, and a single datum, costs one block LU solve."""
    solver = small_solver(layout, 2, 0.5)
    solver._lu = CountingLU(solver._lu)
    k = 2 * _CHUNK + 3
    F = np.random.default_rng(3).standard_normal((solver.emesh.grid.num_nodes, k))
    solver.solve_block(F)
    assert solver._lu.solves == 3
    solver.solve(F[:, 0])
    assert solver._lu.solves == 4


def lifted_rhs_oracle(solver, D):
    """Reference right-hand side: ``b - S lift`` gathered on T x L and
    taken to the vertical eigenbasis; also returns the magnitudes it
    subtracts, transformed the same way."""
    N = solver.emesh.grid.num_nodes
    k = D.shape[1]
    _, b = solver._load(D)
    x = np.zeros_like(b)
    x.reshape(N, -1, k)[solver._lifted, solver._L] = (
        D[solver._lifted][:, None] * solver._psi[:, None])
    Sx = solver.system.stiffness @ x
    T, L, phi = solver._T, solver._L, solver._phi
    r = (b - Sx).reshape(N, -1, k)[T][:, L]
    mag = (np.abs(b) + np.abs(Sx)).reshape(N, -1, k)[T][:, L]
    return (np.tensordot(phi, r, axes=(0, 1)),
            np.tensordot(np.abs(phi), mag, axes=(0, 1)))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
def test_separable_rhs_matches_gathered_transform(layout, dim, s):
    """The outer-product right-hand side equals the gathered and transformed
    ``b - S lift``.  That form subtracts the level-1 load from the lift's
    vertical flux, two terms of size g |d|, so its rounding is measured
    against the transformed magnitudes of the terms (relative to its own
    size it reads up to 2.6e-7 at s = 0.25)."""
    solver = small_solver(layout, dim, s)
    D = np.random.default_rng(11).standard_normal((solver.emesh.grid.num_nodes, 3))
    old, mag = lifted_rhs_oracle(solver, D)
    assert np.max(np.abs(solver._separable_rhs(D) - old)) <= 1e-12 * mag.max()


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
def test_trace_map_gives_the_oracle_free_trace(dim, s):
    """``Z @ d`` is the mixed solve's free trace, read from a direct solve of
    the assembled free block."""
    solver = small_solver("mixed", dim, s, levels=48)
    grid = solver.emesh.grid
    f = np.random.default_rng(5).standard_normal(grid.num_nodes)
    f[grid.omega_closure] = 0.0
    ref = spsolve_oracle(solver, f, neumann=False)
    B_nodes = solver.emesh.trace_indices()[solver._T[solver._B]]
    xB = solver._Z @ f[solver._data_nodes]
    assert solver._Z.shape == (len(solver._B), len(solver._data_nodes))
    assert np.max(np.abs(xB - ref[B_nodes])) <= 1e-10 * np.max(np.abs(ref[B_nodes]))


def coo_assemble_extension(emesh, coeff):
    """Reference triplet assembly of the extension stiffness."""
    from calderon.local_elliptic import _assemble

    grid, vm = emesh.grid, emesh.vertical
    J = vm.num_levels
    J1 = J + 1
    nu = vm.level_weights()
    cond = 1.0 / vm.cell_resistances()
    Ktan = _assemble(grid, coeff).tocoo()
    lev = np.arange(J1)
    rows_t = (Ktan.row[:, None] * J1 + lev[None, :]).ravel()
    cols_t = (Ktan.col[:, None] * J1 + lev[None, :]).ravel()
    vals_t = (Ktan.data[:, None] * nu[None, :]).ravel()
    lo = (np.arange(grid.num_nodes)[:, None] * J1 + np.arange(J)[None, :]).ravel()
    hi = lo + 1
    c = np.tile(grid.node_volume * cond, grid.num_nodes)
    rows = np.concatenate([rows_t, lo, hi, lo, hi])
    cols = np.concatenate([cols_t, lo, hi, hi, lo])
    vals = np.concatenate([vals_t, c, c, -c, -c])
    return sp.csr_matrix((vals, (rows, cols)), shape=(emesh.num_nodes,) * 2)


@pytest.mark.parametrize("dim, s", [(1, 0.1), (1, 0.9), (2, 0.5), (3, 0.25)])
def test_kron_assembly_matches_triplet_assembly(dim, s):
    grid = make_grid(dim=dim, nodes={1: 40, 2: 14, 3: 10}[dim], padding=0.3)
    coeff = cd.diagonal_coefficient(
        grid, [1.0 + 0.5 * cd.mollifier_bump(grid.points, [0.5] * dim, 0.4)] * dim,
        identity_outside=True)
    em = cd.build_extension_mesh(grid, cd.build_vertical_mesh(s, 4.0, 24))
    assert_same_sparse(assemble_extension(em, coeff).stiffness,
                       coo_assemble_extension(em, coeff), 1e-14)


def test_calibration_makes_one_fractional_and_one_block_solve(monkeypatch):
    from calderon import fractional_core

    calls = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(fractional_core, "solve_fractional_dirichlet", counting(
        "fractional", fractional_core.solve_fractional_dirichlet))
    monkeypatch.setattr(ExtensionSolver, "solve_block", counting(
        "extension", ExtensionSolver.solve_block))
    cal = cd.calibrate_cs(1, 0.5, nodes=48, levels=32, num_samples=5)
    assert sorted(calls) == ["extension", "fractional"]
    assert cal.rel_gap <= 0.05


def test_singular_free_trace_layout_fails_fast(grid64, ident64, emesh64):
    """A free trace under a Neumann top and natural lateral conditions has
    the constants in its kernel; the solver refuses it by name."""
    with pytest.raises(SolveError, match="top='neumann'.*lateral='natural'"):
        ExtensionSolver(emesh64, ident64, dirichlet_trace=None, top="neumann",
                        lateral="natural")
    with pytest.raises(SolveError):
        solve_weighted_neumann(emesh64, ident64, np.ones(grid64.num_nodes),
                               top="neumann", lateral="natural")


def test_zero_datum_gives_zero_field(grid64, ident64, emesh64):
    for dirichlet_trace in (False, True, None):
        solver = ExtensionSolver(emesh64, ident64, dirichlet_trace)
        assert not np.any(solver.solve(np.zeros(grid64.num_nodes)).values)


def test_decay_slopes_n1():
    grid = make_grid(nodes=64)
    u = cd.mollifier_bump(grid.points, [0.5], 0.3)
    rep = cd.decay_diagnostic(grid, u, 0.5, np.geomspace(2.0, 80.0, 10))
    assert abs(rep.sup_slope + 1.0) <= 0.1
    assert abs(rep.grad_slope + 2.0) <= 0.2


def test_decay_rescaling_linearity():
    grid = make_grid(nodes=48)
    u = cd.mollifier_bump(grid.points, [0.5], 0.3)
    h = np.geomspace(2.0, 80.0, 6)
    r1 = cd.decay_diagnostic(grid, u, 0.4, h)
    r2 = cd.decay_diagnostic(grid, 2 * u, 0.4, h)
    assert np.allclose(r2.sup_values, 2 * r1.sup_values, rtol=1e-12)
    assert np.allclose(r2.grad_values, 2 * r1.grad_values, rtol=1e-12)


def test_decay_fit_error_on_narrow_range():
    grid = make_grid(nodes=48)
    u = cd.mollifier_bump(grid.points, [0.5], 0.3)
    with pytest.raises(FitError):
        cd.decay_diagnostic(grid, u, 0.5, np.geomspace(2.0, 10.0, 6))
    with pytest.raises(FitError):
        cd.decay_diagnostic(grid, u, 0.5, np.geomspace(0.05, 10.0, 6))
