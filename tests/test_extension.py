import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.linalg import solve_banded

import calderon as cd
from calderon import extension, fractional_core
from calderon.errors import (
    CalibrationError,
    FitError,
    MeshMismatch,
    ParamError,
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

from conftest import assert_same_sparse, kron_stiffness, make_grid, w_bump


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


@pytest.mark.parametrize("value", ["mixed", 2, 1, 0])
def test_dirichlet_trace_accepts_only_true_false_none(ident64, emesh64, value):
    """Any other value, even one equal to True or False, raises ParamError
    naming it."""
    with pytest.raises(ParamError, match=repr(value)):
        ExtensionSolver(emesh64, ident64, value)


def test_neumann_trace_power_profile(grid64, ident64):
    for s in (0.25, 0.5, 0.75):
        vm = cd.build_vertical_mesh(s, 4.0, 32)
        em = cd.build_extension_mesh(grid64, vm)
        fld = synthetic_field(em, ident64, lambda y, s=s: y ** (2 * s) / (2 * s))
        tr = cd.neumann_trace(fld)
        assert np.max(np.abs(tr.values - 1.0)) < 1e-10


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


def test_kernel_point_shapes():
    grid1 = make_grid(nodes=48)
    u1 = cd.mollifier_bump(grid1.points, [0.5], 0.3)
    x = np.array([0.2, 0.5, 1.7])
    # a flat array on a 1D grid is k points, not one k-coordinate point
    flat = extend_via_kernel(grid1, u1, 0.5, 0.4, points=x)
    assert flat.shape == (3,)
    assert np.array_equal(flat, extend_via_kernel(grid1, u1, 0.5, 0.4, points=x[:, None]))
    for bad in (np.zeros((3, 2)), np.zeros((2, 3, 1))):
        with pytest.raises(ParamError, match="points"):
            extend_via_kernel(grid1, u1, 0.5, 0.4, points=bad)
    grid2 = make_grid(dim=2, nodes=14, padding=0.3)
    u2 = cd.mollifier_bump(grid2.points, [0.5, 0.5], 0.3)
    assert extend_via_kernel(grid2, u2, 0.5, 0.4, points=np.zeros((4, 2))).shape == (4,)
    for bad in (np.zeros((4, 1)), np.zeros(2), np.zeros((4, 3))):
        with pytest.raises(ParamError, match="points"):
            extend_via_kernel(grid2, u2, 0.5, 0.4, points=bad)


def broadcast_kernel_values(grid, u, s, y, pts):
    """Reference kernel extension through the (points, sources, dim)
    difference array."""
    n = grid.dim
    src = np.flatnonzero(u)
    zs = grid.points[src]
    d2 = np.sum((pts[:, None, :] - zs[None, :, :]) ** 2, axis=2)
    ker = poisson_kernel_constant(n, s) * y ** (2 * s) / (d2 + y**2) ** (n / 2 + s)
    return (ker @ u[src]) * grid.node_volume


def broadcast_gradient_sup(grid, u, s, y, pts):
    n = grid.dim
    src = np.flatnonzero(u)
    zs = grid.points[src]
    C = poisson_kernel_constant(n, s)
    diff = pts[:, None, :] - zs[None, :, :]
    d2 = np.sum(diff**2, axis=2)
    base = (d2 + y**2) ** (n / 2 + s + 1)
    gk = -(n + 2 * s) * C * y ** (2 * s) * diff / base[:, :, None]
    grads = np.tensordot(gk, u[src], axes=([1], [0])) * grid.node_volume
    return float(np.max(np.linalg.norm(grads, axis=1)))


@pytest.mark.parametrize("dim, nodes, l2_points",
                         [(1, 48, 201), (2, 24, 121), (3, 10, 9)])
def test_decay_diagnostic_matches_broadcast_formula_bitwise(dim, nodes, l2_points):
    from calderon.extension import _fit_slope

    grid = make_grid(dim=dim, nodes=nodes, padding=0.3 if dim == 3 else 0.9)
    u = cd.mollifier_bump(grid.points, grid.points[grid.omega_closure].mean(axis=0), 0.3)
    s = 0.4
    heights = np.geomspace(2.0, 80.0, 6)
    rep = cd.decay_diagnostic(grid, u, s, heights, l2_points=l2_points)
    src = np.flatnonzero(u)
    centroid = grid.points[src].mean(axis=0)
    cloud = np.stack([m.ravel() for m in np.meshgrid(
        *[np.linspace(-2.0, 2.0, 9)] * dim, indexing="ij")], axis=1)
    axes = [np.linspace(-24.0, 24.0, l2_points)] * dim
    wpts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    dw = np.prod([ax[1] - ax[0] for ax in axes])
    sup, grad, l2 = [], [], []
    for y in heights:
        pts = centroid + y * cloud
        sup.append(float(np.max(np.abs(broadcast_kernel_values(grid, u, s, y, pts)))))
        grad.append(broadcast_gradient_sup(grid, u, s, y, pts))
        scaled = broadcast_kernel_values(grid, u, s, y, centroid + y * wpts)
        l2.append(float(np.sqrt(y**dim * np.sum(scaled**2) * dw)))
    assert np.array_equal(rep.sup_values, sup)
    assert np.array_equal(rep.grad_values, grad)
    assert np.array_equal(rep.l2_values, l2)
    assert rep.sup_slope == _fit_slope(heights, np.array(sup))
    assert rep.grad_slope == _fit_slope(heights, np.array(grad))
    assert rep.l2_slope == _fit_slope(heights, np.array(l2))


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
    active node."""
    s = 0.6
    vm = cd.build_vertical_mesh(1 - s, 6.0, 48)
    em = cd.build_extension_mesh(grid64, vm)
    h = np.ones(grid64.num_nodes)
    fld = solve_weighted_neumann(em, ident64, h)
    tr = cd.neumann_trace(fld).values
    assert np.max(np.abs(tr[grid64.active] - 1.0)) < 1e-9


# every trace layout the library solves: (dirichlet_trace, height scale);
# "neumann" (a free trace) keeps the pencil that starts at level 0 under
# test.  The "-open" layouts put the Dirichlet top four times higher, the
# stand-in for an untruncated extension: there the free-trace pencil has
# the smallest eigenvalues that the unshifted tridiagonal solve meets
LAYOUTS = {
    "mixed": (False, 1.0),
    "dirichlet": (True, 1.0),
    "dirichlet-open": (True, 4.0),
    "neumann": (None, 1.0),
    "neumann-open-top": (None, 4.0),
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
    dirichlet_trace, scale = LAYOUTS[layout]
    height = cd.default_height(grid) * rng.uniform(0.5, 1.5) * scale
    levels = data.draw(st.integers(48, 64), label="levels")
    vm = cd.build_vertical_mesh(s, height, levels)
    emesh = cd.build_extension_mesh(grid, vm)
    solver = ExtensionSolver(emesh, coeff, dirichlet_trace)
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
    dirichlet_trace, scale = LAYOUTS[layout]
    vm = cd.build_vertical_mesh(s, cd.default_height(grid) * scale, data.draw(
        st.integers(16, 40), label="levels"))
    solver = ExtensionSolver(cd.build_extension_mesh(grid, vm), coeff,
                             dirichlet_trace)
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
    dirichlet_trace, scale = LAYOUTS[layout]
    vm = cd.build_vertical_mesh(s, cd.default_height(grid) * scale, levels)
    return ExtensionSolver(cd.build_extension_mesh(grid, vm), coeff, dirichlet_trace)


@pytest.mark.usefixtures("lu_route")
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_one_lu_solve_per_chunk(layout):
    """Every chunk of a block, and a single datum, costs one block LU solve."""
    solver = small_solver(layout, 2, 0.5)
    block = solver._block
    block._lu = CountingLU(block._lu)
    k = 2 * _CHUNK + 3
    F = np.random.default_rng(3).standard_normal((solver.emesh.grid.num_nodes, k))
    solver.solve_block(F)
    assert block._lu.solves == 3
    solver.solve(F[:, 0])
    assert block._lu.solves == 4


def lifted_rhs_oracle(solver, D):
    """Reference right-hand side: ``b - S lift`` gathered on T x L, levels
    first, and the magnitudes it subtracts."""
    N = solver.emesh.grid.num_nodes
    k = D.shape[1]
    tr = solver.emesh.trace_indices()
    b = np.zeros((solver.emesh.num_nodes, k))
    if solver._trace == "free":
        b[tr] = -solver.emesh.grid.node_volume * D
    else:
        u = np.zeros_like(b)
        u[tr[solver._data_nodes]] = D[solver._data_nodes]
        b = -(solver.system.stiffness @ u)
    b[solver._fixed_rows] = 0.0
    x = np.zeros_like(b)
    x.reshape(N, -1, k)[solver._lifted, solver._L] = (
        D[solver._lifted][:, None] * solver._psi[:, None])
    Sx = solver.system.stiffness @ x
    T, L = solver._T, solver._L
    r = (b - Sx).reshape(N, -1, k)[T][:, L]
    mag = (np.abs(b) + np.abs(Sx)).reshape(N, -1, k)[T][:, L]
    return r.transpose(1, 0, 2), mag.transpose(1, 0, 2)


@pytest.mark.usefixtures("lu_route")
@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
def test_separable_rhs_matches_gathered_transform(layout, dim, s, monkeypatch):
    """The outer-product right-hand side ``v (x) a`` the solver hands its
    tensor block equals the gathered ``b - S lift``, on the held-basis route
    (1D) and the LU route (2D, forced), whose ``separable_rhs`` is that product
    taken to the vertical eigenbasis.  The gathered form subtracts the
    level-1 load from the lift's vertical flux, two terms of size g |d|, so
    its rounding is measured against the magnitudes of the terms (relative
    to its own size it reads up to 2.6e-7 at s = 0.25)."""
    vectors = []
    tensor_block = fractional_core.tensor_block

    def capturing(*args):
        vectors.append(args[7])
        return tensor_block(*args)

    monkeypatch.setattr(extension, "tensor_block", capturing)
    solver = small_solver(layout, dim, s)
    block = solver._block
    assert block.route == ("eigh" if dim == 1 else "lu")
    D = np.random.default_rng(11).standard_normal((solver.emesh.grid.num_nodes, 3))
    old, mag = lifted_rhs_oracle(solver, D)
    a = solver._rhs_tan @ D[solver._rhs_nodes]
    rhs = np.multiply.outer(vectors[0], a)
    assert np.max(np.abs(rhs - old)) <= 1e-12 * mag.max()
    if block.route == "lu":
        ref = np.tensordot(block._phi, rhs, axes=(0, 0))
        scale = np.tensordot(np.abs(block._phi), np.abs(rhs), axes=(0, 0)).max()
        assert np.max(np.abs(block.separable_rhs(a) - ref)) <= 1e-12 * scale


def vertical_profile(vm, c=0.0):
    """The solution w of ``(diag(c) + K_vert) w = 0`` on levels 1..J-1 with
    w_0 = 1 and w_J = 0 (K_vert the two-point operator of conductances
    1 / cell resistance), by a banded solve; returns levels 1..J-1."""
    cond = 1.0 / vm.cell_resistances()
    n = len(cond) - 1
    ab = np.zeros((3, n))
    ab[0, 1:] = ab[2, :-1] = -cond[1:n]
    ab[1] = c + cond[:-1] + cond[1:]
    rhs = np.zeros(n)
    rhs[0] = cond[0]
    return solve_banded((1, 1), ab, rhs)


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
def test_lift_is_the_vertical_profile(s):
    """A constrained trace column is lifted by the solution of the vertical
    two-point operator alone, 1 at the trace and 0 at the top, on levels
    1..J-1."""
    solver = small_solver("dirichlet", 1, s, levels=48)
    w = vertical_profile(solver.emesh.vertical)
    assert solver._psi.shape == w.shape
    assert np.max(np.abs(solver._psi - w)) <= 1e-13


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
def test_eigenvector_datum_gives_the_separable_solution(dim, s):
    """All-Dirichlet trace, a = Id, datum an eigenvector v of K_T with
    eigenvalue lam: the exact discrete field is ``v (x) w``, where
    ``(lam nu / m + K_vert) w = 0`` on levels 1..J-1 with w_0 = 1, w_J = 0."""
    from calderon.local_elliptic import _assemble

    grid = make_grid(dim=dim, nodes=32 if dim == 1 else 11, padding=0.3)
    coeff = cd.identity_coefficient(grid)
    vm = cd.build_vertical_mesh(s, cd.default_height(grid), 48)
    solver = ExtensionSolver(cd.build_extension_mesh(grid, vm), coeff, True)
    act = np.flatnonzero(grid.active)
    lams, vecs = np.linalg.eigh(_assemble(grid, coeff)[act][:, act].toarray())
    k = len(act) // 3
    lam, v = lams[k], np.zeros(grid.num_nodes)
    v[act] = vecs[:, k]
    m, nu = grid.node_volume, vm.level_weights()
    w = np.concatenate([[1.0], vertical_profile(vm, lam * nu[1:-1] / m), [0.0]])
    exact = np.outer(v, w).ravel()
    fld = solver.solve(v)
    assert np.max(np.abs(fld.values - exact)) <= 1e-12 * np.max(np.abs(exact))
    # weighted trace of v (x) w on the active nodes (frame rows also carry
    # the tangential coupling): -(lam nu_0 / m + (w_0 - w_1) / r_0) v
    r0 = vm.cell_resistances()[0]
    tr_exact = -(lam * nu[0] / m + (w[0] - w[1]) / r0) * v[act]
    tr = cd.neumann_trace(fld).values[act]
    assert np.max(np.abs(tr - tr_exact)) <= 1e-10 * np.max(np.abs(tr_exact))


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


@pytest.mark.parametrize("s", [0.1, 0.9])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("coefficient", ["identity", "bump"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_tensor_stiffness_matches_kron_formula_bitwise(dim, coefficient, masked, s):
    """The directly filled CSR arrays equal the kron formula's to the bit,
    also for a masked K_tan (faces between exterior nodes only), whose empty
    interior rows get a diagonal slot K has no entry for."""
    from calderon.extension import _tensor_stiffness
    from calderon.local_elliptic import _assemble

    grid = make_grid(dim=dim, nodes={1: 40, 2: 14, 3: 10}[dim], padding=0.3)
    if coefficient == "identity":
        coeff = cd.identity_coefficient(grid)
    else:
        coeff = cd.diagonal_coefficient(
            grid, [1.0 + 0.5 * cd.mollifier_bump(grid.points, [0.5] * dim, 0.4)] * dim,
            identity_outside=True)
    vm = cd.build_vertical_mesh(s, 4.0, 24 if dim < 3 else 12)
    ext = grid.exterior
    face_filter = (lambda k, i, j: (ext[i] & ext[j]).astype(float)) if masked else None
    K = _assemble(grid, coeff, face_filter)
    if masked:
        assert np.any(np.diff(K.indptr) == 0)
    S = _tensor_stiffness(K, vm, grid.node_volume)
    R = kron_stiffness(K, vm, grid.node_volume)
    assert S.shape == R.shape
    assert np.array_equal(S.indptr, R.indptr)
    assert np.array_equal(S.indices, R.indices)
    assert np.array_equal(S.data, R.data)


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


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_identity_route_matches_sparse_oracle(layout, s, data):
    """For a = Id the shifted solves and the trace map come from the sine
    basis; the result equals a direct solve of the assembled free block on
    random small grids in one to three dimensions."""
    dim = data.draw(st.sampled_from([1, 2, 3]), label="dim")
    # a 3D grid keeps the direct solve small with few nodes across W
    nodes = data.draw({1: st.integers(12, 40), 2: st.integers(10, 14),
                       3: st.tuples(st.integers(10, 11), st.integers(6, 7),
                                    st.integers(6, 7))}[dim], label="nodes")
    grid = make_grid(dim=dim, nodes=nodes,
                     padding=data.draw(st.floats(0.2, 0.4), label="padding"))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    dirichlet_trace, scale = LAYOUTS[layout]
    vm = cd.build_vertical_mesh(
        s, cd.default_height(grid) * rng.uniform(0.5, 1.5) * scale,
        data.draw(st.integers(48, 64), label="levels"))
    solver = ExtensionSolver(cd.build_extension_mesh(grid, vm),
                             cd.identity_coefficient(grid), dirichlet_trace)
    f = rng.standard_normal(grid.num_nodes)
    if layout == "mixed":
        f[grid.omega_closure] = 0.0
    u = solver.solve(f).values
    ref = spsolve_oracle(solver, f, neumann=dirichlet_trace is None)
    assert np.max(np.abs(u - ref)) <= 1e-9 * np.max(np.abs(ref))
    act = grid.active
    tr, tr_ref = (_weighted_trace(solver.system, v)[act] for v in (u, ref))
    assert np.max(np.abs(tr - tr_ref)) <= 1e-9 * np.max(np.abs(tr_ref))


@pytest.mark.usefixtures("lu_route")
@pytest.mark.parametrize("dim, nodes", [(1, 48), (2, 14), (3, (10, 6, 6))])
@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.9])
def test_near_identity_lu_route_agrees_with_the_sine_route(dim, nodes, s):
    """A coefficient 1 + 1e-13 on the interior region is not the identity
    (``is_identity`` is absolute to 1e-14), so it takes the sparse LU in 2D
    and 3D (forced at these sizes) and the "eigh" basis in 1D; its trace map
    and block solve match the identity's sine route."""
    grid = make_grid(dim=dim, nodes=nodes, padding=0.3)
    diag = np.ones((grid.num_nodes, dim))
    diag[grid.omega_closure] += 1e-13
    near = cd.Coefficient(grid=grid, diag=diag, identity_outside=True)
    assert not near.is_identity()
    em = cd.build_extension_mesh(
        grid, cd.build_vertical_mesh(s, cd.default_height(grid), 48))
    sine = ExtensionSolver(em, cd.identity_coefficient(grid))
    lu = ExtensionSolver(em, near)
    assert np.max(np.abs(sine._Z - lu._Z)) <= 1e-10 * np.max(np.abs(lu._Z))
    F = np.zeros((grid.num_nodes, _CHUNK + 2))
    F[grid.w_indices] = np.random.default_rng(2).standard_normal(
        (len(grid.w_indices), F.shape[1]))
    U, ref = sine.solve_block(F), lu.solve_block(F)
    assert np.max(np.abs(U - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.usefixtures("lu_route")
def test_identity_solver_makes_no_sparse_lu(monkeypatch):
    """An identity build and its solves call no ``splu`` and no LU solve;
    a bump coefficient on the LU route still factors once."""
    factored = []
    splu = spla.splu

    def counting_splu(*args, **kwargs):
        factored.append(CountingLU(splu(*args, **kwargs)))
        return factored[-1]

    monkeypatch.setattr(spla, "splu", counting_splu)
    grid = make_grid(dim=2, nodes=11, padding=0.3)
    F = np.random.default_rng(4).standard_normal((grid.num_nodes, 3))
    F[grid.omega_closure] = 0.0
    for dirichlet_trace, scale in LAYOUTS.values():
        vm = cd.build_vertical_mesh(0.5, cd.default_height(grid) * scale, 40)
        solver = ExtensionSolver(cd.build_extension_mesh(grid, vm),
                                 cd.identity_coefficient(grid), dirichlet_trace)
        solver.solve_block(F)
        solver.solve(F[:, 0])
    assert factored == []
    small_solver("mixed", 2, 0.5).solve_block(F)
    assert len(factored) == 1 and factored[0].solves > 0


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_identity_solver_makes_no_pencil(dim, monkeypatch, lu_route):
    """An identity build and its solves in every layout make no vertical
    pencil (``_vertical_pencil``, LAPACK ``dpteqr``): the sine route keeps
    per-mode vertical profiles instead.  So does a 1D bump on its "eigh"
    basis, whose build and solves also make no ``splu`` and whose one
    ``dpttrs`` solve is the profiles' (the trace sums need none).  A bump
    coefficient in 2D and 3D on the LU route makes one pencil per build, and
    none per solve; below ``_MODAL_NODE_CAP`` it holds a dense "eigh" basis
    and makes neither a pencil nor an ``splu``."""
    pencils, factored, tridiagonal_solves = [], [], []
    pencil, splu, dpttrs = (fractional_core._vertical_pencil, spla.splu,
                            scipy.linalg.lapack.dpttrs)

    def counting(calls, fn):
        return lambda *args, **kwargs: calls.append(args) or fn(*args, **kwargs)

    monkeypatch.setattr(fractional_core, "_vertical_pencil", counting(pencils, pencil))
    monkeypatch.setattr(spla, "splu", counting(factored, splu))
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", counting(tridiagonal_solves, dpttrs))
    # small_solver's grid in 1D and 2D, and a small 3D box
    nodes = {1: 32, 2: 11, 3: (10, 6, 6)}[dim]
    grid = make_grid(dim=dim, nodes=nodes, padding=0.3)
    F = np.random.default_rng(4).standard_normal((grid.num_nodes, _CHUNK + 2))
    F[grid.omega_closure] = 0.0
    for dirichlet_trace, scale in LAYOUTS.values():
        vm = cd.build_vertical_mesh(0.5, cd.default_height(grid) * scale, 40)
        solver = ExtensionSolver(cd.build_extension_mesh(grid, vm),
                                 cd.identity_coefficient(grid), dirichlet_trace)
        assert solver._block.route == "sine"
        solver.solve_block(F)
        solver.solve(F[:, 0])
    assert pencils == []
    for layout in LAYOUTS:
        tridiagonal_solves.clear()
        solver = small_solver(layout, dim, 0.5, nodes=nodes)
        assert len(pencils) == (dim > 1)
        if dim == 1:
            assert solver._block.route == "eigh" and len(tridiagonal_solves) == 1
        solver.solve_block(F)
        solver.solve(F[:, 0])
        assert len(pencils) == (dim > 1)
        assert len(tridiagonal_solves) == (dim == 1)
        pencils.clear()
    assert (factored == []) == (dim == 1)
    monkeypatch.setattr(fractional_core, "_MODAL_NODE_CAP", lu_route)
    factored.clear()
    for layout in LAYOUTS:
        solver = small_solver(layout, dim, 0.5, nodes=nodes)
        assert solver._block.route == "eigh"
        solver.solve_block(F)
        solver.solve(F[:, 0])
    assert pencils == [] and factored == []


def _assert_close(x, y, tol=1e-10):
    assert x.shape == y.shape
    if y.size:
        assert np.max(np.abs(x - y)) <= tol * np.max(np.abs(y))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_dense_modal_route_agrees_with_the_lu_route(layout, dim, s, monkeypatch):
    """A 2D and a 3D bump below ``_MODAL_NODE_CAP`` hold a dense "eigh"
    basis; with the LU route forced on the same coefficient the tensor
    block's solve, its trace sums G and H, the trace map Z and the
    assembled fields agree with it to 1e-10 relative, in every layout."""
    nodes = {2: 11, 3: (10, 6, 6)}[dim]
    modal = small_solver(layout, dim, s, nodes=nodes)
    monkeypatch.setattr(fractional_core, "_MODAL_NODE_CAP", 0)
    lu = ExtensionSolver(modal.emesh, modal.system.coeff, LAYOUTS[layout][0])
    assert (modal._block.route, lu._block.route) == ("eigh", "lu")
    rng = np.random.default_rng(6)
    k = 3
    nL = modal.emesh.vertical.num_levels - modal._L.start
    a = rng.standard_normal((len(modal._T), k))
    xB = rng.standard_normal((len(modal._B), k)) if modal._B.size else None
    out = np.empty((2, nL, len(modal._T), k))
    modal._block.solve(a, xB, out[0])
    lu._block.solve(a, xB, out[1])
    _assert_close(out[0], out[1])
    assert bool(modal._B.size) == (layout == "mixed")
    if modal._B.size:
        for x, y in zip(modal._block.trace_sums(), lu._block.trace_sums()):
            _assert_close(x, y)
        _assert_close(modal._Z, lu._Z)
    grid = modal.emesh.grid
    F = rng.standard_normal((grid.num_nodes, _CHUNK + 2))
    F[grid.omega_closure] = 0.0
    _assert_close(modal.solve_block(F), lu.solve_block(F))


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_data_loads_are_the_stiffness_columns(layout, dim):
    """The data columns read off the tangential stiffness hold, to the bit,
    the free rows of the assembled stiffness's columns at the constrained
    trace nodes (in another row order), and their free-trace rows are the
    trace map's Q."""
    solver = small_solver(layout, dim, 0.5, nodes=(10, 6, 6) if dim == 3 else None,
                          levels=12)
    tr = solver.emesh.trace_indices()
    cols = solver.system.stiffness[:, tr[solver._data_nodes]]
    touched = np.flatnonzero(np.diff(cols.indptr))
    ref = cols[touched[solver.free[touched]]].toarray()
    got = solver._data_load.toarray()
    assert got.shape == ref.shape
    assert sorted(map(tuple, got)) == sorted(map(tuple, ref))
    assert np.array_equal(solver._trace_cols.toarray(),
                          cols[tr[solver._free_trace]].toarray())
    if solver._B.size:
        assert np.array_equal(solver._T[solver._B], solver._free_trace)
