"""Smoke coverage for the third tangential dimension.

The solvers are dimension generic; these checks pin the n = 3 geometry and
operators at a resolution where everything stays exact.  The nonlocal
invariants are property tested on the closed-form identity power, and the
extension-side ones (linearity of T, the Neumann rows of the mixed solve,
the calibration gap, the exactness and linearity of the duality transform)
on the identity extension, whose shifted solves are closed-form sine
solves; both near either end of s.  Variable-coefficient
3+1 dimensional solves factor a sparse LU whose cost grows steeply with
dimension and belong in experiment scripts, not the routine suite.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import calderon as cd
from calderon.extension import (
    ExtensionField,
    assemble_extension,
    solve_weighted_neumann,
)

from conftest import make_grid


def test_masks_and_weights():
    grid = make_grid(dim=3, nodes=14)
    total = (grid.omega_interior.astype(int) + grid.omega_boundary.astype(int)
             + grid.exterior.astype(int))
    assert np.all(total == 1)
    assert grid.w_mask.sum() > 0
    w = grid.boundary_weights()
    assert np.all(w > 0)
    # dual patches tile the region surface exactly
    a, b, c = (grid.axes[k][grid.omega_idx[k][1]] - grid.axes[k][grid.omega_idx[k][0]]
               for k in range(3))
    np.testing.assert_allclose(w.sum(), 2 * (a * b + a * c + b * c), rtol=1e-12)


def test_linear_solution_exact():
    grid = make_grid(dim=3, nodes=14)
    op = cd.assemble_local(grid, cd.identity_coefficient(grid))
    g = grid.points[:, 0].copy()
    v = cd.solve_local_dirichlet(op, g)
    cl = grid.omega_closure
    assert np.max(np.abs(v[cl] - g[cl])) < 1e-12
    assert np.max(np.abs(cd.local_dtn(op, np.ones(grid.num_nodes)))) < 1e-12


def test_extension_stencil_power_profile_exact():
    grid = make_grid(dim=3, nodes=14)
    a = cd.identity_coefficient(grid)
    s = 0.5
    vm = cd.build_vertical_mesh(s, 4.0, 8)
    em = cd.build_extension_mesh(grid, vm)
    cols = np.tile(vm.levels ** (2 * s) / (2 * s), (grid.num_nodes, 1))
    fld = ExtensionField(emesh=em, values=cols.ravel(),
                         system=assemble_extension(em, a))
    r = (fld.system.stiffness @ fld.values).reshape(grid.num_nodes, -1)[:, 1:-1]
    scale = np.abs(fld.system.stiffness.diagonal()).max() * np.abs(fld.values).max()
    assert np.max(np.abs(r)) < 1e-12 * scale
    tr = cd.neumann_trace(fld)
    assert np.max(np.abs(tr.values - 1.0)) < 1e-10


@functools.lru_cache(maxsize=None)
def _identity_power(s):
    grid = make_grid(dim=3, nodes=16)
    return cd.spectral_power(cd.assemble_local(grid, cd.identity_coefficient(grid)), s)


@functools.lru_cache(maxsize=None)
def _nonlocal_map(s):
    return cd.nonlocal_dtn_matrix(_identity_power(s))


def _w_data(grid, rng):
    f = np.zeros(grid.num_nodes)
    f[grid.w_indices] = rng.standard_normal(len(grid.w_indices))
    return f


@given(st.sampled_from([0.1, 0.9]), st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_nonlocal_map_symmetric_and_psd(s, seed):
    dtn = _nonlocal_map(s)
    M = dtn.matrix
    rng = np.random.default_rng(seed)
    f, g = rng.standard_normal((2, M.shape[0]))
    scale = np.max(np.abs(M)) * np.linalg.norm(f) * np.linalg.norm(g) * dtn.weight
    assert abs(dtn.pairing(M @ f, g) - dtn.pairing(f, M @ g)) <= 1e-12 * scale
    assert np.max(np.abs(M - M.T)) <= 1e-12 * np.max(np.abs(M))
    assert np.linalg.eigvalsh(0.5 * (M + M.T)).min() >= -1e-12 * np.max(np.abs(M))


@given(st.sampled_from([0.1, 0.9]), st.floats(-2.0, 2.0), st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_fractional_dirichlet_linear(s, alpha, seed):
    P = _identity_power(s)
    rng = np.random.default_rng(seed)
    f, g = _w_data(P.grid, rng), _w_data(P.grid, rng)
    u = cd.solve_fractional_dirichlet(P, alpha * f + g)
    split = (alpha * cd.solve_fractional_dirichlet(P, f)
             + cd.solve_fractional_dirichlet(P, g))
    assert np.max(np.abs(u - split)) <= 1e-12 * max(1.0, np.max(np.abs(split)))


@given(st.sampled_from([0.1, 0.9]), st.sampled_from([0.05, 0.1]), st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_power_semigroup(s, t, seed):
    """P_s(P_t u) = P_{s+t} u on active-supported data."""
    Ps, Pt, Pst = (_identity_power(r) for r in (s, t, round(s + t, 12)))
    grid = Ps.grid
    u = np.random.default_rng(seed).standard_normal(grid.num_nodes)
    u[~grid.active] = 0.0
    ref = Pst.apply(u)
    assert np.max(np.abs(Ps.apply(Pt.apply(u)) - ref)) <= 1e-12 * np.max(np.abs(ref))


@functools.lru_cache(maxsize=None)
def _identity_pipeline(s):
    grid = make_grid(dim=3, nodes=16)
    return cd.BridgePipeline(grid, cd.identity_coefficient(grid), s, levels=48)


@given(st.sampled_from([0.1, 0.9]), st.floats(-2.0, 2.0), st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_operator_t_linear(s, alpha, seed):
    pipe = _identity_pipeline(s)
    rng = np.random.default_rng(seed)
    f, g = _w_data(pipe.grid, rng), _w_data(pipe.grid, rng)
    t_f, t_g, t_fg = (cd.operator_T(pipe, d) for d in (f, g, alpha * f + g))
    scale = np.abs(t_fg.boundary_values).max() + np.abs(t_fg.boundary_flux).max()
    for part in ("boundary_values", "boundary_flux"):
        split = alpha * getattr(t_f, part) + getattr(t_g, part)
        assert np.max(np.abs(getattr(t_fg, part) - split)) <= 1e-10 * scale


@given(st.sampled_from([0.1, 0.9]), st.integers(0, 2**16))
@settings(max_examples=10, deadline=None)
def test_mixed_solve_neumann_rows_satisfied(s, seed):
    """The weighted trace of the mixed solve vanishes on the closed interior
    region."""
    pipe = _identity_pipeline(s)
    f = _w_data(pipe.grid, np.random.default_rng(seed))
    tr = cd.neumann_trace(pipe.extension(f)).values
    assert np.max(np.abs(tr[pipe.grid.omega_closure])) <= 1e-9 * np.abs(tr).max()


@pytest.mark.parametrize("s", [0.1, 0.9])
def test_calibration_within_tolerance(s):
    assert cd.calibrate_cs(3, s, nodes=16, levels=48).rel_gap <= 0.05


def _dual_mesh(s):
    """The identity grid at nodes = 16 and a J = 48 mesh graded for the dual
    order 1 - s (weight exponent 2s - 1)."""
    grid = make_grid(dim=3, nodes=16)
    vm = cd.build_vertical_mesh(1 - s, cd.default_height(grid), 48)
    return grid, cd.build_extension_mesh(grid, vm)


@pytest.mark.parametrize("s", [0.1, 0.9])
def test_duality_power_solution_exact(s):
    """The dual power solution t**(2-2s)/(2-2s) maps to the constant 1."""
    grid, em = _dual_mesh(s)
    a = cd.identity_coefficient(grid)
    cols = np.tile(em.vertical.levels ** (2 - 2 * s) / (2 - 2 * s),
                   (grid.num_nodes, 1))
    u1 = ExtensionField(emesh=em, values=cols.ravel(),
                        system=assemble_extension(em, a))
    u2, rep = cd.duality_transform(u1, a)
    assert np.max(np.abs(u2.values - 1.0)) <= 1e-12
    assert rep.bulk_residual <= 1e-10
    assert np.max(np.abs(rep.trace - 1.0)) <= 1e-12


@pytest.mark.parametrize("s", [0.1, 0.9])
def test_duality_linearity(s):
    """The weighted Neumann solve followed by the duality transform is
    linear in the datum."""
    grid, em = _dual_mesh(s)
    a = cd.identity_coefficient(grid)
    h1, h2 = np.random.default_rng(7).standard_normal((2, grid.num_nodes))
    alpha = -0.7
    v1, v2, v12 = (cd.duality_transform(solve_weighted_neumann(em, a, h), a)[0].values
                   for h in (h1, h2, alpha * h1 + h2))
    assert np.max(np.abs(v12 - (alpha * v1 + v2))) <= 1e-12 * np.max(np.abs(v12))
