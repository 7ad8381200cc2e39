"""Field-free solves: a solve contracted to a few level functionals and a
few tangential rows equals the same functionals of the field path's field,
and on a held basis its residual bound is at least the field's assembled
residual on every column."""

import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import calderon as cd
from calderon.errors import ParamError
from calderon.fractional_core import _CHUNK

from conftest import make_grid, w_bump


def _tiny_3d_grid():
    spec = cd.GeometrySpec(dim=3, omega_box=((0.0, 1.0),) * 3,
                           w_box=((1.5, 2.1), (0.0, 1.0), (0.0, 1.0)),
                           nodes=(12, 6, 6), padding=0.3)
    return cd.build_tangential_grid(spec)


_GRIDS = {
    1: lambda: make_grid(dim=1, nodes=40),
    2: lambda: make_grid(dim=2, nodes=(18, 13)),  # unequal spacing per axis
    3: _tiny_3d_grid,
}

LEVELS = 24


def _solver(dim, bump, s, dirichlet_trace):
    grid = _GRIDS[dim]()
    a = (cd.diagonal_coefficient(grid, [1.0 + 0.5 * cd.mollifier_bump(
        grid.points, [0.5] * dim, 0.4)] * dim, identity_outside=True) if bump
        else cd.identity_coefficient(grid))
    vm = cd.build_vertical_mesh(s, cd.default_height(grid), LEVELS)
    return cd.ExtensionSolver(cd.build_extension_mesh(grid, vm), a, dirichlet_trace)


_held_solver = functools.lru_cache(maxsize=None)(_solver)


def _level_map(solver, columns=3):
    """The functionals the consumers read: the weighted level sum, the top
    free level and level 1, or the first ``columns`` of them; with none, a
    middle level alone.  The solver appends the level sum's functionals a
    map lacks."""
    vm = solver.emesh.vertical
    R = np.zeros((LEVELS + 1, 3))
    R[:, 0] = vm.level_weights()
    R[LEVELS - 1, 1] = 1.0
    R[1, 2] = 1.0
    if not columns:
        return np.eye(LEVELS + 1)[:, [LEVELS // 2]]
    return R[:, :columns]


def _data_and_rows(solver, rng):
    grid = solver.emesh.grid
    k = int(rng.integers(1, 2 * _CHUNK + 2))  # one to three chunks
    F = rng.standard_normal((grid.num_nodes, k))
    if solver._trace == "mixed":
        F[~grid.exterior] = 0.0
    rows = np.sort(rng.choice(grid.num_nodes, size=int(rng.integers(0, 12)),
                              replace=False))
    return F, rows


def _contracted(solver, F, R, rows):
    """The contracted call's outputs over every chunk, with its rho."""
    C, P, rho = [], [], []
    for _, (c, p), r in solver.solve_chunks(F, solver.contraction(R, rows)):
        C.append(c.copy())
        P.append(p.copy())
        rho.append(r.copy())
    return np.concatenate(C, axis=2), np.concatenate(P, axis=2), np.concatenate(rho)


def _field_path(solver, F, R, rows):
    """The same quantities read off the field path's fields."""
    U = solver.solve_block(F)
    u3 = U.reshape(solver.emesh.grid.num_nodes, LEVELS + 1, -1)
    rho = np.concatenate([r.copy() for _, _, r in solver.solve_chunks(F)])
    return np.einsum("nlk,lq->nqk", u3, R), u3[rows], rho, u3


def _assert_rel(a, b, tol, scale=None):
    assert a.shape == b.shape
    if scale is None:
        scale = np.max(np.abs(b), initial=0.0)
    assert np.max(np.abs(a - b), initial=0.0) <= tol * scale


@given(st.sampled_from([1, 2, 3]), st.booleans(), st.sampled_from([0.05, 0.95]),
       st.sampled_from([False, True, None]), st.sampled_from([3, 2, 0]),
       st.integers(0, 2**16))
@example(dim=2, bump=True, s=0.05, dirichlet_trace=False, columns=3, seed=0)
@example(dim=2, bump=True, s=0.05, dirichlet_trace=False, columns=3, seed=23)
@example(dim=3, bump=True, s=0.95, dirichlet_trace=False, columns=2, seed=1)
@example(dim=1, bump=False, s=0.95, dirichlet_trace=None, columns=0, seed=2)
@settings(max_examples=40, deadline=None)
def test_contracted_solve_equals_the_field_path(dim, bump, s, dirichlet_trace, columns, seed):
    """On a held basis (sine for a = Id, eigh for a bump; dims 1-3, s near 0
    and 1, every trace layout, level maps with and without the level sum's
    functionals) the contracted outputs (level sum, top free level, level
    1, and every level at a few rows) equal the field path's to 1e-12
    relative, and the residual bound is at least the assembled residual on
    every column.  Each functional is measured against the size of its
    inputs, ``||R_q||_1 max|u|``: at s near 0 the top free level has
    decayed to about 1e-6 of the trace values, and the two paths sum its
    modal expansion in different orders (seed 23: 5.6e-12 of the level's
    own largest value).  The row profiles are measured against theirs."""
    solver = _held_solver(dim, bump, s, dirichlet_trace)
    assert solver._block.route == ("eigh" if bump else "sine")
    rng = np.random.default_rng(seed)
    F, rows = _data_and_rows(solver, rng)
    R = _level_map(solver, columns)
    C, P, bound = _contracted(solver, F, R, rows)
    C_ref, P_ref, rho, u3 = _field_path(solver, F, R, rows)
    for q in range(R.shape[1]):
        _assert_rel(C[:, q], C_ref[:, q], 1e-12, np.abs(R[:, q]).sum() * np.max(np.abs(u3)))
    _assert_rel(P, P_ref, 1e-12)
    assert np.all(bound >= rho)


@pytest.mark.usefixtures("lu_route")
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("dirichlet_trace", [False, True, None])
def test_contracted_call_on_the_lu_route_is_the_field_path(dim, dirichlet_trace):
    """On the sparse LU route the contracted call forms the field, checks
    it as the field path does and contracts it: its outputs and residual
    norms are the field path's numbers, bit for bit."""
    solver = _solver(dim, True, 0.5, dirichlet_trace)
    assert solver._block.route == "lu"
    F, rows = _data_and_rows(solver, np.random.default_rng(dim))
    R = _level_map(solver)
    C, P, rho = _contracted(solver, F, R, rows)
    U = solver.solve_block(F)
    u3 = U.reshape(solver.emesh.grid.num_nodes, LEVELS + 1, -1)
    assert np.array_equal(C, np.matmul(R.T, u3))
    assert np.array_equal(P, u3[rows])
    assert np.array_equal(rho, _field_path(solver, F, R, rows)[2])


def test_level_map_shape_is_checked():
    solver = _held_solver(1, False, 0.5, False)
    with pytest.raises(ParamError, match="level map"):
        solver.contraction(np.ones((LEVELS, 2)))


def test_bridge_reads_the_contraction():
    """operator T and bridge_solution read the contracted level sum and top
    flux: equal to ``vertical_integral`` of the field to 1e-12, with no
    field formed (the field path's chunk solve is never called)."""
    grid = make_grid(dim=2, nodes=(18, 13))
    pipe = cd.BridgePipeline(grid, cd.identity_coefficient(grid), 0.5, levels=LEVELS)
    f = w_bump(grid)
    vi = cd.vertical_integral(pipe.extension(f))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cd.ExtensionSolver, "_solve_chunk", None)
        v = pipe.bridge_solution(f)
        pair = cd.operator_T(pipe, f)
    _assert_rel(v, vi.values, 1e-12)
    _assert_rel(pair.boundary_values, vi.values[grid.boundary_indices], 1e-12)
