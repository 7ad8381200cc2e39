import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

import calderon as cd
from calderon import linsolve
from calderon.errors import EigError, ParamError, SolveError
from calderon.fractional_core import SpectralPower, matrix_power

from conftest import make_grid, w_bump


def test_eigenpair_maps_to_power(power_half, op64):
    lam = power_half.eigvals[3]
    e = power_half.eigvecs[:, 3]
    u = np.zeros(op64.grid.num_nodes)
    u[power_half.active] = e
    out = power_half.apply(u)
    assert np.allclose(out[power_half.active], lam**0.5 * e, atol=1e-10)


def test_power_one_reproduces_operator(op64):
    P1 = cd.spectral_power(op64, 1.0)
    grid = op64.grid
    rng = np.random.default_rng(0)
    u = rng.standard_normal(grid.num_nodes)
    u[~grid.active] = 0.0
    direct = (op64.stiffness @ u) / op64.node_volume
    assert np.allclose(P1.apply(u)[grid.active], direct[grid.active],
                       rtol=1e-10, atol=1e-10)


def test_semigroup_half_powers(op64):
    """Applying the half power twice equals the operator once."""
    grid = op64.grid
    Ph = cd.spectral_power(op64, 0.5)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(grid.num_nodes)
    u[~grid.active] = 0.0
    twice = Ph.apply(Ph.apply(u))
    once = (op64.stiffness @ u) / op64.node_volume
    num = np.linalg.norm((twice - once)[grid.active])
    assert num / np.linalg.norm(once[grid.active]) < 1e-10


def test_fractional_dirichlet_zero_data(power_half):
    u = cd.solve_fractional_dirichlet(power_half, np.zeros(power_half.grid.num_nodes))
    assert np.max(np.abs(u)) == 0.0


def test_fractional_dirichlet_linearity(power_half):
    grid = power_half.grid
    f = w_bump(grid)
    g = np.zeros(grid.num_nodes)
    g[grid.w_indices] = np.linspace(-1, 1, len(grid.w_indices))
    u_sum = cd.solve_fractional_dirichlet(power_half, f + g)
    u_split = (cd.solve_fractional_dirichlet(power_half, f)
               + cd.solve_fractional_dirichlet(power_half, g))
    assert np.allclose(u_sum, u_split, atol=1e-10 * max(1, np.abs(u_sum).max()))


def test_fractional_dirichlet_support_check(power_half):
    f = np.zeros(power_half.grid.num_nodes)
    f[np.flatnonzero(power_half.grid.omega_interior)[0]] = 1.0
    with pytest.raises(ParamError):
        cd.solve_fractional_dirichlet(power_half, f)


def test_single_node_data_is_nonlocal_against_independent_power(op64):
    """Brute-force oracle: scipy's fractional_matrix_power, independent of
    the eigendecomposition route, must give the same interior solution, and
    that solution is nonzero inside the interior region (nonlocality)."""
    grid = op64.grid
    s = 0.5
    P = cd.spectral_power(op64, s)
    f = np.zeros(grid.num_nodes)
    f[grid.w_indices[2]] = 1.0
    u = cd.solve_fractional_dirichlet(P, f)

    act = grid.active
    A = op64.stiffness[act][:, act].toarray() / op64.node_volume
    As = np.real(scipy.linalg.fractional_matrix_power(A, s))
    fa = f[act]
    sol = grid.omega_closure[act]
    ua = fa.copy()
    ua[sol] = np.linalg.solve(As[np.ix_(sol, sol)], -As[np.ix_(sol, ~sol)] @ fa[~sol])
    assert np.allclose(u[act], ua, atol=1e-8)
    assert np.linalg.norm(u[grid.omega_interior]) > 1e-6


def test_equation_holds_on_interior_block(power_half):
    grid = power_half.grid
    f = w_bump(grid)
    u = cd.solve_fractional_dirichlet(power_half, f)
    res = power_half.apply(u)[grid.omega_closure]
    assert np.max(np.abs(res)) < 1e-9 * np.abs(power_half.apply(u)).max()


def test_nonlocal_dtn_zero_and_symmetry(power_half):
    grid = power_half.grid
    assert np.max(np.abs(cd.nonlocal_dtn(
        power_half, np.zeros(grid.num_nodes)))) == 0.0
    dtn = cd.nonlocal_dtn_matrix(power_half)
    # brute-force columns via individual solves already build the matrix;
    # symmetry in the quadrature pairing is the assertion
    M = dtn.matrix
    assert np.max(np.abs(M - M.T)) <= 1e-10 * np.max(np.abs(M))


@given(st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=12, deadline=None)
def test_nonlocal_dtn_pairing_symmetry(power_half, i, j):
    dtn = cd.nonlocal_dtn_matrix(power_half)
    n = dtn.matrix.shape[0]
    f = np.zeros(n)
    g = np.zeros(n)
    f[i % n] = 1.0
    g[j % n] = 1.0
    assert abs(dtn.pairing(dtn.matrix @ f, g)
               - dtn.pairing(f, dtn.matrix @ g)) < 1e-12


def test_power_spectrum_monotone(op64):
    P = cd.spectral_power(op64, 0.3)
    lam = P.eigvals
    assert np.all(lam >= -1e-12)
    assert np.all(np.diff(lam) >= -1e-10)
    assert np.all(np.diff(lam**0.3) >= -1e-10)


def test_periodic_symbol_check():
    """Fourier oracle: the discrete symbol (2 - 2cos(xi h))^s / h^(2s) gives
    the eigenvalues of the fractional power of the periodic ring operator."""
    N, h, s = 32, 0.1, 0.4
    main = 2.0 * np.ones(N)
    A = (np.diag(main) - np.roll(np.eye(N), 1, axis=1)
         - np.roll(np.eye(N), -1, axis=1)) / h**2
    Ps = matrix_power(A, s)
    xi = 2 * np.pi * np.arange(N) / N
    predicted = np.sort(((2 - 2 * np.cos(xi)) / h**2) ** s)
    got = np.sort(np.linalg.eigvalsh(Ps))
    # the periodic operator has a zero eigenvalue; its fractional power can
    # only be resolved to (eps * lambda_max)^s in floating point
    floor = 8 * (np.finfo(float).eps * predicted.max() ** (1 / s)) ** s
    assert np.allclose(got, predicted, rtol=1e-8, atol=floor)


def test_dense_cap_raises():
    grid = make_grid(dim=2, nodes=80)
    op = cd.assemble_local(grid, cd.identity_coefficient(grid))
    with pytest.raises(EigError):
        cd.spectral_power(op, 0.5)


def _tiny_3d_grid():
    spec = cd.GeometrySpec(dim=3, omega_box=((0.0, 1.0),) * 3,
                           w_box=((1.5, 2.1), (0.0, 1.0), (0.0, 1.0)),
                           nodes=(12, 6, 6), padding=0.3)
    return cd.build_tangential_grid(spec)


_MAP_GRIDS = {
    (1, 0.9): lambda: make_grid(dim=1, nodes=40),
    (1, 0.0): lambda: make_grid(dim=1, nodes=40, padding=0.0),  # W meets the frame
    (2, 0.9): lambda: make_grid(dim=2, nodes=16),
    (2, 0.0): lambda: make_grid(dim=2, nodes=16, padding=0.0),
    (3, 0.3): _tiny_3d_grid,
}


def _columnwise_map(P):
    """Reference map: one exterior-value solve per measurement node."""
    grid = P.grid
    widx = grid.w_indices
    cols = []
    for node in widx:
        f = np.zeros(grid.num_nodes)
        f[node] = 1.0
        cols.append(P.apply(cd.solve_fractional_dirichlet(P, f))[widx])
    return np.column_stack(cols)


@given(st.sampled_from(sorted(_MAP_GRIDS)), st.sampled_from([0.1, 0.5, 0.9]),
       st.floats(-0.5, 1.0), st.integers(0, 2**16))
@settings(max_examples=15, deadline=None)
def test_nonlocal_dtn_matrix_matches_columnwise_oracle(layout, s, amplitude, seed):
    grid = _MAP_GRIDS[layout]()
    dim = grid.dim
    rng = np.random.default_rng(seed)
    center = rng.uniform(0.2, 0.8, dim)
    width = rng.uniform(0.2, 0.5)
    coeff = cd.diagonal_coefficient(
        grid, [lambda p: 1.0 + amplitude * cd.mollifier_bump(p, center, width)] * dim)
    P = cd.spectral_power(cd.assemble_local(grid, coeff), s)
    M = cd.nonlocal_dtn_matrix(P).matrix
    ref = _columnwise_map(P)
    assert np.max(np.abs(M - ref)) <= 1e-10 * np.max(np.abs(ref))


@functools.lru_cache(maxsize=None)
def _bump_power(layout, s):
    grid = _MAP_GRIDS[layout]()
    center = np.full(grid.dim, 0.5)
    coeff = cd.diagonal_coefficient(
        grid, [lambda p: 1.0 + 0.5 * cd.mollifier_bump(p, center, 0.4)] * grid.dim)
    return cd.spectral_power(cd.assemble_local(grid, coeff), s)


@given(st.sampled_from([(1, 0.9), (2, 0.9), (3, 0.3)]), st.sampled_from([0.1, 0.5, 0.9]),
       st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_power_block_matches_full_power(layout, s, seed):
    """A block of the power equals the same block cut from the full power,
    for positions in any order, with repeats, or all of them (None)."""
    P = _bump_power(layout, s)
    full = P.matrix()
    n = full.shape[0]
    rng = np.random.default_rng(seed)

    def positions():
        if rng.random() < 0.2:
            return None
        return rng.choice(n, size=rng.integers(1, n + 1), replace=rng.random() < 0.5)

    rows, cols = positions(), positions()
    ref = full[np.ix_(np.arange(n) if rows is None else rows,
                      np.arange(n) if cols is None else cols)]
    block = P.matrix(rows, cols)
    assert block.shape == ref.shape
    assert np.max(np.abs(block - ref)) <= 1e-13 * np.max(np.abs(full))


def test_power_blocks_are_no_larger_than_read(monkeypatch):
    """The map builds only the power's block over O u W, and the
    exterior-value solve only its O rows; neither forms the N x N power."""
    P = _bump_power((2, 0.9), 0.5)
    grid = P.grid
    n = int(P.active.sum())
    n_o = int(grid.omega_closure.sum())
    n_w = len(grid.w_indices)
    assert n_o + n_w < n
    shapes = []
    build = SpectralPower.matrix

    def recording(self, *args):
        out = build(self, *args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(SpectralPower, "matrix", recording)
    cd.nonlocal_dtn_matrix(P)
    assert sum(r * c for r, c in shapes) <= (n_o + n_w) ** 2
    shapes.clear()
    cd.solve_fractional_dirichlet(P, w_bump(grid))
    assert sum(r * c for r, c in shapes) <= n_o * n
    shapes.clear()
    cd.nonlocal_dtn(P, w_bump(grid))
    assert sum(r * c for r, c in shapes) <= n_o * n


def test_nonlocal_dtn_matrix_builds_the_power_once(power_half, monkeypatch):
    calls = []
    build = SpectralPower.matrix

    def counting(self, *args):
        calls.append(self)
        return build(self, *args)

    monkeypatch.setattr(SpectralPower, "matrix", counting)
    cd.nonlocal_dtn_matrix(power_half)
    assert len(calls) == 1


def test_lost_definiteness_raises_solve_error(power_half):
    P = dataclasses.replace(power_half, eigvals=np.zeros_like(power_half.eigvals))
    with pytest.raises(SolveError):
        cd.nonlocal_dtn_matrix(P)
    with pytest.raises(SolveError):
        cd.solve_fractional_dirichlet(P, w_bump(P.grid))


def test_block_fractional_dirichlet_matches_columns(power_half, monkeypatch):
    """A block of exterior data costs one power build and gives the
    per-column solutions and measurement values; a zero column stays zero."""
    grid = power_half.grid
    widx = grid.w_indices
    F = np.zeros((grid.num_nodes, 5))
    F[widx] = np.random.default_rng(5).standard_normal((len(widx), 5))
    F[:, 3] = 0.0
    cols = np.column_stack([cd.solve_fractional_dirichlet(power_half, F[:, j])
                            for j in range(5)])
    maps = np.column_stack([cd.nonlocal_dtn(power_half, F[:, j]) for j in range(5)])
    builds = []
    build = SpectralPower.matrix
    monkeypatch.setattr(SpectralPower, "matrix",
                        lambda self, *args: builds.append(self) or build(self, *args))
    U = cd.solve_fractional_dirichlet(power_half, F)
    assert len(builds) == 1
    assert U.shape == F.shape and not np.any(U[:, 3])
    assert np.max(np.abs(U - cols)) <= 1e-12 * np.max(np.abs(cols))
    M = cd.nonlocal_dtn(power_half, F)
    assert np.max(np.abs(M - maps)) <= 1e-12 * np.max(np.abs(maps))
    bad = F.copy()
    bad[grid.omega_closure, 0] = 1.0
    with pytest.raises(ParamError):
        cd.solve_fractional_dirichlet(power_half, bad)


def test_block_solve_matches_column_solves(op64):
    """A block solve equals column solves; a zero column stays zero."""
    ii = op64.grid.omega_interior
    fact = linsolve.Factorized(op64.omega_stiffness[ii][:, ii])
    B = np.random.default_rng(3).standard_normal((fact.n, 4))
    B[:, 2] = 0.0
    X = fact.solve(B)
    cols = np.column_stack([fact.solve(B[:, j]) for j in range(B.shape[1])])
    assert X.shape == B.shape
    assert not np.any(X[:, 2])
    assert np.max(np.abs(X - cols)) <= 1e-12 * np.max(np.abs(cols))
