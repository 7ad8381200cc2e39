import dataclasses
import functools
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st

import calderon as cd
from calderon import linsolve
from calderon.config import _grid_from_config, load_config
from calderon.errors import EigError, ParamError, SolveError
from calderon import extension, fractional_core
from calderon.extension import ExtensionSolver
from calderon.fractional_core import (
    _CHUNK,
    SpectralPower,
    _eigenbasis,
    _eigh_clipped,
    _reconstruct,
    _vertical_pencil,
    tensor_block,
)

from conftest import make_grid, w_bump

ROOT = Path(__file__).resolve().parent.parent


def test_eigenpair_maps_to_power(power_half, op64):
    lam = power_half.eigvals[3]
    e = power_half.eigvec_rows()[:, 3]
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


@pytest.mark.parametrize("entry, eigh_calls", [
    (lambda p: np.ones(len(p)), 0),
    (lambda p: 1.0 + 1e-9 * (p[:, 0] > 0.5), 1),  # near, not equal to, the identity
    (lambda p: 1.0 + 0.5 * cd.mollifier_bump(p, [0.5, 0.5], 0.4), 1),
], ids=["identity", "near-identity", "bump"])
def test_identity_power_makes_no_eigh_call(entry, eigh_calls, monkeypatch):
    grid = make_grid(dim=2, nodes=16)
    op = cd.assemble_local(grid, cd.diagonal_coefficient(grid, [entry] * 2))
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
    P = cd.spectral_power(op, 0.5)
    assert len(calls) == eigh_calls
    assert len(P.factors) == (2 if eigh_calls == 0 else 1)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_1d_bump_power_makes_no_eigh_call(s, monkeypatch):
    """In 1D the operator is tridiagonal: the power comes from its diagonals,
    with no dense eigh, and equals the dense route's power."""
    grid = make_grid(nodes=384)
    op = cd.assemble_local(grid, cd.diagonal_coefficient(
        grid, [1.0 + 0.5 * cd.mollifier_bump(grid.points, [0.5], 0.4)]))
    act = grid.active
    A = op.stiffness[act][:, act].toarray() / op.node_volume
    dense = _reconstruct(*_eigh_clipped(0.5 * (A + A.T)), s)
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda A: calls.append(A.shape) or eigh(A))
    P = cd.spectral_power(op, s)
    assert calls == [] and len(P.factors) == 1
    assert np.max(np.abs(P.matrix() - dense)) <= 1e-13 * np.max(np.abs(dense))


def test_periodic_symbol_check():
    """Fourier oracle: the discrete symbol (2 - 2cos(xi h))^s / h^(2s) gives
    the eigenvalues of the fractional power of the periodic ring operator."""
    N, h, s = 32, 0.1, 0.4
    main = 2.0 * np.ones(N)
    A = (np.diag(main) - np.roll(np.eye(N), 1, axis=1)
         - np.roll(np.eye(N), -1, axis=1)) / h**2
    Ps = _reconstruct(*_eigh_clipped(A), s)
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


def _eigh_power(P):
    """The same power through a dense eigendecomposition of the operator."""
    op, act = P.op, P.active
    A = op.stiffness[act][:, act].toarray() / op.node_volume
    lam, V = _eigh_clipped(0.5 * (A + A.T))
    return dataclasses.replace(P, eigvals=lam, factors=(V,))


_SINE_GRIDS = {
    1: lambda: make_grid(dim=1, nodes=40),
    2: lambda: make_grid(dim=2, nodes=(18, 13)),  # unequal spacing per axis
    3: _tiny_3d_grid,
}


@functools.lru_cache(maxsize=None)
def _sine_and_eigh_powers(dim, s):
    grid = _SINE_GRIDS[dim]()
    P = cd.spectral_power(cd.assemble_local(grid, cd.identity_coefficient(grid)), s)
    assert len(P.factors) == dim
    return P, _eigh_power(P)


@given(st.sampled_from(sorted(_SINE_GRIDS)), st.sampled_from([0.1, 0.5, 0.9]),
       st.integers(0, 2**16))
@settings(max_examples=20, deadline=None)
def test_sine_route_matches_eigh(dim, s, seed):
    """On a = Id the closed-form sine basis gives the power, its action and
    both measurement maps of a dense eigendecomposition of the operator."""
    P, R = _sine_and_eigh_powers(dim, s)
    grid = P.grid
    n = len(P.eigvals)
    rng = np.random.default_rng(seed)

    def close(a, b):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def positions():
        if rng.random() < 0.2:
            return None
        return rng.choice(n, size=rng.integers(1, n + 1), replace=rng.random() < 0.5)

    rows, cols = positions(), positions()
    close(P.matrix(rows, cols), R.matrix(rows, cols))
    F = np.zeros((grid.num_nodes, 3))
    F[grid.w_indices] = rng.standard_normal((len(grid.w_indices), 3))
    close(P.apply(F), R.apply(F))
    close(cd.solve_fractional_dirichlet(P, F), cd.solve_fractional_dirichlet(R, F))
    close(cd.nonlocal_dtn(P, F), cd.nonlocal_dtn(R, F))
    close(cd.nonlocal_dtn_matrix(P).matrix, cd.nonlocal_dtn_matrix(R).matrix)


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


def _sine_power_3d():
    grid = make_grid(dim=3, nodes=16)
    return cd.spectral_power(cd.assemble_local(grid, cd.identity_coefficient(grid)), 0.5)


def test_power_blocks_are_no_larger_than_read(monkeypatch):
    """The map builds only the power's block over O u W, and the
    exterior-value solve only its O rows; neither forms the N x N power,
    and no call allocates an N x N array (on the 3D sine route not even V)."""
    shapes = []
    build = SpectralPower.matrix

    def recording(self, *args):
        out = build(self, *args)
        shapes.append(out.shape)
        return out

    monkeypatch.setattr(SpectralPower, "matrix", recording)
    for P in (_bump_power((2, 0.9), 0.5), _sine_power_3d()):
        grid = P.grid
        f = w_bump(grid)
        n = int(P.active.sum())
        n_o = int(grid.omega_closure.sum())
        n_w = len(grid.w_indices)
        assert n_o + n_w < n
        shapes.clear()
        cd.nonlocal_dtn_matrix(P)
        assert sum(r * c for r, c in shapes) <= (n_o + n_w) ** 2
        shapes.clear()
        cd.solve_fractional_dirichlet(P, f)
        assert sum(r * c for r, c in shapes) <= n_o * n
        shapes.clear()
        cd.nonlocal_dtn(P, f)
        assert sum(r * c for r, c in shapes) <= n_o * n
        for call in (cd.nonlocal_dtn_matrix, lambda P: cd.solve_fractional_dirichlet(P, f),
                     lambda P: cd.nonlocal_dtn(P, f), lambda P: P.apply(f)):
            tracemalloc.start()
            try:
                call(P)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < n * n * 8


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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("block", [False, True])
def test_spectral_route_refuses_non_finite_data(bad, block):
    """A NaN or inf measurement-node value raises ParamError at the entry of
    the exterior-value solve and of the measurement map, for one datum and
    for a block."""
    grid = make_grid(nodes=48)
    P = cd.spectral_power(cd.assemble_local(grid, cd.identity_coefficient(grid)), 0.5)
    f = w_bump(grid)
    if block:
        f = np.column_stack([f, f])
        f[grid.w_indices[1], 1] = bad
    else:
        f[grid.w_indices[1]] = bad
    for solve in (cd.solve_fractional_dirichlet, cd.nonlocal_dtn):
        with pytest.raises(ParamError, match="non-finite"):
            solve(P, f)


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


def _bump_or_identity(grid, bump):
    return (cd.diagonal_coefficient(grid, [1.0 + 0.5 * cd.mollifier_bump(
        grid.points, [0.5] * grid.dim, 0.4)] * grid.dim, identity_outside=True)
        if bump else cd.identity_coefficient(grid))


def _sine_grid_solver(dim, s, bump, dirichlet_trace=False):
    grid = _SINE_GRIDS[dim]()
    return ExtensionSolver(cd.build_extension_mesh(grid, cd.build_vertical_mesh(
        s, cd.default_height(grid), 24)), _bump_or_identity(grid, bump), dirichlet_trace)


@functools.lru_cache(maxsize=None)
def _block_inputs(dim, s, bump, dirichlet_trace=False):
    """The arguments an extension solver on one of the sine grids hands
    ``tensor_block`` (grid, coefficient, K_T, m, the vertical operator's
    diagonal and off-diagonal on the free levels, their level weights, the
    level vector v, B and g), captured from its build."""
    captured = []

    def capturing(*args):
        captured.append(args)
        return tensor_block(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extension, "tensor_block", capturing)
        _sine_grid_solver(dim, s, bump, dirichlet_trace)
    (args,) = captured
    return args


def _route(dim, bump, lu=False):
    """The tensor block's route on the sine grids, with the LU route forced
    (``lu_route``) or not: every bump there is below ``_MODAL_NODE_CAP``."""
    return ("lu" if lu and dim > 1 else "eigh") if bump else "sine"


@pytest.mark.parametrize("dim, bump", [(1, True), (1, False), (2, False)])
def test_power_and_tensor_block_hold_one_basis(dim, bump):
    """The oracle and the extension's tensor block take the tangential
    eigenbasis from the one ``_eigenbasis``: on the same grid and
    coefficient their factors and eigenvalues are bitwise equal."""
    solver = _sine_grid_solver(dim, 0.5, bump)
    P = cd.spectral_power(cd.assemble_local(solver.emesh.grid, solver.system.coeff), 0.5)
    block = solver._block
    assert block.route == _route(dim, bump)
    assert len(block._factors) == len(P.factors) == (1 if bump else dim)
    for F, G in zip(block._factors, P.factors):
        assert np.array_equal(F, G)
    assert np.array_equal(block._lam, P.eigvals)


@pytest.mark.parametrize("dim, bump", [(2, False), (1, True), (2, True)])
def test_one_basis_per_coefficient(dim, bump, monkeypatch):
    """The sine, 1D "eigh" and 2D dense bases are built once per
    coefficient: the power and extension solvers at two values of s, in two
    trace layouts, hold the very same read-only factor and eigenvalue
    arrays."""
    builds = []
    for name in ("_sine_basis", "_dense_basis"):
        build = getattr(fractional_core, name)
        monkeypatch.setattr(fractional_core, name,
                            lambda *args, build=build: builds.append(args) or build(*args))
    grid = _SINE_GRIDS[dim]()
    coeff = _bump_or_identity(grid, bump)
    op = cd.assemble_local(grid, coeff)
    held = []
    for s in (0.25, 0.75):
        P = cd.spectral_power(op, s)
        held.append((P.factors, P.eigvals))
        em = cd.build_extension_mesh(grid, cd.build_vertical_mesh(
            s, cd.default_height(grid), 16))
        for dirichlet_trace in (False, None):
            block = ExtensionSolver(em, coeff, dirichlet_trace)._block
            assert block.route == _route(dim, bump)
            held.append((block._factors, block._lam))
    assert len(builds) == 1
    factors, lam = held[0]
    assert not any(a.flags.writeable for a in (lam, *factors))
    for F, mu in held[1:]:
        assert mu is lam
        assert len(F) == len(factors) and all(a is b for a, b in zip(F, factors))


def test_dense_power_past_the_cap_is_not_held(monkeypatch, lu_route):
    """Past ``_MODAL_NODE_CAP`` (here forced to 0) the power of a 2D bump
    builds its dense basis for itself and leaves nothing on the coefficient;
    below the cap the held basis is the same arithmetic, bitwise."""
    grid = _SINE_GRIDS[2]()
    coeff = _bump_or_identity(grid, True)
    op = cd.assemble_local(grid, coeff)
    P = cd.spectral_power(op, 0.5)
    assert coeff._held_basis is None
    monkeypatch.setattr(fractional_core, "_MODAL_NODE_CAP", lu_route)
    Q = cd.spectral_power(op, 0.5)
    assert coeff._held_basis[1][1] is Q.factors
    assert np.array_equal(P.factors[0], Q.factors[0])
    assert np.array_equal(P.eigvals, Q.eigvals)


@pytest.mark.parametrize("config, route, active", [
    ("tikhonov_2d_bump.json", "eigh", 484),
    ("bridge_residual_3d_bump.json", "lu", 1728),
])
def test_route_by_size_on_the_bump_rungs(config, route, active):
    """The 2D bump Tikhonov rung's grid is below ``_MODAL_NODE_CAP`` and
    holds a dense basis; the 3D LU rung's is past it and takes the LU."""
    cfg = load_config(ROOT / "scripts" / config)
    grid = _grid_from_config(cfg)
    coeff = cd.coefficient_from_spec(grid, cfg.coefficient)
    assert int(grid.active.sum()) == active
    K = cd.assemble_local(grid, coeff).stiffness[grid.active][:, grid.active]
    basis = _eigenbasis(grid, coeff, K)
    assert (basis[0] if basis else "lu") == route


def test_1d_eigh_basis_checks_the_dense_cap():
    """The 1D "eigh" basis is a dense N x N factor: a 1D variable-coefficient
    extension over ``DENSE_NODE_CAP`` active nodes raises EigError naming
    the cap instead of building it."""
    grid = make_grid(dim=1, nodes=fractional_core.DENSE_NODE_CAP + 3)
    em = cd.build_extension_mesh(grid, cd.build_vertical_mesh(
        0.5, cd.default_height(grid), 8))
    with pytest.raises(EigError, match="dense-eigendecomposition cap"):
        ExtensionSolver(em, _bump_or_identity(grid, True))


@functools.lru_cache(maxsize=None)
def _pencil_and_dense(dim, s):
    """A bump solver's block inputs, with its pencil's dense shifted matrices
    ``K_T + m mu_k I`` and the level vectors w = phi(1) and c = phi^T v of
    the trace sums."""
    args = _block_inputs(dim, s, True)
    _, _, K_T, m, diag, off, nu, v, _, _ = args
    mu, phi = _vertical_pencil(diag, off, nu)
    A = K_T.toarray() + m * mu[:, None, None] * np.eye(K_T.shape[0])
    return args, A, phi[0], phi.T @ v


def _close(a, b, tol=1e-10):
    assert a.shape == b.shape
    assert np.max(np.abs(a - b)) <= tol * np.max(np.abs(b))


@pytest.mark.usefixtures("lu_route")
@given(st.sampled_from([2, 3]), st.sampled_from([0.1, 0.9]),
       st.integers(0, 2**16))
@example(dim=2, s=0.1, seed=0)
@example(dim=3, s=0.9, seed=1)
@settings(max_examples=20, deadline=None)
def test_shifted_solver_matches_dense_shifted_matrices(dim, s, seed):
    """On the LU route (a bump coefficient in 2D and 3D, forced) a shifted block
    solve equals per-level dense solves of ``K_T + m mu_k I`` and the trace
    sums equal the same sums of the dense inverses' blocks, for trace
    positions spanning one to three chunks."""
    (grid, coeff, K_T, m, diag, off, nu, v, _, g), A, w, c = _pencil_and_dense(dim, s)
    rng = np.random.default_rng(seed)
    nT = A.shape[1]
    B = np.sort(rng.choice(nT, size=rng.integers(1, 3 * _CHUNK + 1), replace=False))
    block = tensor_block(grid, coeff, K_T, m, diag, off, nu, v, B, g)
    assert block.route == "lu"
    Y = rng.standard_normal((len(w), nT, 3))
    _close(block.shifted_solve(Y), np.linalg.solve(A, Y))
    inv = np.linalg.inv(A)
    G, H = block.trace_sums()
    _close(G, np.einsum("k,kij->ij", w**2, inv[:, B][:, :, B]))
    _close(H, np.einsum("k,kij->ij", c * w, inv[:, :, B]))


# the held-basis cases: a = Id in every dimension and a 1D bump
_MODAL_CASES = [(1, False), (2, False), (3, False), (1, True)]


@functools.lru_cache(maxsize=None)
def _modal_block_and_dense(dim, bump, s, dirichlet_trace):
    """A held-basis solver's block inputs, with the dense vertical blocks
    ``m (K_L + lam_i N_L)`` of every tangential mode and the pencil's dense
    shifted inverses ``(K_T + m mu_k)^-1``, eigenvectors phi and c = phi^T v."""
    args = _block_inputs(dim, s, bump, dirichlet_trace)
    grid, coeff, K_T, m, diag, off, nu, v, _, _ = args
    lam = _eigenbasis(grid, coeff, K_T)[2]
    K_L = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    vertical = m * (K_L + lam[:, None, None] * np.diag(nu))
    mu, phi = _vertical_pencil(diag, off, nu)
    inv = np.linalg.inv(K_T.toarray() + m * mu[:, None, None] * np.eye(len(lam)))
    return args, vertical, inv, phi, phi.T @ v


@given(st.sampled_from(_MODAL_CASES), st.sampled_from([0.1, 0.5, 0.9]),
       st.sampled_from([False, True, None]), st.integers(0, 2**16))
@example(case=(1, True), s=0.1, dirichlet_trace=False, seed=0)
@example(case=(1, True), s=0.5, dirichlet_trace=True, seed=1)
@example(case=(1, True), s=0.9, dirichlet_trace=None, seed=2)
@settings(max_examples=30, deadline=None)
def test_sine_profiles_match_dense_vertical_solves(case, s, dirichlet_trace, seed):
    """On a held basis (the sine route, and the "eigh" route of a 1D bump)
    the kept profiles are dense solves of ``m (K_L + lam_i N_L)`` against v
    and e_0, the trace sums equal the pencil's sums of dense shifted
    inverses, and a solve equals the pencil's dense solve ``phi [(K_T + m
    mu_k)^-1 (c_k a + g phi_k(1) E_B xB)]``, in every trace layout and for
    trace positions spanning one to three chunks."""
    dim, bump = case
    args, vertical, inv, phi, c = _modal_block_and_dense(dim, bump, s, dirichlet_trace)
    grid, coeff, K_T, m, diag, off, nu, v, _, g = args
    rng = np.random.default_rng(seed)
    nT, nL = inv.shape[1], len(diag)
    B = np.sort(rng.choice(nT, size=rng.integers(1, 3 * _CHUNK + 1), replace=False))
    block = tensor_block(grid, coeff, K_T, m, diag, off, nu, v, B, g)
    assert block.route == _route(dim, bump)
    _close(block._P[0], np.linalg.solve(vertical, v).T)
    _close(block._P[1], np.linalg.solve(vertical, np.eye(nL)[0]).T)
    G, H = block.trace_sums()
    w = phi[0]
    _close(G, np.einsum("k,kij->ij", w**2, inv[:, B][:, :, B]))
    _close(H, np.einsum("k,kij->ij", c * w, inv[:, :, B]))
    a = rng.standard_normal((nT, 3))
    xB = rng.standard_normal((len(B), 3))
    rhs = np.multiply.outer(c, a)
    rhs[:, B] += np.multiply.outer(g * w, xB)
    out = np.empty((nL, nT, 3))
    block.solve(a, xB, out)
    _close(out, np.tensordot(phi, inv @ rhs, axes=(1, 0)))


class CountingFactor:
    """A factor whose block solves are counted."""

    def __init__(self, factor):
        self.factor, self.solves = factor, 0

    def solve(self, rhs):
        self.solves += 1
        return self.factor.solve(rhs)


@pytest.mark.usefixtures("lu_route")
@pytest.mark.parametrize("size", [1, _CHUNK, _CHUNK + 1, 3 * _CHUNK - 2])
def test_trace_sums_make_one_lu_solve_per_chunk(size, monkeypatch):
    """The LU route's trace sums cost ceil(|B| / _CHUNK) block solves and a
    held basis's none (a closed form in its profiles, for a = Id and for a
    1D bump alike); ``splu`` runs once for a 2D bump on the LU route
    (forced) and never for a held basis, in the build or the trace sums."""
    factored, tridiagonal_solves = [], []
    splu, dpttrs = spla.splu, scipy.linalg.lapack.dpttrs

    def counting_splu(*args, **kwargs):
        factored.append(args)
        return splu(*args, **kwargs)

    def counting_dpttrs(*args, **kwargs):
        tridiagonal_solves.append(args)
        return dpttrs(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting_splu)
    monkeypatch.setattr(scipy.linalg.lapack, "dpttrs", counting_dpttrs)
    B = np.arange(size)
    for dim, bump in ((2, False), (2, True), (1, True)):
        grid, coeff, K_T, m, diag, off, nu, v, _, g = _block_inputs(dim, 0.5, bump)
        factored.clear()
        block = tensor_block(grid, coeff, K_T, m, diag, off, nu, v, B, g)
        assert block.route == _route(dim, bump, lu=True)
        if block.route == "lu":
            block._lu = CountingFactor(block._lu)
        tridiagonal_solves.clear()
        block.trace_sums()
        assert len(factored) == (bump and dim == 2)
        assert not tridiagonal_solves
        if block.route == "lu":
            assert block._lu.solves == -(-size // _CHUNK)


def test_1d_indefinite_shift_raises_solve_error(monkeypatch):
    """A mode whose vertical block ``m (K_L + lam_i N_L)`` is indefinite
    stops the stacked per-mode factorization at that block's first row, and
    raises SolveError naming the ``dpttrf`` info."""
    grid, coeff, K_T, m, diag, off, nu, v, B, g = _block_inputs(1, 0.5, True)
    route, factors, lam = _eigenbasis(grid, coeff, K_T)
    assert route == "eigh"
    k = 3
    bad = lam.copy()
    bad[k] = -2.0 * np.max(diag / nu)
    monkeypatch.setattr(fractional_core, "_eigenbasis",
                        lambda *args: (route, factors, bad))
    with pytest.raises(SolveError, match=f"dpttrf info {k * len(diag) + 1} "):
        tensor_block(grid, coeff, K_T, m, diag, off, nu, v, B, g)
