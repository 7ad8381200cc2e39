import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import cho_factor
from hypothesis import given, settings, strategies as st

import calderon as cd
import calderon.tikhonov as tk
from calderon.errors import MeshMismatch, ParamError, RankError, SolveError, TailError
from calderon.local_elliptic import boundary_flux
from calderon.tikhonov import (
    _exterior_tangential_form,
    _ring_energy_rows,
    _ring_nodes,
    build_data_operator,
)

from conftest import assert_same_sparse, kron_stiffness, make_grid, w_bump


@pytest.fixture(scope="module")
def small_pipe():
    grid = make_grid(nodes=32)
    a = cd.identity_coefficient(grid)
    return cd.BridgePipeline(grid, a, 0.5, levels=32)


@pytest.fixture(scope="module")
def aop(small_pipe):
    return build_data_operator(small_pipe)


def test_data_gram_symmetric_positive_definite(aop):
    eigs = np.linalg.eigvalsh(aop.G_A)
    assert np.allclose(aop.G_A, aop.G_A.T)
    assert eigs.min() > 0


def test_penalty_gram_spd(aop):
    eigs = np.linalg.eigvalsh(aop.G_E)
    assert eigs.min() > 0


def _snapshots(pipe):
    """The snapshot fields, re-solved: one unit spike per measurement node."""
    widx = pipe.grid.w_indices
    spikes = np.zeros((pipe.grid.num_nodes, len(widx)))
    spikes[widx, np.arange(len(widx))] = 1.0
    return pipe.solver.solve_block(spikes)


def test_basis_fields_satisfy_exterior_bulk_rows(small_pipe, aop):
    """Every snapshot zeroes the free rows over the exterior columns."""
    fields = _snapshots(small_pipe)
    grid = small_pipe.grid
    em = small_pipe.emesh
    S = small_pipe.solver.system.stiffness
    J = em.vertical.num_levels
    free = np.zeros(em.num_nodes, dtype=bool)
    cols = free.reshape(grid.num_nodes, J + 1)
    cols[grid.active & grid.exterior, 1:J] = True
    scale = np.abs(S.diagonal()).max()
    for k in range(aop.basis_size):
        r = (S @ fields[:, k])[free]
        assert np.max(np.abs(r)) < 1e-9 * scale


def test_basis_trace_is_nodal(aop):
    assert np.allclose(aop.trace_matrix, np.eye(aop.basis_size), atol=1e-12)


@pytest.mark.parametrize("dim, bump", [(1, False), (1, True), (2, True)])
def test_trace_matrix_is_exactly_the_identity(dim, bump):
    """Unit data on W read back at the trace give the identity to the bit on
    every tensor-block route (sine, and eigh in 1D and 2D here; the sparse
    LU below), so the data columns' sigma_min is at least 1."""
    grid = make_grid(dim=dim, nodes=32 if dim == 1 else 16, padding=0.3)
    a = (cd.diagonal_coefficient(grid, [1.0 + 0.5 * cd.mollifier_bump(
        grid.points, [0.5] * dim, 0.4)] * dim, identity_outside=True) if bump
        else cd.identity_coefficient(grid))
    op = build_data_operator(cd.BridgePipeline(grid, a, 0.5, levels=24))
    assert np.array_equal(op.trace_matrix, np.eye(len(grid.w_indices)))
    sv = np.linalg.svd(np.vstack([op.trace_matrix, op.ntrace_matrix]), compute_uv=False)
    assert sv.min() >= 1.0 - 1e-12


@pytest.mark.usefixtures("lu_route")
def test_trace_matrix_is_exactly_the_identity_on_the_lu_route():
    """The same on the sparse LU route, forced for a 2D bump."""
    test_trace_matrix_is_exactly_the_identity(2, True)


def test_eps_validation(small_pipe):
    with pytest.raises(ParamError):
        build_data_operator(small_pipe, eps=0.5)
    with pytest.raises(ParamError):
        build_data_operator(small_pipe, eps=-0.1)


def test_requires_identity_exterior():
    grid = make_grid(nodes=32)
    a = cd.diagonal_coefficient(grid, [lambda p: 1.0 + 0.1 * p[:, 0] ** 2])
    pipe = cd.BridgePipeline(grid, a, 0.5, levels=32)
    with pytest.raises(ParamError):
        build_data_operator(pipe)
    near = np.ones(grid.num_nodes)
    near[np.flatnonzero(grid.exterior)[0]] = 1.0 + 1e-7
    pipe = cd.BridgePipeline(grid, cd.diagonal_coefficient(grid, [near]), 0.5, levels=32)
    with pytest.raises(ParamError):
        build_data_operator(pipe)


def test_rank_error_with_absurd_threshold(small_pipe):
    with pytest.raises(RankError):
        build_data_operator(small_pipe, rank_tol=2.0)


def test_norms_continuous_in_eps(small_pipe):
    """The proxy norms converge to the eps = 0 norms on fixed vectors."""
    from calderon.tikhonov import _fractional_norm_matrices

    rng = np.random.default_rng(2)
    v = rng.standard_normal(len(small_pipe.grid.w_indices))
    gaps = []
    for eps in (0.1, 0.01, 0.001):
        N_plus, _ = _fractional_norm_matrices(small_pipe, eps)
        N0, _ = _fractional_norm_matrices(small_pipe, 1e-12)
        gaps.append(abs(v @ (N_plus @ v) - v @ (N0 @ v)))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-2 * abs(v @ v)


def test_zero_data_gives_zero_minimizer(aop):
    K = aop.basis_size
    sol = cd.minimize(aop, (np.zeros(K), np.zeros(K)), 1e-3)
    assert np.max(np.abs(sol.coeffs)) < 1e-12
    assert sol.misfit == pytest.approx(0.0, abs=1e-24)


def test_alpha_validation(aop):
    K = aop.basis_size
    data = (np.zeros(K), np.zeros(K))
    with pytest.raises(ParamError):
        cd.minimize(aop, data, 0.0)
    with pytest.raises(ParamError):
        cd.alpha_sweep(aop, data, [1e-2, 1e-1])
    with pytest.raises(ParamError):
        cd.alpha_sweep(aop, data, [1e-2, -1.0])


def test_attainable_data_sweep(aop):
    """Misfit decreases to ~0 and the minimizer converges to the generator."""
    b = np.zeros(aop.basis_size)
    b[aop.basis_size // 2] = 1.0
    data = aop.apply(b)
    alphas = [10.0 ** (-k) for k in range(0, 9)]
    rep = cd.alpha_sweep(aop, data, alphas)
    assert rep.misfit_nonincreasing
    assert rep.penalty_nondecreasing
    assert rep.misfits[-1] < 1e-6
    sol = cd.minimize(aop, data, 1e-8)
    gap = sol.coeffs - b
    assert gap @ (aop.G_E @ gap) < 1e-8 * (b @ (aop.G_E @ b))


def test_single_entry_schedule(aop):
    b = np.zeros(aop.basis_size)
    b[0] = 1.0
    rep = cd.alpha_sweep(aop, aop.apply(b), [1e-4])
    assert len(rep.alphas) == 1
    assert rep.misfit_nonincreasing and rep.penalty_nondecreasing


def test_optimality_probes(aop):
    rng = np.random.default_rng(3)
    b = rng.standard_normal(aop.basis_size)
    data = aop.apply(b)
    for alpha in (1e-2, 1e-5):
        sol = cd.minimize(aop, data, alpha)
        margin = cd.optimality_probe(aop, sol, data, num=100, rng=rng)
        assert margin >= -1e-10


def test_normal_equations_spd_bound(aop):
    alpha = 1e-3
    M = alpha * aop.G_E + aop.G_A
    lam_min = np.linalg.eigvalsh(0.5 * (M + M.T)).min()
    lam_e = np.linalg.eigvalsh(aop.G_E).min()
    assert lam_min >= alpha * lam_e * (1 - 1e-8)


def test_noisy_data_monotonicity_still_holds(aop):
    rng = np.random.default_rng(4)
    b = np.zeros(aop.basis_size)
    b[1] = 1.0
    f, t = aop.apply(b)
    t = t + 0.01 * np.linalg.norm(t) * rng.standard_normal(len(t))
    rep = cd.alpha_sweep(aop, (f, t), [10.0 ** (-k) for k in range(0, 7)])
    assert rep.misfit_nonincreasing and rep.penalty_nondecreasing


@pytest.fixture(scope="module")
def recon_setup():
    grid = make_grid(nodes=48)
    a = cd.identity_coefficient(grid)
    pipe = cd.BridgePipeline(grid, a, 0.5, levels=48)
    aop = build_data_operator(pipe)
    f = w_bump(grid)
    P = cd.spectral_power(pipe.local_op, 0.5)
    lam_s_f = cd.nonlocal_dtn(P, f)
    return grid, pipe, aop, f, lam_s_f


def test_reconstruct_zero_data(recon_setup):
    grid, pipe, aop, f, lam = recon_setup
    K = aop.basis_size
    pair, sol = cd.reconstruct_cauchy_from_data(pipe, aop, np.zeros(K),
                                                np.zeros(K), 1e-6)
    assert np.max(np.abs(pair.boundary_values)) < 1e-10
    assert np.max(np.abs(pair.boundary_flux)) < 1e-10


def test_reconstruct_matches_forward_map(recon_setup):
    grid, pipe, aop, f, lam = recon_setup
    truth = cd.operator_T(pipe, f)
    pair, _ = cd.reconstruct_cauchy_from_data(
        pipe, aop, f[grid.w_indices], lam, 1e-6
    )
    ev = np.linalg.norm(pair.boundary_values - truth.boundary_values)
    efl = np.linalg.norm(pair.boundary_flux - truth.boundary_flux)
    assert ev / np.linalg.norm(truth.boundary_values) < 0.10
    assert efl / np.linalg.norm(truth.boundary_flux) < 0.10


def test_reconstruction_error_decreases_in_alpha(recon_setup):
    grid, pipe, aop, f, lam = recon_setup
    truth = cd.operator_T(pipe, f)
    errs = []
    for alpha in (1e-2, 1e-3, 1e-4):
        pair, _ = cd.reconstruct_cauchy_from_data(
            pipe, aop, f[grid.w_indices], lam, alpha
        )
        errs.append(np.linalg.norm(pair.boundary_values - truth.boundary_values))
    assert errs[0] > errs[1] > errs[2]


def _max_rel(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
def test_basis_reconstruction_matches_fresh_solve(dim, s):
    """The reconstruction combines the snapshot fields; a fresh mixed solve
    of the minimizer's trace gives the same field and Cauchy pair."""
    grid = make_grid(dim=dim, nodes=40 if dim == 1 else 16)
    pipe = cd.BridgePipeline(grid, cd.identity_coefficient(grid), s,
                             levels=32 if dim == 1 else 20)
    aop = build_data_operator(pipe)
    f = w_bump(grid)
    lam = cd.nonlocal_dtn(cd.spectral_power(pipe.local_op, s), f)
    pair, sol = cd.reconstruct_cauchy_from_data(pipe, aop, f[grid.w_indices],
                                                lam, 1e-6)
    f_hat = np.zeros(grid.num_nodes)
    f_hat[grid.w_indices] = sol.coeffs
    fresh = pipe.extension(f_hat)
    combined = pipe.solver._field(_snapshots(pipe) @ sol.coeffs)
    assert _max_rel(combined.values, fresh.values) <= 1e-9
    ref = pipe.cauchy_pair(f_hat)
    assert _max_rel(pair.boundary_values, ref.boundary_values) <= 1e-9
    assert _max_rel(pair.boundary_flux, ref.boundary_flux) <= 1e-9


def test_corrupted_basis_column_raises_solve_error(recon_setup, monkeypatch):
    grid, pipe, aop, f, lam = recon_setup
    k = aop.basis_size // 2
    # a free node one level above the trace, below the spike of column k
    node = pipe.emesh.trace_indices()[grid.w_indices[k]] + 1
    solve_chunk = pipe.solver._solve_chunk

    def corrupted(D, u, levels):
        solve_chunk(D, u, levels)  # before the chunk's residual is measured
        for j in np.flatnonzero(D[grid.w_indices[k]]):
            u[node, j] += 1e-3 * np.max(np.abs(u[:, j]))

    monkeypatch.setattr(pipe.solver, "_solve_chunk", corrupted)
    with pytest.raises(SolveError, match="residual"):
        build_data_operator(pipe)


def test_residual_norms_are_the_yielded_ones(recon_setup, monkeypatch):
    """The operator keeps the norms the solve measured on each chunk, and
    each is within the solve's tolerance of its column's load."""
    grid, pipe, aop, f, lam = recon_setup
    solve_chunks = pipe.solver.solve_chunks
    yielded = []

    def recording(data):
        for c0, u, rho in solve_chunks(data):
            yielded.append(rho.copy())
            yield c0, u, rho

    monkeypatch.setattr(pipe.solver, "solve_chunks", recording)
    op = build_data_operator(pipe)
    assert np.array_equal(op.residual_norms, np.concatenate(yielded))
    loads = np.linalg.norm(op.loads.toarray(), axis=0)
    assert np.all(op.residual_norms <= 1e-8 * loads)


def test_data_operator_keeps_no_field():
    """The build reduces each snapshot chunk as it is solved: its peak
    allocation stays below the num_nodes x |W| snapshot block."""
    grid = make_grid(nodes=384)
    pipe = cd.BridgePipeline(grid, cd.identity_coefficient(grid), 0.5, levels=32)
    build_data_operator(pipe)
    tracemalloc.start()
    try:
        op = build_data_operator(pipe)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pipe.emesh.num_nodes * op.basis_size * 8


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("bump", [False, True])
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_penalty_gram_is_the_exterior_form_of_the_snapshots(dim, s, bump, data):
    """G_E from the discrete Green identity equals the exterior penalty form
    of the re-solved snapshot fields, on every shifted-solve route."""
    nodes = data.draw({1: st.integers(24, 64), 2: st.integers(10, 14),
                       3: st.tuples(st.integers(10, 11), st.integers(6, 7),
                                    st.integers(6, 7))}[dim], label="nodes")
    grid = make_grid(dim=dim, nodes=nodes, padding=0.3)
    a = (cd.diagonal_coefficient(grid, [1.0 + 0.5 * cd.mollifier_bump(
        grid.points, [0.5] * dim, 0.4)] * dim, identity_outside=True) if bump
        else cd.identity_coefficient(grid))
    pipe = cd.BridgePipeline(grid, a, s, levels=data.draw(st.integers(8, 24),
                                                          label="levels"))
    aop = build_data_operator(pipe)
    fields = _snapshots(pipe)
    ref = fields.T @ (exterior_energy_matrix(pipe) @ fields)
    assert np.max(np.abs(aop.G_E - ref)) <= 1e-10 * np.max(np.abs(aop.G_E))


def test_data_operator_of_another_pipeline_raises_mesh_mismatch(recon_setup):
    grid, pipe, aop, f, lam = recon_setup
    other = cd.BridgePipeline(grid, pipe.coeff, pipe.s, levels=48)
    with pytest.raises(MeshMismatch):
        cd.reconstruct_cauchy_from_data(other, aop, f[grid.w_indices], lam, 1e-6)


def test_reconstruction_allocates_less_than_one_field(recon_setup):
    """A reconstruction works on the snapshots' tangential images: its peak
    allocation stays below one extension field."""
    grid, pipe, aop, f, lam = recon_setup
    cd.reconstruct_cauchy_from_data(pipe, aop, f[grid.w_indices], lam, 1e-6)
    tracemalloc.start()
    try:
        cd.reconstruct_cauchy_from_data(pipe, aop, f[grid.w_indices], lam, 1e-6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < pipe.emesh.num_nodes * 8


@functools.lru_cache(maxsize=None)
def _reduced_setup(dim, s, bump):
    grid = make_grid(dim=dim, nodes=40 if dim == 1 else 16)
    a = (cd.diagonal_coefficient(grid, [1.0 + 0.5 * cd.mollifier_bump(
        grid.points, [0.5] * dim, 0.4)] * dim, identity_outside=True) if bump
        else cd.identity_coefficient(grid))
    pipe = cd.BridgePipeline(grid, a, s, levels=32 if dim == 1 else 20)
    return pipe, build_data_operator(pipe), _snapshots(pipe)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("s", [0.25, 0.5, 0.9])
@pytest.mark.parametrize("bump", [False, True])
@given(st.integers(0, 2**16), st.sampled_from([1e-2, 1e-4, 1e-6]))
@settings(max_examples=3, deadline=None)
def test_reduced_reconstruction_matches_field_path(dim, s, bump, seed, alpha):
    """The pair read from the snapshots' tangential images equals the one of
    the combined field, through vertical_integral and boundary_flux, on
    the sine route and the "eigh" route (in 1D and, on a dense basis, in
    2D)."""
    pipe, aop, fields = _reduced_setup(dim, s, bump)
    rng = np.random.default_rng(seed)
    K = aop.basis_size
    f_w = 1.0 + 0.2 * rng.standard_normal(K)
    # the data of f_w, with 10% noise on the fractional-operator values
    lam = -pipe.cs * (aop.ntrace_matrix @ f_w) * (1.0 + 0.1 * rng.standard_normal(K))
    pair, sol = cd.reconstruct_cauchy_from_data(pipe, aop, f_w, lam, alpha)
    v = cd.vertical_integral(pipe.solver._field(fields @ sol.coeffs)).values
    ref_values = v[pipe.grid.boundary_indices]
    ref_flux = boundary_flux(pipe.local_op, v)
    assert _max_rel(pair.boundary_values, ref_values) <= 1e-12
    assert _max_rel(pair.boundary_flux, ref_flux) <= 1e-12


def test_reconstruction_raises_tail_error_where_operator_t_does():
    """At s = 0.1 and the default height the top flux exceeds the bound:
    operator T refuses the datum, and so does its reconstruction."""
    grid = make_grid(nodes=64)
    s = 0.1
    pipe = cd.BridgePipeline(grid, cd.identity_coefficient(grid), s, levels=64)
    f = w_bump(grid)
    with pytest.raises(TailError):
        cd.operator_T(pipe, f)
    lam = cd.nonlocal_dtn(cd.spectral_power(pipe.local_op, s), f)
    aop = build_data_operator(pipe)
    with pytest.raises(TailError):
        cd.reconstruct_cauchy_from_data(pipe, aop, f[grid.w_indices], lam, 1e-6)


def exterior_energy_matrix(pipeline):
    """Reference full penalty form: the weighted gradient form restricted to
    the exterior half-slab, as the Kronecker sum of the exterior tangential
    form and the vertical operator in the exterior columns."""
    grid = pipeline.grid
    return kron_stiffness(_exterior_tangential_form(pipeline), pipeline.emesh.vertical,
                          grid.node_volume, grid.exterior)


def triplet_exterior_energy_matrix(pipeline):
    """Reference triplet assembly of the exterior penalty form."""
    from calderon.local_elliptic import _assemble

    emesh = pipeline.emesh
    grid, vm = emesh.grid, emesh.vertical
    ext = grid.exterior
    Ktan = _assemble(grid, pipeline.coeff,
                     lambda k, i, j: (ext[i] & ext[j]).astype(float)).tocoo()
    J1 = vm.num_levels + 1
    nu = vm.level_weights()
    lev = np.arange(J1)
    rows_t = (Ktan.row[:, None] * J1 + lev[None, :]).ravel()
    cols_t = (Ktan.col[:, None] * J1 + lev[None, :]).ravel()
    vals_t = (Ktan.data[:, None] * nu[None, :]).ravel()
    cond = 1.0 / vm.cell_resistances()
    i_ext = np.flatnonzero(ext)
    lo = (i_ext[:, None] * J1 + np.arange(vm.num_levels)[None, :]).ravel()
    hi = lo + 1
    c = np.tile(grid.node_volume * cond, len(i_ext))
    rows = np.concatenate([rows_t, lo, hi, lo, hi])
    cols = np.concatenate([cols_t, lo, hi, hi, lo])
    vals = np.concatenate([vals_t, c, c, -c, -c])
    return sp.csr_matrix((vals, (rows, cols)), shape=(emesh.num_nodes,) * 2)


@pytest.mark.parametrize("dim, s", [(1, 0.25), (1, 0.9), (2, 0.5)])
def test_exterior_energy_matrix_matches_triplet_assembly(dim, s):
    grid = make_grid(dim=dim, nodes=40 if dim == 1 else 14, padding=0.3)
    coeff = cd.diagonal_coefficient(
        grid, [1.0 + 0.5 * cd.mollifier_bump(grid.points, [0.5] * dim, 0.3)] * dim,
        identity_outside=True)
    pipe = cd.BridgePipeline(grid, coeff, s, levels=24)
    assert_same_sparse(exterior_energy_matrix(pipe),
                       triplet_exterior_energy_matrix(pipe), 1e-14)


@pytest.mark.parametrize("dim, s, bump", [(1, 0.1, True), (1, 0.9, False),
                                          (2, 0.5, True), (2, 0.25, False),
                                          (3, 0.5, False)])
def test_ring_rows_are_the_exterior_form(dim, s, bump):
    """The ring block the data operator assembles alone equals the ring rows
    of the full penalty form to the bit; every other exterior row of that
    form is the stiffness row."""
    grid = make_grid(dim=dim, nodes={1: 40, 2: 14, 3: (10, 6, 6)}[dim], padding=0.3)
    coeff = (cd.diagonal_coefficient(grid, [1.0 + 0.5 * cd.mollifier_bump(
        grid.points, [0.5] * dim, 0.3)] * dim, identity_outside=True) if bump
        else cd.identity_coefficient(grid))
    pipe = cd.BridgePipeline(grid, coeff, s, levels=24)
    J1 = pipe.emesh.vertical.num_levels + 1
    nodes = _ring_nodes(pipe)
    assert 0 < len(nodes) < np.count_nonzero(grid.exterior)
    full = exterior_energy_matrix(pipe)
    ref = full[(nodes[:, None] * J1 + np.arange(J1)).ravel()].toarray()
    block = _ring_energy_rows(pipe, nodes).toarray()
    assert np.array_equal(block, ref)
    rest = np.setdiff1d(np.flatnonzero(grid.exterior), nodes)
    rows = (rest[:, None] * J1 + np.arange(J1)).ravel()
    S = pipe.solver.system.stiffness
    assert np.array_equal(full[rows].toarray(), S[rows].toarray())


def test_one_cholesky_per_operator_and_alpha(recon_setup, monkeypatch):
    """Repeated reconstructions at one alpha factor the normal matrix once;
    a new alpha replaces the held factor.  The held arrays and the Grams are
    read-only, so the factor cannot go stale."""
    grid, pipe, aop, f, lam = recon_setup
    op = dataclasses.replace(aop)  # the same arrays, no factor held yet
    factored = []

    def counting(M, *args, **kwargs):
        factored.append(M.shape)
        return cho_factor(M, *args, **kwargs)

    monkeypatch.setattr(tk, "cho_factor", counting)
    for _ in range(5):
        cd.reconstruct_cauchy_from_data(pipe, op, f[grid.w_indices], lam, 1e-6)
    assert len(factored) == 1
    cd.reconstruct_cauchy_from_data(pipe, op, f[grid.w_indices], lam, 1e-4)
    cd.reconstruct_cauchy_from_data(pipe, op, f[grid.w_indices], lam, 1e-4)
    assert len(factored) == 2
    cd.minimize(op, op.apply(np.ones(op.basis_size)), 1e-6)
    assert len(factored) == 3
    alpha, M, (chol, _) = op._normal
    assert alpha == 1e-6
    for arr in (M, chol, op.G_A, op.G_E):
        assert not arr.flags.writeable
    with pytest.raises(ValueError):
        op.G_E[0, 0] += 1.0


@pytest.mark.parametrize("dim", [1, 2])
@given(s=st.sampled_from([0.25, 0.5, 0.9]), bump=st.booleans(),
       alpha=st.sampled_from([1e-2, 1e-4, 1e-6, 1e-8]), seed=st.integers(0, 2**16))
@settings(max_examples=8, deadline=None)
def test_held_factor_minimizer_is_the_normal_equation_solution(dim, s, bump, alpha, seed):
    """The minimizer from the held Cholesky factor equals a dense solve of
    the normal equations to 1e-12."""
    _, aop, _ = _reduced_setup(dim, s, bump)
    rng = np.random.default_rng(seed)
    K = aop.basis_size
    data = (rng.standard_normal(K), 10.0 * rng.standard_normal(K))
    c = cd.minimize(aop, data, alpha).coeffs
    ref = np.linalg.solve(alpha * aop.G_E + aop.G_A, aop.adjoint_data(data))
    assert np.max(np.abs(c - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("corrupt", [lambda c: c * (1.0 + 1e-3), lambda c: c * np.nan],
                         ids=["scaled", "nan"])
def test_corrupted_held_factor_trips_the_normal_equation_check(aop, monkeypatch, corrupt):
    """A held factor that no longer solves M fails the 1e-10 check, and the
    least-squares fallback still returns the minimizer."""
    K = aop.basis_size
    data = aop.apply(np.linspace(1.0, 2.0, K))
    clean = cd.minimize(aop, data, 1e-3).coeffs
    op = dataclasses.replace(aop)
    M, (chol, lower) = op._normal_equations(1e-3)
    op._normal = (1e-3, M, (corrupt(chol), lower))
    lstsq = np.linalg.lstsq
    fallbacks = []

    def spy(*args, **kwargs):
        fallbacks.append(args[0].shape)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", spy)
    c = cd.minimize(op, data, 1e-3).coeffs
    assert fallbacks == [(K, K)]
    assert np.max(np.abs(c - clean)) <= 1e-8 * np.max(np.abs(clean))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_data_raise_param_error(recon_setup, bad):
    grid, pipe, aop, f, lam = recon_setup
    K = aop.basis_size
    f_w = f[grid.w_indices].copy()
    f_w[K // 2] = bad
    bad_lam = lam.copy()
    bad_lam[0] = bad
    with pytest.raises(ParamError, match="finite"):
        cd.minimize(aop, (f_w, np.zeros(K)), 1e-6)
    with pytest.raises(ParamError, match="finite"):
        cd.minimize(aop, (np.zeros(K), f_w), 1e-6)
    with pytest.raises(ParamError, match="f_w must be finite"):
        cd.reconstruct_cauchy_from_data(pipe, aop, f_w, lam, 1e-6)
    with pytest.raises(ParamError, match="lambda_s_f must be finite"):
        cd.reconstruct_cauchy_from_data(pipe, aop, f[grid.w_indices], bad_lam, 1e-6)
    # the extension refuses it too: operator T and the one solve path
    g = f.copy()
    g[grid.w_indices[0]] = bad
    with pytest.raises(ParamError, match="finite"):
        cd.operator_T(pipe, g)
    with pytest.raises(ParamError, match="finite"):
        next(pipe.solver.solve_chunks(g[:, None]))


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
def test_bad_alpha_raises_param_error(recon_setup, alpha):
    grid, pipe, aop, f, lam = recon_setup
    K = aop.basis_size
    with pytest.raises(ParamError, match="alpha"):
        cd.minimize(aop, (np.zeros(K), np.zeros(K)), alpha)
    with pytest.raises(ParamError, match="alpha"):
        cd.reconstruct_cauchy_from_data(pipe, aop, f[grid.w_indices], lam, alpha)
    with pytest.raises(ParamError, match="alpha"):
        cd.alpha_sweep(aop, (np.zeros(K), np.zeros(K)), [1.0, alpha])


def test_wrong_length_data_raise_param_error(recon_setup):
    grid, pipe, aop, f, lam = recon_setup
    K = aop.basis_size
    with pytest.raises(ParamError, match=f"shape \\({K},\\)"):
        cd.minimize(aop, (np.zeros(K - 1), np.zeros(K)), 1e-6)
    with pytest.raises(ParamError, match="f_w"):
        cd.reconstruct_cauchy_from_data(pipe, aop, f, lam, 1e-6)
    with pytest.raises(ParamError, match="lambda_s_f"):
        cd.reconstruct_cauchy_from_data(pipe, aop, f[grid.w_indices], lam[:, None], 1e-6)


def test_truncation_check_refuses_nan():
    """``not tail <= bound``: a NaN integral or top flux trips the check."""
    from calderon.bridge import _checked_integral

    grid = make_grid(nodes=32)
    pipe = cd.BridgePipeline(grid, cd.identity_coefficient(grid), 0.5, levels=16)
    ones = np.ones(grid.num_nodes)
    _checked_integral(ones, 0.0 * ones, pipe.emesh, 1.0, 0.5)
    for values, q in ((ones * np.nan, 0.0 * ones), (ones, ones * np.nan)):
        with pytest.raises(TailError):
            _checked_integral(values, q, pipe.emesh, 1.0, 0.5)
