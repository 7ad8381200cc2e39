"""Tikhonov recovery of exterior extension fields from measurement data.

The admissible set is spanned by per-node snapshot fields: for every node of
the measurement region, the mixed extension problem is solved with a unit
Dirichlet spike there (and zero elsewhere on the exterior trace), all of them
in one block solve.  Restricted
to the exterior half-slab these snapshots satisfy the weighted bulk equation
with trace supported in the closed measurement region, so their span is a
finite-dimensional surrogate for the constraint set; by construction the
trace of a combination on the measurement nodes equals its coefficient
vector.  This snapshot surrogate is the module's central design commitment:
the continuum constraint set is infinite dimensional and admits no canonical
discretization.

The data operator A sends a field to (trace, weighted Neumann trace) on the
measurement region, measured in fractional Sobolev proxy norms of orders
s - eps and -(s + eps) built from spectral powers of (I - Laplacian) with
zero Dirichlet truncation on the region.  The functional

    J_alpha(u) = || A u - data ||^2  +  alpha * || t^{(1-2s)/2} grad u ||^2

is minimized exactly through its normal equations
``(alpha G_E + G_A) c = A* data``; for alpha > 0 the matrix is symmetric
positive definite, so the minimizer is unique.  The data operator holds the
Cholesky factor of that matrix for the last alpha it was asked for, so
repeated reconstructions at one alpha factor once and a sweep once per
alpha; the Grams and the held factor are read-only, so it cannot go stale.

The snapshots serve the reconstruction too: the mixed solve of a
minimizer's trace is, by linearity, the same combination of snapshot fields,
and a reconstruction reads only that combination's vertical integral, its
flux through the top cell, its residual and its Cauchy pair.  So the build
reduces each snapshot to its tangential images (integral and top flux,
N_tan values each), its boundary images (the integral's boundary values and
conormal flux, one value per boundary node each) and its free-row residual
norm, and keeps no field: a reconstruction is a Cholesky solve of size K
and four products with K columns (the two tangential images for the
bridge's truncation check, the two boundary images for the pair) beside a
bounded residual check, with no extension solve.

The build keeps no snapshot block either.  ``ExtensionSolver.solve_chunks``
yields the snapshots _CHUNK at a time, with the free-row residual norms rho
the solve measured and checked on them, and each chunk is reduced as it
arrives: its traces and ``S[tw] U`` at the measurement trace rows tw, its
images, its norms, and its values and ``S_ext U`` on the ring I (the
exterior nodes with a stiffness neighbour off the exterior, on every
level).  The penalty Gram then follows from the discrete Green identity

    G_E = U_F^T (S U)_F + U_I^T (S_ext U)_I

(symmetrized).  The penalty form S_ext is the weighted gradient form
restricted to the exterior half-slab: tangential faces between two exterior
nodes and vertical fluxes in exterior columns only.  Off I an exterior row
of S_ext is the row of S, and the fields vanish on the frame and top and
equal their data on the trace, so of the other exterior rows only F (the
rows of tw not in I) and the free rows carry a term.  On the free rows S U
is the solve's residual; that dropped term is at most ``||U_i|| rho_j`` in
entry (i, j), with rho_j within 1e-8 of column j's load by the solve's
check.

Convention: the second data component is the raw weighted trace
``lim t**(1-2s) d_t u``.  Measurements given as values of the fractional
operator convert through ``t = -values / c_s``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from .bridge import BridgePipeline, CauchyPair, _checked_integral, _lambda_lo
from .errors import MeshMismatch, ParamError, RankError, SolveError
from .fractional_core import _eigh_clipped, _reconstruct
from .local_elliptic import _assemble
from .coefficients import identity_coefficient

__all__ = [
    "DataOperator",
    "TikhonovSolution",
    "build_data_operator",
    "minimize",
    "alpha_sweep",
    "SweepReport",
    "optimality_probe",
    "reconstruct_cauchy_from_data",
]


def _fractional_norm_matrices(pipeline: BridgePipeline, eps: float):
    """Quadratic forms for the H^{s-eps} and H^{-s-eps} proxies on the region."""
    grid = pipeline.grid
    widx = grid.w_indices
    ident = identity_coefficient(grid)
    K = _assemble(grid, ident)
    vol = grid.node_volume
    B = np.eye(len(widx)) + K[widx][:, widx].toarray() / vol
    B = 0.5 * (B + B.T)
    s = pipeline.s
    lam, V = _eigh_clipped(B)  # one eigendecomposition serves both powers
    N_plus = vol * _reconstruct(lam, V, s - eps)
    N_minus = vol * _reconstruct(lam, V, -(s + eps))
    return N_plus, N_minus


def _exterior_tangential_form(pipeline: BridgePipeline) -> sp.csr_matrix:
    """The tangential stiffness with only the faces between two exterior
    nodes kept: the tangential part of the penalty form."""
    grid = pipeline.grid
    ext = grid.exterior

    def face_filter(k, i, j):
        return (ext[i] & ext[j]).astype(float)

    return _assemble(grid, pipeline.coeff, face_filter)


def _ring_nodes(pipeline: BridgePipeline) -> np.ndarray:
    """The exterior nodes with a stiffness neighbour off the exterior region:
    on every level, the only exterior rows where the penalty form differs
    from the full stiffness."""
    ext = pipeline.grid.exterior
    K_tan = pipeline.solver.system.tangential
    return np.flatnonzero(ext & (abs(K_tan) @ (~ext).astype(float) > 0))


def _ring_energy_rows(pipeline: BridgePipeline, nodes: np.ndarray) -> sp.csr_matrix:
    """The rows of the penalty form at the exterior nodes ``nodes`` on every
    level (node-major), assembled alone: the filtered tangential form's rows
    times the level weights, plus the vertical two-point operator in each of
    those (exterior) columns."""
    vm = pipeline.emesh.vertical
    m = pipeline.grid.node_volume
    cond = 1.0 / vm.cell_resistances()
    K_vert = sp.diags([-cond, np.append(cond, 0.0) + np.insert(cond, 0, 0.0), -cond],
                      [-1, 0, 1])
    K_ext = _exterior_tangential_form(pipeline)[nodes]
    columns = sp.identity(pipeline.grid.num_nodes, format="csr")[nodes]
    return (sp.kron(K_ext, sp.diags(vm.level_weights()))
            + sp.kron(columns, m * K_vert)).tocsr()


@dataclass
class DataOperator:
    """Snapshot basis reduced to its data map, its tangential images and its
    penalty Gram matrices.

    ``trace_matrix[i, k]`` and ``ntrace_matrix[i, k]`` hold the trace and
    weighted Neumann trace of basis field k at measurement node i; ``G_A``
    and ``G_E`` are the data and penalty Grams in the coefficient basis.
    ``integrals`` and ``top_fluxes`` (N_tan x K) hold each field's
    level-weight vertical integral and its flux through the top cell,
    ``boundary_values`` and ``boundary_fluxes`` (|boundary| x K) that
    integral's values and conormal flux at the interior region's boundary
    nodes (``integrals[boundary]`` and ``boundary_flux`` of each column),
    ``lam_lo`` the truncation check's eigenvalue bound ``_lambda_lo`` of the
    coefficient, ``residual_norms`` (K) each field's free-row residual norm
    ``||(S u_k)[free]||`` as the solve measured it, and ``loads`` the
    free-row loads of the unit data, restricted to the rows they touch.
    G_E is the discrete Green identity's form of ``U^T S_ext U`` (see the
    module docstring): it drops the free-row term, at most
    ``||u_i|| rho_j`` in entry (i, j).  No extension field is kept, during
    the build or after it.

    G_A and G_E are read-only.  ``_normal_equations`` holds one
    ``(alpha, M, cho_factor(M))`` triple, ``M = alpha G_E + G_A``, built on
    the first use of an alpha and replaced when alpha changes; its arrays
    are read-only too.
    """

    pipeline: BridgePipeline
    eps: float
    trace_matrix: np.ndarray
    ntrace_matrix: np.ndarray
    N_plus: np.ndarray
    N_minus: np.ndarray
    G_A: np.ndarray
    G_E: np.ndarray
    integrals: np.ndarray
    top_fluxes: np.ndarray
    residual_norms: np.ndarray
    loads: sp.csr_matrix
    boundary_values: np.ndarray
    boundary_fluxes: np.ndarray
    lam_lo: float
    _normal: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def basis_size(self) -> int:
        return self.trace_matrix.shape[1]

    def _normal_equations(self, alpha: float):
        """``(M, cho_factor(M))`` for ``M = alpha G_E + G_A``: the held pair
        when alpha is the last one asked for, else a new one that replaces
        it.  M is SPD for alpha > 0 (module docstring), so a failed Cholesky
        factorization raises SolveError."""
        # concurrent callers at different alphas may each factor; each
        # solves with the triple it read or built
        held = self._normal
        if held is None or held[0] != alpha:
            M = alpha * self.G_E + self.G_A
            try:
                factor = cho_factor(M)
            except np.linalg.LinAlgError as exc:
                raise SolveError(f"normal matrix at alpha = {alpha:g} is not "
                                 f"positive definite: {exc}") from exc
            M.flags.writeable = False
            factor[0].flags.writeable = False
            held = self._normal = (alpha, M, factor)
        return held[1], held[2]

    def apply(self, coeffs: np.ndarray):
        """A applied to a coefficient vector: (trace, weighted trace) on W."""
        c = np.asarray(coeffs, dtype=float)
        return self.trace_matrix @ c, self.ntrace_matrix @ c

    def misfit(self, coeffs: np.ndarray, data) -> float:
        tr, nt = self.apply(coeffs)
        df = tr - data[0]
        dt = nt - data[1]
        return float(df @ (self.N_plus @ df) + dt @ (self.N_minus @ dt))

    def penalty(self, coeffs: np.ndarray) -> float:
        c = np.asarray(coeffs, dtype=float)
        return float(c @ (self.G_E @ c))

    def functional(self, coeffs: np.ndarray, data, alpha: float) -> float:
        return self.misfit(coeffs, data) + alpha * self.penalty(coeffs)

    def adjoint_data(self, data) -> np.ndarray:
        return self.trace_matrix.T @ (self.N_plus @ data[0]) + (
            self.ntrace_matrix.T @ (self.N_minus @ data[1])
        )


def build_data_operator(
    pipeline: BridgePipeline, eps: float | None = None, rank_tol: float = 1e-10
) -> DataOperator:
    """Snapshot basis, data map and Grams for the pipeline's geometry.

    ``eps`` defaults to s/4.  Raises RankError when the data columns are
    numerically rank deficient beyond ``rank_tol``.  The trace rows are the
    identity by construction (unit Dirichlet data on W read back at the
    trace), so the stacked columns have sigma_min >= 1 and the check fires
    only when the weighted Neumann traces exceed 1/rank_tol in norm: it
    guards a broken solve, not a coarse mesh.
    """
    s = pipeline.s
    if eps is None:
        eps = s / 4.0
    if not 0.0 < eps < s:
        raise ParamError(f"eps must lie in (0, s) = (0, {s}), got {eps}")
    ext_diag = pipeline.coeff.diag[pipeline.grid.exterior]
    if not np.allclose(ext_diag, 1.0, rtol=0.0, atol=1e-12):
        raise ParamError(
            "the data operator requires the coefficient to be the identity "
            "on the exterior region"
        )
    grid = pipeline.grid
    emesh = pipeline.emesh
    solver = pipeline.solver
    vm = emesh.vertical
    widx = grid.w_indices
    tw = emesh.trace_indices()[widx]
    K = len(widx)
    N = grid.num_nodes
    J1 = vm.num_levels + 1
    spikes = np.zeros((N, K))
    spikes[widx, np.arange(K)] = 1.0
    S_w = solver.system.stiffness[tw]
    nodes = _ring_nodes(pipeline)
    ring = (nodes[:, None] * J1 + np.arange(J1)).ravel()
    S_ring = _ring_energy_rows(pipeline, nodes)
    nu = vm.level_weights()
    r_top = vm.cell_resistances()[-1]
    traces = np.empty((K, K))
    S_traces = np.empty((K, K))
    ring_values = np.empty((len(ring), K))
    ring_images = np.empty((len(ring), K))
    integrals = np.empty((N, K))
    top_fluxes = np.empty((N, K))
    residual_norms = np.empty(K)
    # each chunk of snapshots is reduced as it is solved; no field is kept
    for c0, U, rho in solver.solve_chunks(spikes):
        chunk = slice(c0, c0 + U.shape[1])
        traces[:, chunk] = U[tw]
        S_traces[:, chunk] = S_w @ U
        ring_values[:, chunk] = U[ring]
        ring_images[:, chunk] = S_ring @ U
        # (N_tan, J + 1, k), a view: one node's levels per row
        cols = U.reshape(N, J1, -1)
        integrals[:, chunk] = nu @ cols
        top_fluxes[:, chunk] = cols[:, -2] / r_top
        residual_norms[chunk] = rho
    ntraces = -S_traces / grid.node_volume
    # discrete Green identity (module docstring): off the ring the fields'
    # exterior rows are the W trace rows and the free rows, whose term, the
    # checked residual, is dropped
    off_ring = ~np.isin(tw, ring)
    G_E = traces[off_ring].T @ S_traces[off_ring] + ring_values.T @ ring_images
    G_E = 0.5 * (G_E + G_E.T)
    N_plus, N_minus = _fractional_norm_matrices(pipeline, eps)
    G_A = traces.T @ N_plus @ traces + ntraces.T @ N_minus @ ntraces
    G_A = 0.5 * (G_A + G_A.T)
    sv = np.linalg.svd(np.vstack([traces, ntraces]), compute_uv=False)
    if sv.min() < rank_tol * sv.max():
        raise RankError(
            f"data columns are rank deficient (sigma_min/sigma_max = "
            f"{sv.min() / sv.max():.2e}); refine the mesh"
        )
    G_A.flags.writeable = False
    G_E.flags.writeable = False
    op = pipeline.local_op
    return DataOperator(
        pipeline=pipeline,
        eps=eps,
        trace_matrix=traces,
        ntrace_matrix=ntraces,
        N_plus=N_plus,
        N_minus=N_minus,
        G_A=G_A,
        G_E=G_E,
        integrals=integrals,
        top_fluxes=top_fluxes,
        residual_norms=residual_norms,
        loads=solver._load_columns(np.searchsorted(solver._data_nodes, widx)),
        boundary_values=integrals[grid.boundary_indices],
        boundary_fluxes=(op.boundary_rows @ integrals) / op.boundary_weights[:, None],
        lam_lo=_lambda_lo(grid, pipeline.coeff.lam_min),
    )


@dataclass
class TikhonovSolution:
    """Minimizer of J_alpha in the snapshot basis."""

    coeffs: np.ndarray
    alpha: float
    misfit: float
    penalty: float


def _measurement(values, K: int, name: str) -> np.ndarray:
    """``values`` as a float array of one finite value per measurement node,
    else ParamError."""
    x = np.asarray(values, dtype=float)
    if x.shape != (K,):
        raise ParamError(f"{name} must hold one value per measurement node, "
                         f"shape ({K},), got shape {x.shape}")
    if not np.isfinite(x).all():
        raise ParamError(f"{name} must be finite")
    return x


def minimize(Aop: DataOperator, data, alpha: float) -> TikhonovSolution:
    """Unique minimizer of J_alpha through the normal equations.

    ``data = (f, t)`` are the trace and raw weighted-trace values on the
    measurement nodes; data of another length or not finite, and an alpha
    that is not positive and finite, raise ParamError.  The system is solved
    with the operator's held Cholesky factor for alpha, and its residual is
    checked to 1e-10 relative (then a least-squares solve to 1e-8, else
    SolveError).
    """
    alpha = float(alpha)
    if not 0.0 < alpha < math.inf:
        raise ParamError(f"alpha must be positive and finite, got {alpha}")
    K = Aop.basis_size
    f, t = data
    data = (_measurement(f, K, "trace data"), _measurement(t, K, "weighted-trace data"))
    M, factor = Aop._normal_equations(alpha)
    rhs = Aop.adjoint_data(data)
    # the data are finite and the factor was checked when it was made; a
    # coefficient vector that is not finite fails the residual check below
    c = cho_solve(factor, rhs, check_finite=False)
    scale = np.linalg.norm(rhs)
    if scale > 0 and not np.linalg.norm(M @ c - rhs) <= 1e-10 * scale:
        c, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if not np.linalg.norm(M @ c - rhs) <= 1e-8 * scale:
            raise SolveError("normal-equation residual exceeds tolerance")
    return TikhonovSolution(
        coeffs=c,
        alpha=alpha,
        misfit=Aop.misfit(c, data),
        penalty=Aop.penalty(c),
    )


@dataclass
class SweepReport:
    alphas: np.ndarray
    misfits: np.ndarray
    penalties: np.ndarray

    @property
    def misfit_nonincreasing(self) -> bool:
        return bool(np.all(np.diff(self.misfits) <= 1e-12 * (1 + self.misfits[:-1])))

    @property
    def penalty_nondecreasing(self) -> bool:
        return bool(
            np.all(np.diff(self.penalties) >= -1e-12 * (1 + self.penalties[:-1]))
        )


def alpha_sweep(Aop: DataOperator, data, alphas) -> SweepReport:
    """Misfit/penalty table along a decreasing schedule.

    Standard monotonicity holds exactly: misfit nonincreasing and penalty
    nondecreasing as alpha decreases.
    """
    alphas = np.asarray(list(alphas), dtype=float)
    if not np.all(np.isfinite(alphas) & (alphas > 0)):
        raise ParamError("alpha schedule must be positive and finite")
    if np.any(np.diff(alphas) >= 0):
        if len(alphas) > 1:
            raise ParamError("alpha schedule must be strictly decreasing")
    sols = [minimize(Aop, data, a) for a in alphas]
    return SweepReport(
        alphas=alphas,
        misfits=np.array([s.misfit for s in sols]),
        penalties=np.array([s.penalty for s in sols]),
    )


def optimality_probe(
    Aop: DataOperator,
    sol: TikhonovSolution,
    data,
    num: int = 100,
    scale: float = 1.0,
    rng=None,
) -> float:
    """Smallest value of J(minimizer + delta) - J(minimizer) over random
    perturbations; strict convexity makes it nonnegative up to rounding."""
    rng = np.random.default_rng(0) if rng is None else rng
    J0 = Aop.functional(sol.coeffs, data, sol.alpha)
    worst = np.inf
    base = np.linalg.norm(sol.coeffs) or 1.0
    for _ in range(num):
        delta = rng.standard_normal(len(sol.coeffs)) * scale * base
        worst = min(worst, Aop.functional(sol.coeffs + delta, data, sol.alpha) - J0)
    return float(worst)


def reconstruct_cauchy_from_data(
    pipeline: BridgePipeline,
    Aop: DataOperator,
    f_w: np.ndarray,
    lambda_s_f: np.ndarray,
    alpha: float,
):
    """Recover the bridged Cauchy pair from measurement data alone.

    ``f_w`` and ``lambda_s_f`` are nodal arrays on the measurement region,
    one finite value per node, else ParamError; the second is in the
    fractional-operator convention and is converted to a raw weighted trace
    with the pinned constant.  The minimizer's trace
    ``f_hat`` is re-extended through the full mixed problem (gluing the
    exterior field to the interior): the snapshot fields are mixed solves of
    the unit data, so by linearity that solve is the combination
    ``u = sum_k c_k u_k`` of them, and only its images are formed.

    The combination is checked like a solve.  Its free-row residual is at
    most ``sum_k |c_k| rho_k`` (``rho`` the snapshots' residual norms), and
    that bound must stay within 1e-8 of the free-row load of ``f_hat``, else
    SolveError; zero data is exempt.  This refuses every combination whose
    own relative residual exceeds 1e-8.  Its vertical integral and top flux
    (``Aop.integrals @ c`` and ``Aop.top_fluxes @ c``) then pass the
    bridge's truncation check, and its Cauchy pair is the combination of
    the snapshots' boundary images, the pair ``operator_T`` reads off the
    integral.  Raises MeshMismatch when ``Aop`` was built for another
    pipeline, whose solver its snapshots belong to.

    Data generated by the same forward pipeline makes this an inverse crime;
    use the fine-data generation path when that matters.
    """
    if Aop.pipeline is not pipeline:
        raise MeshMismatch(
            "the data operator was built for a different pipeline; its "
            "snapshot fields belong to that pipeline's solver"
        )
    K = Aop.basis_size
    f_w = _measurement(f_w, K, "f_w")
    t = -_measurement(lambda_s_f, K, "lambda_s_f") / pipeline.cs
    sol = minimize(Aop, (f_w, t), alpha)
    c = sol.coeffs
    scale = float(np.linalg.norm(Aop.loads @ c))
    bound = float(np.abs(c) @ Aop.residual_norms)
    if scale > 0 and not bound <= 1e-8 * scale:
        raise SolveError(f"reconstruction residual bound {bound / scale:.2e} "
                         "exceeds tolerance")
    _checked_integral(Aop.integrals @ c, Aop.top_fluxes @ c, pipeline.emesh,
                      Aop.lam_lo, pipeline.s)
    return CauchyPair(boundary_values=Aop.boundary_values @ c,
                      boundary_flux=Aop.boundary_fluxes @ c), sol
