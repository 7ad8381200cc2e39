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
positive definite, so the minimizer is unique.

The snapshots are kept with the data operator and serve the reconstruction
too: the mixed solve of a minimizer's trace is, by linearity, the same
combination of snapshot fields, so a reconstruction costs a matrix-vector
product and the solver's residual check instead of a fresh solve.

Convention: the second data component is the raw weighted trace
``lim t**(1-2s) d_t u``.  Measurements given as values of the fractional
operator convert through ``t = -values / c_s``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bridge import BridgePipeline
from .errors import MeshMismatch, ParamError, RankError, SolveError
from .extension import _CHUNK, _tensor_stiffness, _weighted_trace
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


def _exterior_energy_matrix(pipeline: BridgePipeline) -> sp.csr_matrix:
    """Weighted gradient form restricted to the exterior half-slab.

    Tangential faces keep only pairs of exterior nodes; vertical fluxes keep
    only exterior columns.  This is the penalty quadratic form of J_alpha.
    """
    grid = pipeline.grid
    ext = grid.exterior

    def face_filter(k, i, j):
        return (ext[i] & ext[j]).astype(float)

    K_ext = _assemble(grid, pipeline.coeff, face_filter)
    return _tensor_stiffness(K_ext, pipeline.emesh.vertical, grid.node_volume, ext)


@dataclass
class DataOperator:
    """Snapshot basis with its data map and penalty Gram matrices.

    ``trace_matrix[i, k]`` and ``ntrace_matrix[i, k]`` hold the trace and
    weighted Neumann trace of basis field k at measurement node i; ``G_A``
    and ``G_E`` are the data and penalty Grams in the coefficient basis.
    """

    pipeline: BridgePipeline
    eps: float
    fields: np.ndarray  # (num extension nodes, basis size)
    trace_matrix: np.ndarray
    ntrace_matrix: np.ndarray
    N_plus: np.ndarray
    N_minus: np.ndarray
    G_A: np.ndarray
    G_E: np.ndarray

    @property
    def basis_size(self) -> int:
        return self.fields.shape[1]

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
    numerically rank deficient beyond ``rank_tol`` (the mesh is too coarse
    to separate the snapshots).
    """
    s = pipeline.s
    if eps is None:
        eps = s / 4.0
    if not 0.0 < eps < s:
        raise ParamError(f"eps must lie in (0, s) = (0, {s}), got {eps}")
    ext_diag = pipeline.coeff.diag[pipeline.grid.exterior]
    if not np.allclose(ext_diag, 1.0, atol=1e-12):
        raise ParamError(
            "the data operator requires the coefficient to be the identity "
            "on the exterior region"
        )
    grid = pipeline.grid
    widx = grid.w_indices
    K = len(widx)
    spikes = np.zeros((grid.num_nodes, K))
    spikes[widx, np.arange(K)] = 1.0
    # column-major (every reconstruction combines the columns, and that
    # product streams a column-major matrix a third faster); the sparse
    # products below go _CHUNK columns at a time, so no full-size copy is made
    fields = pipeline.solver.solve_block(spikes)
    traces = fields[pipeline.emesh.trace_indices()[widx]]
    S_ext = _exterior_energy_matrix(pipeline)
    ntraces = np.empty((K, K))
    G_E = np.empty((K, K))
    for c0 in range(0, K, _CHUNK):
        U = fields[:, c0:c0 + _CHUNK]
        ntraces[:, c0:c0 + _CHUNK] = _weighted_trace(pipeline.solver.system, U, widx)
        G_E[:, c0:c0 + _CHUNK] = fields.T @ (S_ext @ U)
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
    return DataOperator(
        pipeline=pipeline,
        eps=eps,
        fields=fields,
        trace_matrix=traces,
        ntrace_matrix=ntraces,
        N_plus=N_plus,
        N_minus=N_minus,
        G_A=G_A,
        G_E=G_E,
    )


@dataclass
class TikhonovSolution:
    """Minimizer of J_alpha in the snapshot basis."""

    coeffs: np.ndarray
    alpha: float
    misfit: float
    penalty: float


def minimize(Aop: DataOperator, data, alpha: float) -> TikhonovSolution:
    """Unique minimizer of J_alpha through the normal equations.

    ``data = (f, t)`` are the trace and raw weighted-trace values on the
    measurement nodes.  The normal-equation residual is checked to 1e-10
    relative.
    """
    if alpha <= 0:
        raise ParamError(f"alpha must be positive, got {alpha}")
    M = alpha * Aop.G_E + Aop.G_A
    rhs = Aop.adjoint_data(data)
    try:
        c = np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"normal equations failed: {exc}") from exc
    scale = np.linalg.norm(rhs)
    if scale > 0 and np.linalg.norm(M @ c - rhs) > 1e-10 * scale:
        c, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        if np.linalg.norm(M @ c - rhs) > 1e-8 * scale:
            raise SolveError("normal-equation residual exceeds tolerance")
    return TikhonovSolution(
        coeffs=c,
        alpha=float(alpha),
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
    if np.any(alphas <= 0):
        raise ParamError("alpha schedule must be positive")
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

    ``f_w`` and ``lambda_s_f`` are nodal arrays on the measurement region;
    the second is in the fractional-operator convention and is converted to
    a raw weighted trace with the pinned constant.  The minimizer's trace
    ``f_hat`` is re-extended through the full mixed problem (gluing the
    exterior field to the interior): the snapshot fields are mixed solves of
    the unit data, so by linearity that solve is the combination
    ``Aop.fields @ coeffs``, and it is checked like a solve (relative
    free-row residual at most 1e-8, else SolveError).  The field is then
    averaged vertically, with the truncation-tail check, and restricted to
    the boundary, as ``operator_T`` does.  Raises MeshMismatch when ``Aop``
    was built for another pipeline, whose solver its fields belong to.

    Data generated by the same forward pipeline makes this an inverse crime;
    use the fine-data generation path when that matters.
    """
    if Aop.pipeline is not pipeline:
        raise MeshMismatch(
            "the data operator was built for a different pipeline; its "
            "snapshot fields belong to that pipeline's solver"
        )
    t = -np.asarray(lambda_s_f, dtype=float) / pipeline.cs
    sol = minimize(Aop, (np.asarray(f_w, dtype=float), t), alpha)
    f_hat = np.zeros(pipeline.grid.num_nodes)
    f_hat[pipeline.grid.w_indices] = sol.coeffs
    fld = pipeline.solver.checked_field(Aop.fields @ sol.coeffs, f_hat)
    pair = pipeline._field_pair(fld, provenance=f"tikhonov(alpha={alpha:g})")
    return pair, sol
