"""The constructive bridge between the nonlocal and local problems.

Core constructions:

* the vertical integral ``v(x') = int_0^inf t**(1-2s) u(x', t) dt`` of an
  extension field, as the sum ``sum_j nu_j u_j`` with the level weights
  ``nu`` the extension is assembled with (exact weighted cell measures, no
  singular sampling at t = 0);
* the duality transform ``u2 = t**(2s-1) d_t u1`` mapping solutions of the
  (2s-1)-weight Neumann problem to solutions of the (1-2s)-weight Dirichlet
  problem;
* verification that v solves the tangential conductivity equation (weak
  residual against the nodal test basis), with zero right-hand side inside
  the interior region or with the spectral fractional operator of the trace
  data as the source elsewhere;
* the Cauchy-data operator T: f -> (v at the region boundary, conormal flux
  of v there);
* a least-squares density diagnostic for boundary traces of the v's, and a
  coefficient-distinguishability experiment for the two measurement maps.

Discrete identity behind the truncation check and the residual reports:
column-summing the assembled extension equations gives, exactly,

    (K' v)_i = -m_i * trace_i - m_i * q_i,

with ``q_i`` the flux the pinned top draws through the top cell.  So the
weak residual of v is the trace-versus-oracle mismatch plus that top flux,
which decays exponentially in the truncation height; ``vertical_integral``
reads the flux off the field and refuses a truncation where it is not small.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coefficients import Coefficient, identity_coefficient, w_bump
from .errors import ParamError, RankWarning, TailError
from .extension import (
    ExtensionField,
    ExtensionSolver,
    _fixed_layout,
    analytic_cs,
    assemble_extension,
)
from .local_elliptic import (
    LocalOperator,
    _assemble,
    assemble_local,
    boundary_flux,
    local_dtn_matrix,
)
from .mesh import (
    TangentialGrid,
    VerticalMesh,
    build_extension_mesh,
    build_vertical_mesh,
    default_height,
)

__all__ = [
    "VerticalIntegralField",
    "CauchyPair",
    "vertical_integral",
    "duality_transform",
    "DualityReport",
    "verify_local_equation",
    "ResidualReport",
    "BridgePipeline",
    "operator_T",
    "density_diagnostic",
    "DensityReport",
    "distinguishability_experiment",
    "GapReport",
]


@dataclass
class VerticalIntegralField:
    """Column-wise weighted vertical integral of an extension field.

    ``tail_bound`` is the truncation defect: the largest flux through the
    top cell over the smallest eigenvalue of the tangential operator (see
    ``_checked_integral``).
    """

    values: np.ndarray
    s: float
    tail_bound: float


# largest admissible truncation defect, as a fraction of the integral's sup
TAIL_FRACTION = 0.01


def vertical_integral(field: ExtensionField) -> VerticalIntegralField:
    """Full weighted vertical integral with a truncation check.

    ``v = sum_j nu_j u_j`` per tangential node, with ``nu`` the vertical
    mesh's level weights, the sum the extension's stiffness and the module's
    identity are built from.  The pinned top draws the flux
    ``q_i = u_{i,J-1} / r_{J-1}`` per tangential node (``r`` the cell
    resistances), and by the module's identity that flux is the source the
    truncation adds to v's equation; ``_checked_integral`` sizes its effect
    and refuses a truncation where it is not small.  The coefficient's
    smallest entry enters that bound, 1 when the field carries no system.
    """
    vm = field.emesh.vertical
    cols = field.as_columns()
    a_min = 1.0 if field.system is None else field.system.coeff.lam_min
    return _checked_integral(cols @ vm.level_weights(),
                             cols[:, -2] / vm.cell_resistances()[-1],
                             field.emesh, _lambda_lo(field.emesh.grid, a_min), field.s)


def _lambda_lo(grid: TangentialGrid, a_min: float) -> float:
    """``a_min * sum_k (4 / h_k**2) sin**2(pi / (2 (n_k - 1)))``: the
    smallest eigenvalue of the operator on the active nodes for
    ``a = a_min * Id``, so ``||A**-1||_2 <= 1 / lambda_lo`` for the operator
    A of v's equation when ``a_min`` is the coefficient's smallest entry."""
    n = np.asarray(grid.shape)
    return a_min * float(np.sum(4.0 / grid.h**2 * np.sin(np.pi / (2 * (n - 1))) ** 2))


def _checked_integral(values: np.ndarray, q: np.ndarray, emesh, lam_lo: float,
                      s: float) -> VerticalIntegralField:
    """The vertical integral ``values`` with its truncation check.

    ``q`` is the flux through the top cell per tangential node.
    ``tail_bound = max|q| / lam_lo`` sizes its effect on v, ``lam_lo`` the
    bound ``_lambda_lo`` of the coefficient's smallest entry.

    Raises TailError when ``tail_bound`` exceeds TAIL_FRACTION of the
    integral's sup norm, or either is not a number.  A field that is not
    zero at the top (a constant one, whose weighted integral diverges) is
    charged the same flux and trips this.
    """
    tail = float(np.max(np.abs(q))) / lam_lo
    ref = float(np.max(np.abs(values)))
    if not tail <= TAIL_FRACTION * ref:
        raise TailError(
            f"truncation defect {tail:.3g} (top flux over the smallest "
            f"eigenvalue) at truncation height {emesh.vertical.height:.4g} exceeds "
            f"{TAIL_FRACTION:.1%} of the integral's sup norm {ref:.3g}; a larger "
            f"'height' in the config raises the cut and lowers it"
        )
    return VerticalIntegralField(values=values, s=s, tail_bound=tail)


@dataclass
class DualityReport:
    bulk_residual: float
    trace: np.ndarray


def duality_transform(u1: ExtensionField, coeff: Coefficient):
    """Map a solution of the dual-weight Neumann problem to the primal weight.

    ``u1`` must live on a mesh built for order 1 - s (weight exponent 2s-1).
    The vertical derivative is taken in flux form: per cell,
    ``(u1[j+1] - u1[j]) / int_cell t**(1-2s) dt`` is the exact weighted
    derivative of the scheme, and level values average the two adjacent cell
    fluxes (one-sided at the ends).  On the explicit power solution
    ``t**(2-2s)/(2-2s)`` this is exact.

    Returns the transformed field, on the mesh of order s with the same
    height, levels and grading, together with a report carrying its bulk
    residual in the primal-weight operator (over the rows an all-Dirichlet
    extension solve leaves free) and its trace row.
    """
    s = 1.0 - u1.s
    vm1 = u1.emesh.vertical
    vm = VerticalMesh(s=s, height=vm1.height, grading=vm1.grading, levels=vm1.levels)
    target_mesh = build_extension_mesh(u1.emesh.grid, vm)
    cols = u1.as_columns()
    flux = (cols[:, 1:] - cols[:, :-1]) / vm1.cell_resistances()[None, :]
    J = vm1.num_levels
    u2 = np.empty_like(cols)
    u2[:, 0] = flux[:, 0]
    u2[:, J] = flux[:, -1]
    u2[:, 1:J] = 0.5 * (flux[:, :-1] + flux[:, 1:])
    out = ExtensionField(
        emesh=target_mesh, values=u2.ravel(), s=s,
        system=assemble_extension(target_mesh, coeff),
    )
    # bulk residual over the free interior rows, Jacobi-normalized so that
    # constants (zero-energy fields) still get a meaningful relative scale
    S = out.system.stiffness
    free = ~_fixed_layout(target_mesh, "dirichlet")
    r = (S @ out.values)[free]
    d = S.diagonal()[free]
    scale = float(np.sum(S.diagonal() * out.values**2))
    resid = float(np.sqrt(np.sum(r**2 / d))) / max(np.sqrt(scale), 1e-300)
    return out, DualityReport(bulk_residual=resid, trace=u2[:, 0].copy())


@dataclass
class ResidualReport:
    """Weak residual of a tangential field against the nodal test basis."""

    normalized: float
    per_node: np.ndarray
    test_indices: np.ndarray
    field_norm: float


def verify_local_equation(
    v: np.ndarray,
    op: LocalOperator,
    rhs: np.ndarray,
    region: str = "omega",
) -> ResidualReport:
    """Check that v weakly solves the conductivity equation with source rhs.

    For each nodal hat ``phi_i`` in the region, the residual
    ``<a grad v, grad phi_i> - <rhs, phi_i>`` is normalized by the H1 norm
    of the hat; the summary value is the sup, further normalized by the H1
    norm of v.  ``region="omega"`` tests inside the interior region (the
    zero-source statement); ``region="active"`` tests over the whole box
    interior (the sourced statement).
    """
    grid = op.grid
    if region == "omega":
        test = np.flatnonzero(grid.omega_interior)
    elif region == "active":
        test = np.flatnonzero(grid.active)
    else:
        raise ParamError(f"unknown region {region!r}")
    vol = grid.node_volume
    r = (op.stiffness[test] @ v) - vol * np.asarray(rhs, dtype=float)[test]
    phi_h1 = np.sqrt(vol * (2.0 * np.sum(1.0 / grid.h**2) + 1.0))
    per_node = np.abs(r) / phi_h1
    K_I = _assemble(grid, identity_coefficient(grid))
    v_norm = float(np.sqrt(v @ (K_I @ v) + vol * np.sum(v**2)))
    normalized = float(np.max(per_node)) / max(v_norm, 1e-300)
    return ResidualReport(
        normalized=normalized, per_node=per_node, test_indices=test, field_norm=v_norm
    )


@dataclass
class CauchyPair:
    """Boundary values and conormal flux of the bridged local solution."""

    boundary_values: np.ndarray
    boundary_flux: np.ndarray


class BridgePipeline:
    """Shared state for repeated runs of the full bridge at fixed geometry.

    Holds the assembled local operator, the factorized mixed extension
    solver and the vertical mesh; every per-datum operation (extension,
    vertical integral, Cauchy pair) reuses them, and ``extensions`` solves a
    block of data at once.  All methods are pure in the data argument, so
    concurrent use on a built pipeline is safe.
    """

    def __init__(
        self,
        grid: TangentialGrid,
        coeff: Coefficient,
        s: float,
        levels: int = 64,
        height: float | None = None,
        grading: float | None = None,
    ):
        self.grid = grid
        self.coeff = coeff
        self.s = float(s)
        if height is None:
            height = default_height(grid)
        vm = build_vertical_mesh(s, height, levels, grading)
        self.emesh = build_extension_mesh(grid, vm)
        self.local_op = assemble_local(grid, coeff)
        self.solver = ExtensionSolver(self.emesh, coeff)
        self.cs = analytic_cs(s)

    def _exterior(self, f: np.ndarray) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if np.any(f[~self.grid.exterior]):
            raise ParamError("data must be supported on the exterior region")
        return f

    def extension(self, f: np.ndarray) -> ExtensionField:
        return self.solver.solve(self._exterior(f))

    def extensions(self, F: np.ndarray) -> list[ExtensionField]:
        """Extensions of the columns of F, shape (N_tan, k), from one block
        solve."""
        U = self.solver.solve_block(self._exterior(F))
        return [self.solver._field(u) for u in np.ascontiguousarray(U.T)]

    def bridge_solution(self, f: np.ndarray) -> np.ndarray:
        return vertical_integral(self.extension(f)).values

    def cauchy_pair(self, f: np.ndarray) -> CauchyPair:
        return self._field_pair(self.extension(f))

    def _field_pair(self, fld: ExtensionField) -> CauchyPair:
        """Cauchy pair of an extension field: its vertical integral v (with
        the truncation check), restricted to the boundary, and v's conormal
        flux."""
        v = vertical_integral(fld).values
        return CauchyPair(boundary_values=v[self.grid.boundary_indices],
                          boundary_flux=boundary_flux(self.local_op, v))


def operator_T(pipeline: BridgePipeline, f: np.ndarray) -> CauchyPair:
    """Cauchy-data operator: exterior datum -> (v, conormal flux of v) on the
    interior-region boundary.  Linear in f; (0, 0) at f = 0."""
    return pipeline.cauchy_pair(f)


# singular values of the weighted bridge traces below this fraction of the
# largest are rounding: the report's numerical rank leaves them out, and
# density_diagnostic warns when that rank is below the number of traces
_RANK_RTOL = 1e-10


@dataclass
class DensityReport:
    """Least-squares distances from targets to nested spans of bridge traces.

    ``distances[t, k]`` is the distance (in the discrete H^{1/2} proxy norm)
    from target t to the span of the first k+1 traces; no rate is asserted.
    Past ``numerical_rank`` traces the distances are rounding.
    """

    distances: np.ndarray
    target_norms: np.ndarray
    singular_values: np.ndarray

    @property
    def numerical_rank(self) -> int:
        """Count of the weighted traces' singular values at least
        _RANK_RTOL times the largest; below the number of traces, a
        RankWarning is raised."""
        sv = self.singular_values
        return int(np.count_nonzero(sv >= _RANK_RTOL * sv.max())) if sv.size else 0


def h_half_gram(grid: TangentialGrid) -> np.ndarray:
    """Discrete H^{1/2} proxy Gram on the boundary: <(I + DtN_I) g, g>.

    Built from the identity-coefficient boundary map, a first-order boundary
    operator, so the form is spectrally equivalent to the H^{1/2} pairing.
    """
    ident = identity_coefficient(grid)
    dtn = local_dtn_matrix(assemble_local(grid, ident))
    G = np.diag(dtn.weights) + dtn.schur()
    return 0.5 * (G + G.T)


def density_diagnostic(
    pipeline: BridgePipeline,
    targets,
    basis,
) -> DensityReport:
    """Distances from boundary targets to spans of bridged traces.

    ``basis`` is a list of exterior data arrays (must be linearly
    independent on the measurement nodes); ``targets`` is a list of arrays
    over the boundary nodes.  Warns with RankWarning when the traces'
    numerical rank is below their number, as it always is with more traces
    than boundary nodes.
    """
    basis = list(basis)
    targets = list(targets)
    B = np.column_stack([
        pipeline._field_pair(fld).boundary_values
        for fld in pipeline.extensions(np.column_stack(basis))
    ])
    G = h_half_gram(pipeline.grid)
    L = np.linalg.cholesky(G)
    Bw = L.T @ B
    sv = np.linalg.svd(Bw, compute_uv=False)
    # progressive orthogonalization: residuals of the targets shrink as each
    # new direction is subtracted, so distances are nonincreasing in k by
    # construction even when the traces are nearly dependent
    R = np.column_stack([L.T @ np.asarray(g, dtype=float) for g in targets])
    norms = np.linalg.norm(R, axis=0)
    scale = np.linalg.norm(Bw, axis=0).max() if basis else 0.0
    dists = np.zeros((len(targets), len(basis)))
    Q: list[np.ndarray] = []
    for k in range(len(basis)):
        q = Bw[:, k].copy()
        for _ in range(2):  # one re-orthogonalization pass for stability
            for qq in Q:
                q -= qq * (qq @ q)
        nq = np.linalg.norm(q)
        if nq > 1e-13 * max(scale, 1e-300):
            q /= nq
            Q.append(q)
            R = R - np.outer(q, q @ R)
        dists[:, k] = np.linalg.norm(R, axis=0)
    report = DensityReport(distances=dists, target_norms=norms, singular_values=sv)
    if report.numerical_rank < len(basis):
        warnings.warn(
            "bridge traces are numerically rank deficient", RankWarning
        )
    return report


@dataclass
class GapReport:
    """Operator-norm gaps between the measurement maps of two coefficients."""

    local_gap: float
    local_scale: float
    nonlocal_gap: float
    nonlocal_scale: float
    t_gap: float
    t_scale: float


def _weighted_specnorm(D: np.ndarray, w: np.ndarray) -> float:
    sw = np.sqrt(w)
    return float(np.max(np.abs(np.linalg.eigvalsh(sw[:, None] * D * (1 / sw)[None, :]))))


def distinguishability_experiment(
    grid: TangentialGrid,
    a1: Coefficient,
    a2: Coefficient,
    s: float,
    levels: int = 48,
    height: float | None = None,
) -> GapReport:
    """Gaps between the local and nonlocal measurement maps of two
    coefficients, plus the discrepancy of the full bridge pipeline on a
    bump datum spanning the measurement region.

    A nonzero interior perturbation must show up in both maps; identical
    coefficients give gaps at rounding level.
    """
    from .fractional_core import nonlocal_dtn_matrix, spectral_power

    op1 = assemble_local(grid, a1)
    op2 = assemble_local(grid, a2)
    d1 = local_dtn_matrix(op1)
    d2 = local_dtn_matrix(op2)
    local_gap = _weighted_specnorm(d1.matrix - d2.matrix, d1.weights)
    local_scale = _weighted_specnorm(d1.matrix, d1.weights)

    n1 = nonlocal_dtn_matrix(spectral_power(op1, s))
    n2 = nonlocal_dtn_matrix(spectral_power(op2, s))
    sym1 = 0.5 * (n1.matrix + n1.matrix.T)
    sym2 = 0.5 * (n2.matrix + n2.matrix.T)
    nonlocal_gap = float(np.max(np.abs(np.linalg.eigvalsh(sym1 - sym2))))
    nonlocal_scale = float(np.max(np.abs(np.linalg.eigvalsh(sym1))))

    test_f = w_bump(grid)
    p1 = BridgePipeline(grid, a1, s, levels=levels, height=height)
    p2 = BridgePipeline(grid, a2, s, levels=levels, height=height)
    c1 = p1.cauchy_pair(test_f)
    c2 = p2.cauchy_pair(test_f)
    wb = op1.boundary_weights

    def pair_norm(c):
        return float(
            np.sqrt(
                np.sum(wb * c.boundary_values**2) + np.sum(wb * c.boundary_flux**2)
            )
        )

    diff = CauchyPair(
        boundary_values=c1.boundary_values - c2.boundary_values,
        boundary_flux=c1.boundary_flux - c2.boundary_flux,
    )
    return GapReport(
        local_gap=local_gap,
        local_scale=local_scale,
        nonlocal_gap=nonlocal_gap,
        nonlocal_scale=nonlocal_scale,
        t_gap=pair_norm(diff),
        t_scale=pair_norm(c1),
    )
