"""Degenerate weighted extension solves and the weighted Neumann trace.

The bulk operator is ``div( t**(1-2s) diag(a(x'), 1) grad )`` on the tensor
mesh (box x graded levels).  Assembly is conservative:

* tangential part: the box stiffness of the conductivity operator, weighted
  per level by the exact hat-lumped measures ``int t**(1-2s) dt``;
* vertical part: two-point fluxes with exact resistances
  ``int t**(2s-1) dt`` per cell, so constants and the layer profile
  ``t**(2s) / (2s)`` are exact discrete solutions and the weight is never
  evaluated at t = 0.

The same assembly covers the dual weight exponent 2s-1: build the vertical
mesh with order 1-s.

Boundary conditions of the production solve: Dirichlet data on the exterior
trace nodes, homogeneous weighted Neumann on the closed interior region's
trace, homogeneous Dirichlet at the top (decay surrogate) and on the lateral
frame (matching the truncation of the spectral route).

Solver.  The stiffness is the Kronecker sum ``K_tan (x) diag(nu) + m I (x)
K_vert`` (tangential stiffness, level weights nu, node volume m, vertical
two-point operator), so on the free levels L the vertical pencil
``K_vert phi = mu diag(nu) phi`` turns a solve into J decoupled shifted
tangential solves ``(K_T + m mu_k) y_k = r_k`` (fast diagonalization), all
factored as one block-diagonal sparse LU.  The pencil is solved by LAPACK
``dpteqr`` on the ``nu**-1/2``-scaled tridiagonal: with the default grading
nu spans up to 19 orders of magnitude, and a dense symmetric eigensolver
loses the small eigenvalues (even their sign) where ``dpteqr`` keeps them to
relative accuracy.  A constrained trace column is first lifted by the exact
profile psi of the vertical operator alone, so the tensor solve only returns
a correction: level 1, whose error the trace extraction multiplies by the
first-cell conductance, then stays accurate to rounding.  The lift cancels
the vertical load exactly, so the right-hand side left on the tensor block
is separable, ``-(K_T d) (x) (nu psi)`` (``-m h (x) e_0`` for a free trace),
and in the eigenbasis an outer product: no forward level transform is made.
The mixed trace closes on its free trace nodes B through the trace map
``Z = Sch^-1 Q`` (capacitance-matrix style, |B| x |data nodes| doubles),
built once from the dense Schur complement
``Sch = nu_0 K_BB + g I - g**2 sum_k phi_k(1)**2 [(K_T + m mu_k)^-1]_BB``,
``g = m / r_0`` the first-cell conductance: a datum's free trace values are
``Z d``, and the tensor block then takes one block solve.  There is one
solve path: a block of data, one datum per column, goes through the tensor
solve _CHUNK columns at a time, one block LU solve per chunk (so do the unit
columns that build Z), which bounds the dense temporaries whatever the
block's width; ``solve`` is its one-column case.  Every column is checked:
its relative residual against the assembled free block must stay below
1e-8, else SolveError.  A field combined from solved fields (a snapshot
basis) passes the same check through ``checked_field``.

Sign conventions.  The weak form gives, for the trace row of a solution,
``(S u)[i, 0] = -m_i * lim t**(1-2s) d_t u``;  the fractional operator of
the trace data is ``-c_s`` times that limit with
``c_s = 2**(2s-1) Gamma(s) / Gamma(1-s) > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, lapack

from .coefficients import Coefficient, identity_coefficient
from .errors import (
    CalibrationError,
    FitError,
    MeshMismatch,
    ParamError,
    SolveError,
)
from .mesh import (
    ExtensionMesh,
    TangentialGrid,
    build_extension_mesh,
    build_tangential_grid,
    build_vertical_mesh,
    default_boxes,
    default_height,
    GeometrySpec,
)

__all__ = [
    "ExtensionSystem",
    "ExtensionField",
    "WeightedTrace",
    "CalibrationConstant",
    "assemble_extension",
    "solve_extension",
    "solve_weighted_neumann",
    "ExtensionSolver",
    "neumann_trace",
    "analytic_cs",
    "calibrate_cs",
    "extend_via_kernel",
    "poisson_kernel_constant",
    "decay_diagnostic",
    "DecayReport",
]


@dataclass
class ExtensionSystem:
    """Assembled weighted stiffness on an extension mesh."""

    emesh: ExtensionMesh
    coeff: Coefficient
    stiffness: sp.csr_matrix

    @property
    def s(self) -> float:
        return self.emesh.vertical.s


def _tensor_stiffness(K_tan: sp.spmatrix, vm, m: float, columns=None) -> sp.csr_matrix:
    """``K_tan (x) diag(nu) + m D (x) K_vert`` on the tangential-major node
    numbering: K_tan weighted per level by the level weights nu, plus the
    two-point vertical operator of conductances ``1 / cell resistance``.
    D is the identity, or the 0/1 diagonal of the boolean mask ``columns``
    (vertical fluxes kept only in those columns)."""
    nu = vm.level_weights()
    cond = 1.0 / vm.cell_resistances()
    K_vert = sp.diags(
        [np.append(cond, 0.0) + np.insert(cond, 0, 0.0), -cond, -cond], [0, 1, -1]
    )
    n = K_tan.shape[0]
    if columns is None:
        D = sp.identity(n, format="csr")
    else:
        keep = np.flatnonzero(columns)
        D = sp.csr_matrix((np.ones(len(keep)), (keep, keep)), shape=(n, n))
    return (sp.kron(K_tan, sp.diags(nu)) + sp.kron(D, m * K_vert)).tocsr()


def assemble_extension(emesh: ExtensionMesh, coeff: Coefficient) -> ExtensionSystem:
    if coeff.grid is not emesh.grid:
        raise MeshMismatch("coefficient was built for a different grid")
    from .local_elliptic import _assemble  # tangential stiffness, same stencil

    S = _tensor_stiffness(_assemble(emesh.grid, coeff), emesh.vertical,
                          emesh.grid.node_volume)
    return ExtensionSystem(emesh=emesh, coeff=coeff, stiffness=S)


@dataclass
class ExtensionField:
    """Nodal values on an extension mesh, with the system that produced them."""

    emesh: ExtensionMesh
    values: np.ndarray
    s: float
    system: ExtensionSystem | None = None

    def level(self, j: int) -> np.ndarray:
        J1 = self.emesh.vertical.num_levels + 1
        return self.values.reshape(self.emesh.grid.num_nodes, J1)[:, j]

    def as_columns(self) -> np.ndarray:
        J1 = self.emesh.vertical.num_levels + 1
        return self.values.reshape(self.emesh.grid.num_nodes, J1)


# columns per block solve (data blocks and the trace Schur complement's unit
# columns); bounds each dense temporary at _CHUNK * |T| * |L| doubles
_CHUNK = 8


def _fixed_layout(emesh: ExtensionMesh, trace: str, top: str = "dirichlet",
                  lateral: str = "dirichlet"):
    """Boolean mask of constrained nodes for a boundary-condition layout.

    ``trace`` is "dirichlet" (the whole trace row is constrained), "mixed"
    (only its exterior nodes) or "free" (weighted Neumann data everywhere).
    """
    grid = emesh.grid
    J = emesh.vertical.num_levels
    fixed = np.zeros(emesh.num_nodes, dtype=bool)
    cols = fixed.reshape(grid.num_nodes, J + 1)
    if top == "dirichlet":
        cols[:, J] = True
    elif top != "neumann":
        raise ParamError(f"unknown top condition {top!r}")
    if lateral == "dirichlet":
        cols[~grid.active, :] = True
    elif lateral != "natural":
        raise ParamError(f"unknown lateral condition {lateral!r}")
    if trace == "dirichlet":
        cols[:, 0] = True
    elif trace == "mixed":
        cols[grid.exterior, 0] = True
    elif trace != "free":
        raise ParamError(f"unknown trace condition {trace!r}")
    return fixed


def _column_norms(a: np.ndarray) -> np.ndarray:
    # einsum skips the squared temporary np.linalg.norm(a, axis=0) makes
    return np.sqrt(np.einsum("ij,ij->j", a, a))


def _vertical_pencil(diag: np.ndarray, off: np.ndarray, nu: np.ndarray, shift: float):
    """Eigenpairs of the tridiagonal pencil ``K phi = mu diag(nu) phi``.

    ``diag`` and ``off`` are the diagonal and off-diagonal of K.  The pencil
    is reduced to the symmetric tridiagonal ``nu**-1/2 K nu**-1/2`` and solved
    by LAPACK ``dpteqr``, which keeps the small eigenvalues to relative
    accuracy although the graded weights span many orders of magnitude (a
    dense symmetric eigensolver loses them).  ``dpteqr`` needs a positive
    definite matrix: a singular K is passed with ``shift > 0``, which is
    added as ``shift * nu`` and taken off the eigenvalues again.  Returns
    ``mu`` and the nu-orthonormal eigenvectors as columns.
    """
    r = 1.0 / np.sqrt(nu)
    d = diag * r * r + shift
    e = off * r[:-1] * r[1:]
    lam, _, z, info = lapack.dpteqr(d, e, np.eye(len(d)), compute_z=2)
    if info != 0:
        raise SolveError(f"vertical eigensolver failed (dpteqr info={info})")
    return lam - shift, z * r[:, None]


class ExtensionSolver:
    """Tensor-structured solver for repeated trace data on one layout.

    ``dirichlet_trace`` picks the trace condition: True constrains the whole
    trace row, False only its exterior nodes (the mixed production layout),
    None leaves it free, and ``solve`` then reads a weighted Neumann datum.

    The free nodes are the tensor product of the tangential set T (active
    nodes, or all nodes under natural lateral conditions) and a run L of
    levels, plus, in the mixed layout, the free trace nodes B.  The vertical
    pencil, the J shifted tangential factorizations and the free-trace map
    are built once; every solve substitutes new data.
    """

    def __init__(
        self,
        emesh: ExtensionMesh,
        coeff: Coefficient,
        dirichlet_trace: bool | None = False,
        top: str = "dirichlet",
        lateral: str = "dirichlet",
    ):
        trace = {True: "dirichlet", False: "mixed", None: "free"}[dirichlet_trace]
        self.emesh = emesh
        self.fixed = _fixed_layout(emesh, trace, top, lateral)
        self.free = ~self.fixed
        # far fewer than the free nodes: clearing rows by index is the cheap way
        self._fixed_rows = np.flatnonzero(self.fixed)
        if trace == "free" and top == "neumann" and lateral == "natural":
            raise SolveError(
                "free trace with top='neumann' and lateral='natural' is "
                "singular (constants solve the homogeneous problem)"
            )
        self.system = assemble_extension(emesh, coeff)
        self._trace = trace
        # a constrained datum enters the right-hand side only through the
        # stiffness columns of its trace nodes, a thin slice of S
        tr = emesh.trace_indices()
        self._data_nodes = np.flatnonzero(self.fixed[tr])
        self._data_cols = self.system.stiffness[:, tr[self._data_nodes]]
        grid = emesh.grid
        vm = emesh.vertical
        J = vm.num_levels
        m = grid.node_volume
        nu = vm.level_weights()
        res = vm.cell_resistances()
        cond = 1.0 / res

        from .local_elliptic import _assemble

        # the mask is the one description of the layout: T is what the frame
        # leaves free (level 1 sees no other condition), L the levels free on
        # all of T, and B the rest of the free trace
        free_cols = self.free.reshape(grid.num_nodes, J + 1)
        self._T = np.flatnonzero(free_cols[:, 1])
        free0 = free_cols[self._T, 0]
        lo = 0 if free0.all() else 1
        hi = J if free_cols[self._T, J].all() else J - 1
        self._L = slice(lo, hi + 1)
        # vertical two-point operator on the free levels; fixed neighbours
        # leave their conductance on the diagonal.  Free at both ends it is
        # singular and gets shifted (only with a Dirichlet frame, see above)
        diag = np.append(cond, 0.0) + np.insert(cond, 0, 0.0)
        shift = 1.0 / vm.height**2 if (lo, hi) == (0, J) else 0.0
        self._mu, self._phi = _vertical_pencil(
            diag[lo:hi + 1], -cond[lo:hi], nu[lo:hi + 1], shift
        )

        K_T = _assemble(grid, coeff)[self._T][:, self._T].tocsc()
        nT, nL = len(self._T), hi + 1 - lo
        blocks = sp.kron(sp.identity(nL, format="csc"), K_T, format="csc")
        blocks = blocks + sp.diags(np.repeat(m * self._mu, nT), format="csc")
        try:
            # SPD blocks: symmetric ordering, no pivoting
            self._lu = spla.splu(
                blocks, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:
            raise SolveError(
                f"shifted tangential factorization failed: {exc}"
            ) from exc

        # a constrained trace column is lifted by the exact profile of the
        # vertical operator alone (1 under a Neumann top), so the tensor solve
        # only computes the correction driven by the tangential stiffness
        self._lift_at = ~free0
        self._lifted = self._T[self._lift_at]
        tail = np.cumsum(res[::-1])[::-1]
        self._psi = np.ones(nL) if hi == J else tail[self._L] / tail[0]
        # what is left of the T x L right-hand side is separable: in the
        # eigenbasis it is the outer product of a level vector with a
        # tangential map of the datum at the nodes _rhs_nodes
        if trace == "free":
            self._rhs_levels = self._phi[0]
            self._rhs_nodes = self._T
            self._rhs_tan = -m * sp.identity(nT, format="csr")
        else:
            self._rhs_levels = -self._phi.T @ (nu[self._L] * self._psi)
            self._rhs_nodes = self._lifted
            self._rhs_tan = K_T[:, self._lift_at].tocsr()
        # the mixed layout's free trace nodes B close through a trace map
        self._B = np.flatnonzero(free0) if lo == 1 else np.zeros(0, dtype=int)
        self._g = m * cond[0]
        if self._B.size:
            self._Z = self._trace_schur(K_T, nu[0])

    def _trace_schur(self, K_T: sp.csc_matrix, nu0: float) -> np.ndarray:
        """The trace map Z, (|B|, |data nodes|): ``Z @ data[_data_nodes]``
        gives the solution on the free trace nodes B.

        Eliminating T x L leaves the trace Schur complement

        ``Sch = nu0 K_BB + g I - g**2 sum_k phi_k(1)**2 [(K_T + m mu_k)^-1]_BB``

        and the right-hand side ``Q d``, where Q holds the stiffness rows of
        the B trace nodes over the data columns, plus ``g H^T`` times the
        tangential map of the separable right-hand side, with
        ``H = sum_k c_k phi_k(1) [(K_T + m mu_k)^-1]_{:,B}`` (c the level
        vector of that right-hand side).  Both sums come from the same unit
        block solves over _CHUNK columns.  Z = Sch^-1 Q; the dense Cholesky
        factor of Sch is used once here and not kept.
        """
        B = self._B
        nL, nT = len(self._phi), len(self._T)
        phi1 = self._phi[0]
        G = np.empty((len(B), len(B)))
        H = np.empty((nT, len(B)))
        for c0 in range(0, len(B), _CHUNK):
            cols = B[c0:c0 + _CHUNK]
            R = np.zeros((nL, nT, len(cols)))
            R[:, cols, np.arange(len(cols))] = phi1[:, None]
            Y = self._lu.solve(R.reshape(nL * nT, -1)).reshape(nL, nT, -1)
            G[:, c0:c0 + len(cols)] = np.tensordot(phi1, Y[:, B], axes=(0, 0))
            H[:, c0:c0 + len(cols)] = np.tensordot(self._rhs_levels, Y, axes=(0, 0))
        g = self._g
        S = nu0 * K_T[B][:, B].toarray() + g * np.eye(len(B)) - g * g * G
        tr = self.emesh.trace_indices()
        Q = -self._data_cols[tr[self._T[B]]].toarray()
        lifted = np.searchsorted(self._data_nodes, self._rhs_nodes)
        Q[:, lifted] += g * (self._rhs_tan.T @ H).T
        try:
            return cho_solve(cho_factor((S + S.T) / 2), Q)
        except np.linalg.LinAlgError as exc:
            raise SolveError(
                f"trace Schur complement is not positive definite: {exc}"
            ) from exc

    def _load(self, data: np.ndarray):
        """Constrained values u and free-row right-hand sides b, both of shape
        (num_nodes, k), for a block of data of shape (N_tan, k)."""
        emesh = self.emesh
        tr = emesh.trace_indices()
        u = np.zeros((emesh.num_nodes, data.shape[1]))
        if self._trace == "free":
            b = np.zeros_like(u)
            b[tr] = -emesh.grid.node_volume * data
        else:
            nodes = self._data_nodes
            u[tr[nodes]] = data[nodes]
            b = self._data_cols @ data[nodes]
            b *= -1.0
        b[self._fixed_rows] = 0.0
        return u, b

    def _check_residual(self, x: np.ndarray, b: np.ndarray) -> None:
        """Raise SolveError unless every column of x solves the free rows.

        The measure is ``||(S x - b)[free]|| / ||b||`` per column.  With the
        field u = u_fixed + x and b = load - S u_fixed on the free rows, that
        is ``||(S u - load)[free]|| / ||(S u_fixed - load)[free]||``, the load
        being zero unless the trace is free.  Columns with b = 0 are exempt.
        """
        scale = _column_norms(b)
        r = self.system.stiffness @ x
        r -= b
        r[self._fixed_rows] = 0.0
        r = _column_norms(r)
        bad = (scale > 0) & ~(r <= 1e-8 * scale)
        if np.any(bad):
            raise SolveError(
                f"extension solve residual {np.max(r[bad] / scale[bad]):.2e} "
                "exceeds tolerance"
            )

    def _field(self, values: np.ndarray) -> ExtensionField:
        return ExtensionField(
            emesh=self.emesh, values=values, s=self.system.s, system=self.system
        )

    def _separable_rhs(self, data: np.ndarray) -> np.ndarray:
        """The T x L right-hand side of lifted data (N_tan, k) in the
        vertical eigenbasis, shape (L, T, k): an outer product, since the
        lift cancels the vertical load."""
        return np.multiply.outer(self._rhs_levels,
                                 self._rhs_tan @ data[self._rhs_nodes])

    def solve_block(self, data: np.ndarray) -> np.ndarray:
        """Solve for a block of data of shape (N_tan, k), one datum per column.

        Returns the nodal values, shape (num_nodes, k), column-major.  The
        columns go through the tensor solve _CHUNK at a time, one block LU
        solve per chunk, and each is checked against the assembled free
        block; a zero column gives a zero field.
        """
        data = np.asarray(data, dtype=float)
        T, L, B, phi = self._T, self._L, self._B, self._phi
        nL, nT = len(phi), len(T)
        out = np.empty((self.emesh.num_nodes, data.shape[1]), order="F")
        for c0 in range(0, data.shape[1], _CHUNK):
            D = data[:, c0:c0 + _CHUNK]
            k = D.shape[1]
            # out takes the constrained values now and the free part below
            out[:, c0:c0 + k], b = self._load(D)
            Y = self._separable_rhs(D)
            if B.size:
                xB = self._Z @ D[self._data_nodes]
                Y[:, B] += np.multiply.outer(self._g * phi[0], xB)
            # rebinding Y frees each dense temporary once it is used
            Y = self._lu.solve(Y.reshape(nL * nT, k))
            Y = (phi @ Y.reshape(nL, nT * k)).reshape(nL, nT, k)
            lift = np.zeros((nT, k))
            lift[self._lift_at] = D[self._lifted]
            Y += np.multiply.outer(self._psi, lift)
            x = np.zeros_like(b)
            cols = x.reshape(self.emesh.grid.num_nodes, -1, k)
            cols[T, L] = Y.transpose(1, 0, 2)
            del Y
            if B.size:
                cols[T[B], 0] = xB
            self._check_residual(x, b)
            out[:, c0:c0 + k] += x
        return out

    def solve(self, data: np.ndarray) -> ExtensionField:
        """Solve for one trace datum (the one-column case of solve_block).

        ``data`` is a full tangential array.  With a constrained trace it
        gives the Dirichlet values, read wherever the trace row is
        constrained (exterior nodes in the mixed layout, all nodes in the
        all-Dirichlet diagnostic layout).  With a free trace it is the
        weighted Neumann datum h; the weak form puts ``-m_i h_i`` on the
        right-hand side of each trace row.
        """
        data = np.asarray(data, dtype=float)
        return self._field(self.solve_block(data[:, None])[:, 0])

    def checked_field(self, values: np.ndarray, data: np.ndarray) -> ExtensionField:
        """The field for datum ``data`` whose free nodes hold ``values``.

        Meant for a combination of solved fields (by linearity it solves the
        same combination of their data): the constrained nodes are set from
        the datum as in ``solve``, and the field must pass the same residual
        check, else SolveError.
        """
        u, b = self._load(np.asarray(data, dtype=float)[:, None])
        x = np.where(self.free, values, 0.0)[:, None]
        self._check_residual(x, b)
        return self._field((u + x)[:, 0])


def solve_extension(
    emesh: ExtensionMesh,
    coeff: Coefficient,
    s: float,
    f: np.ndarray,
    dirichlet_trace: bool = False,
    top: str = "dirichlet",
    lateral: str = "dirichlet",
) -> ExtensionField:
    """One-shot mixed solve; see ExtensionSolver for the reusable form.

    ``f`` is a full tangential array giving the Dirichlet trace data (it must
    vanish off the exterior region in the mixed layout).  Raises MeshMismatch
    when s differs from the order the mesh was graded for.
    """
    if s != emesh.vertical.s:
        raise MeshMismatch(
            f"mesh was built for order {emesh.vertical.s}, got s={s}"
        )
    f = np.asarray(f, dtype=float)
    if not dirichlet_trace:
        bad = np.flatnonzero(f)
        if bad.size and not np.all(emesh.grid.exterior[bad]):
            raise ParamError("trace data must be supported on the exterior region")
    solver = ExtensionSolver(
        emesh, coeff, dirichlet_trace=dirichlet_trace, top=top, lateral=lateral
    )
    return solver.solve(f)


def solve_weighted_neumann(
    emesh: ExtensionMesh,
    coeff: Coefficient,
    h: np.ndarray,
    top: str = "dirichlet",
    lateral: str = "dirichlet",
) -> ExtensionField:
    """Solve the bulk equation with weighted Neumann datum h on the whole trace.

    The trace row is free everywhere; the weak form puts ``-m_i h_i`` on the
    right-hand side of each trace row.  Used for the dual-weight problem
    feeding the duality transform: build ``emesh`` with order 1 - s to get
    the weight exponent 2s - 1.
    """
    solver = ExtensionSolver(
        emesh, coeff, dirichlet_trace=None, top=top, lateral=lateral
    )
    return solver.solve(h)


@dataclass
class WeightedTrace:
    """Weighted normal trace ``lim t**(1-2s) d_t u`` on the tangential grid.

    ``values`` is the variational extraction (trace-row residual over the
    tangential quadrature weight); ``finite_quotient`` is the secondary
    estimator ``2s (u(., y_1) - u(., 0)) / y_1**(2s)``, exact on profiles
    ``c + b t**(2s)`` and reported for cross-checking.
    """

    values: np.ndarray
    finite_quotient: np.ndarray


def _weighted_trace(system: ExtensionSystem, values: np.ndarray,
                    nodes=slice(None)) -> np.ndarray:
    """Variational weighted trace ``-(S u)[trace row] / m`` at the given
    tangential nodes, for one field or a block of fields (one per column)."""
    tr = system.emesh.trace_indices()[nodes]
    return -(system.stiffness[tr] @ values) / system.emesh.grid.node_volume


def neumann_trace(field: ExtensionField) -> WeightedTrace:
    if field.system is None:
        raise ParamError("field carries no assembled system; solve or assemble first")
    emesh = field.emesh
    s = field.s
    values = _weighted_trace(field.system, field.values)
    cols = field.as_columns()
    y1 = emesh.vertical.levels[1]
    fq = 2 * s * (cols[:, 1] - cols[:, 0]) / y1 ** (2 * s)
    return WeightedTrace(values=values, finite_quotient=fq)


def analytic_cs(s: float) -> float:
    """Normalization constant relating the weighted trace to the fractional
    operator: (-L)^s u = -c_s lim t**(1-2s) d_t u, with c_{1/2} = 1."""
    return 2.0 ** (2 * s - 1) * math.gamma(s) / math.gamma(1 - s)


@dataclass
class CalibrationConstant:
    """Pinned trace-normalization constant with its fit diagnostics."""

    value: float
    s: float
    fitted: float
    rel_gap: float

    def __post_init__(self):
        if self.value <= 0:
            raise CalibrationError("normalization constant must be positive")


def calibrate_cs(
    dim: int,
    s: float,
    nodes: int = 64,
    levels: int = 64,
    height: float | None = None,
    grading: float | None = None,
    num_samples: int = 3,
) -> CalibrationConstant:
    """Fit the trace normalization against the spectral route (a = Id).

    Solves the exterior-value problem spectrally and through the extension
    for a few random data on the measurement region (seed 7), then fits c in
    ``c * (-trace) ~ spectral values`` by least squares over the region.
    The analytic candidate is returned; a fitted drift beyond 20% raises
    CalibrationError (that always means a sign or convention bug, not noise).
    """
    from .fractional_core import solve_fractional_dirichlet, spectral_power
    from .local_elliptic import assemble_local

    omega, w = default_boxes(dim)
    grid = build_tangential_grid(
        GeometrySpec(dim=dim, omega_box=omega, w_box=w, nodes=nodes, padding=0.9))
    coeff = identity_coefficient(grid)
    op = assemble_local(grid, coeff)
    P = spectral_power(op, s)
    if height is None:
        height = default_height(grid)
    vm = build_vertical_mesh(s, height, levels, grading)
    emesh = build_extension_mesh(grid, vm)
    solver = ExtensionSolver(emesh, coeff)
    rng = np.random.default_rng(7)
    widx = grid.w_indices
    F = np.zeros((grid.num_nodes, num_samples))
    F[widx] = rng.standard_normal((num_samples, len(widx))).T
    oracle = P.apply(solve_fractional_dirichlet(P, F))[widx]
    tr = _weighted_trace(solver.system, solver.solve_block(F), widx)
    fitted = float(np.sum(-tr * oracle)) / float(np.sum(tr * tr))
    cs = analytic_cs(s)
    rel_gap = abs(fitted - cs) / cs
    if rel_gap > 0.20:
        raise CalibrationError(
            f"fitted constant {fitted:.4g} drifts {rel_gap:.1%} from the "
            f"analytic candidate {cs:.4g}; check sign conventions or the mesh"
        )
    return CalibrationConstant(value=cs, s=s, fitted=fitted, rel_gap=rel_gap)


def poisson_kernel_constant(dim: int, s: float) -> float:
    """Constant making ``C y**(2s) / (|x|^2 + y^2)**(n/2+s)`` a unit-mass kernel."""
    return math.gamma(dim / 2 + s) / (math.pi ** (dim / 2) * math.gamma(s))


def extend_via_kernel(
    grid: TangentialGrid,
    u: np.ndarray,
    s: float,
    y: float,
    points: np.ndarray | None = None,
) -> np.ndarray:
    """Constant-coefficient extension at height y by kernel quadrature.

    The heat-kernel time integral collapses in closed form to the kernel
    ``C y**(2s) / (|x - z|^2 + y^2)**(n/2 + s)`` whose analytic constant
    preserves constants in the continuum.

    ``points`` optionally evaluates off-grid; default is the grid's nodes.
    """
    if y <= 0:
        raise ParamError(f"height must be positive, got {y}")
    u = np.asarray(u, dtype=float)
    src = np.flatnonzero(u)
    pts = grid.points if points is None else np.atleast_2d(points)
    n = grid.dim
    vol = grid.node_volume
    C = poisson_kernel_constant(n, s)
    if src.size == 0:
        return np.zeros(len(pts))
    zs = grid.points[src]
    d2 = np.sum((pts[:, None, :] - zs[None, :, :]) ** 2, axis=2)
    ker = C * y ** (2 * s) / (d2 + y**2) ** (n / 2 + s)
    return (ker @ u[src]) * vol


def _kernel_gradient_sup(grid, u, s, y, pts) -> float:
    """sup over pts of |grad_x of the kernel extension| (analytic gradient)."""
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


@dataclass
class DecayReport:
    """Fitted versus predicted large-height decay slopes (log-log)."""

    heights: np.ndarray
    sup_values: np.ndarray
    grad_values: np.ndarray
    l2_values: np.ndarray
    sup_slope: float
    grad_slope: float
    l2_slope: float
    predicted: dict = field(default_factory=dict)


def _fit_slope(x: np.ndarray, v: np.ndarray) -> float:
    return float(np.polyfit(np.log(x), np.log(v), 1)[0])


def decay_diagnostic(
    grid: TangentialGrid,
    u: np.ndarray,
    s: float,
    heights,
    l2_points: int = 161,
) -> DecayReport:
    """Measure the vertical decay of the constant-coefficient extension.

    Fits log-log slopes of the sup norm, the sup gradient norm, and the L2
    norm of the extension against the height; the L2 norm is a quadrature
    with ``l2_points`` per axis over the cube of half-width 24 y about the
    data centroid.  Predictions (for compactly supported data in L1):
    sup ~ y**(-n), gradient ~ y**(-n-1), and for the L2 norm the
    Young-inequality exponent n/p - n with p = 2, i.e. y**(-n/2).
    """
    heights = np.asarray(sorted(heights), dtype=float)
    u = np.asarray(u, dtype=float)
    src = np.flatnonzero(u)
    if src.size == 0:
        raise ParamError("data field is identically zero")
    pts_src = grid.points[src]
    diam = float(
        np.max(np.linalg.norm(pts_src[:, None, :] - pts_src[None, :, :], axis=2))
    )
    diam = max(diam, float(np.max(grid.h)))
    if len(heights) < 4:
        raise FitError("need at least 4 heights for a slope fit")
    if heights[0] < diam:
        raise FitError(
            f"smallest height {heights[0]:.3g} is below the data diameter "
            f"{diam:.3g}"
        )
    if heights[-1] / heights[0] < 10.0**1.5 * (1 - 1e-9):
        raise FitError("heights must span at least 1.5 decades")

    centroid = pts_src.mean(axis=0)
    n = grid.dim
    # at large heights the extension varies on the tangential scale y, so the
    # sup (of the field and of its gradient) is probed on a cloud of points
    # whose offsets from the data centroid scale with the height
    cloud_axes = [np.linspace(-2.0, 2.0, 9) for _ in range(n)]
    cmesh = np.meshgrid(*cloud_axes, indexing="ij")
    cloud = np.stack([m.ravel() for m in cmesh], axis=1)

    axes = [np.linspace(-24.0, 24.0, l2_points) for _ in range(n)]
    wmesh = np.meshgrid(*axes, indexing="ij")
    wpts = np.stack([m.ravel() for m in wmesh], axis=1)
    dw = np.prod([ax[1] - ax[0] for ax in axes])

    sup_vals, grad_vals, l2_vals = [], [], []
    for y in heights:
        pts = centroid + y * cloud
        vals = extend_via_kernel(grid, u, s, y, points=pts)
        sup_vals.append(float(np.max(np.abs(vals))))
        grad_vals.append(_kernel_gradient_sup(grid, u, s, y, pts))
        scaled = extend_via_kernel(grid, u, s, y, points=centroid + y * wpts)
        l2_vals.append(float(np.sqrt(y**n * np.sum(scaled**2) * dw)))
    sup_vals = np.array(sup_vals)
    grad_vals = np.array(grad_vals)
    l2_vals = np.array(l2_vals)
    return DecayReport(
        heights=heights,
        sup_values=sup_vals,
        grad_values=grad_vals,
        l2_values=l2_vals,
        sup_slope=_fit_slope(heights, sup_vals),
        grad_slope=_fit_slope(heights, grad_vals),
        l2_slope=_fit_slope(heights, l2_vals),
        predicted={"sup": -n, "grad": -(n + 1), "l2": -n / 2},
    )
