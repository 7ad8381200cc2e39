"""Spectral fractional powers of the conductivity operator (reference route).

The operator is defined on the computational box with zero Dirichlet
truncation at the frame: with K the stiffness matrix over the interior
("active") nodes and m = prod(h) the uniform node volume, the operator
matrix is A = K / m and its fractional power is taken through a dense
eigendecomposition, ``A^s = V diag(lambda^s) V^T``.  Repeated eigenvalues
need no tie-breaking: matrix functions are basis independent.

With O the closed interior region and W the measurement nodes, the nonlocal
measurement map is the Schur complement ``A_WW - A_WO A_OO^{-1} A_OW`` of
the power, taken from its (O u W) x (O u W) block and one factorization of
``A_OO``.  The exterior-value solve reads only the O rows of the power.  No
N x N power is formed: a block is ``(V[rows] * lambda^s) @ V[cols].T``, and
the eigenvectors are the route's only N x N array.  ``A_OO`` is a principal
block of an SPD matrix (the truncated operator has no kernel), so Cholesky
factors it at half the cost of LU; its failure means the power lost
definiteness and raises SolveError.

This is the oracle route; it scales only to a few thousand nodes and exists
to cross-check the extension route, which scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import EigError, ParamError, SolveError
from .local_elliptic import LocalOperator

__all__ = [
    "SpectralPower",
    "NonlocalDtN",
    "spectral_power",
    "solve_fractional_dirichlet",
    "nonlocal_dtn",
    "nonlocal_dtn_matrix",
]

DENSE_NODE_CAP = 5000


def _eigh_clipped(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric PSD matrix, rounding negatives clipped to 0."""
    try:
        lam, V = np.linalg.eigh(A)
    except np.linalg.LinAlgError as exc:
        raise EigError(f"eigendecomposition failed: {exc}") from exc
    return np.clip(lam, 0.0, None), V


def _reconstruct(lam: np.ndarray, V: np.ndarray, s: float) -> np.ndarray:
    return (V * lam**s) @ V.T


def _check_dense_cap(grid) -> np.ndarray:
    """The grid's active mask, or EigError when its active nodes exceed
    DENSE_NODE_CAP.  Callers that build other work on the grid first check
    here before any of it."""
    active = grid.active
    n_active = int(active.sum())
    if n_active > DENSE_NODE_CAP:
        raise EigError(
            f"{n_active} active nodes exceeds the dense-eigendecomposition cap "
            f"({DENSE_NODE_CAP}); this route is the desk-scale oracle"
        )
    return active


@dataclass
class SpectralPower:
    """Fractional power of the truncated conductivity operator, held as its
    dense eigendecomposition.

    ``eigvals``/``eigvecs`` diagonalize K_active / node_volume; ``apply``
    realizes the power on full-grid arrays (frame nodes are identically
    zero) and ``matrix`` builds any block of it over the active nodes.
    """

    op: LocalOperator
    s: float
    active: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray

    @property
    def grid(self):
        return self.op.grid

    def matrix(self, rows=None, cols=None) -> np.ndarray:
        """Block of the power over the active nodes: ``rows`` and ``cols``
        index positions among the active nodes (None takes them all), so the
        block costs len(rows) * len(cols) * N, not N^3.  With no arguments
        this is the full power."""
        V = self.eigvecs
        left = V if rows is None else V[rows]
        right = V if cols is None else V[cols]
        return (left * self.eigvals**self.s) @ right.T

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the power to a full-grid array, or to a block of them (one
        per column); returns the same shape."""
        ua = u[self.active]
        out = np.zeros_like(u, dtype=float)
        coeff = self.eigvecs.T @ ua
        # the transposes scale the rows of a block and are no-ops on a vector
        out[self.active] = self.eigvecs @ (self.eigvals**self.s * coeff.T).T
        return out


def spectral_power(op: LocalOperator, s: float) -> SpectralPower:
    """Eigendecompose the active-node operator; action on an eigenvector with
    eigenvalue lambda is lambda**s times it."""
    if not 0.0 < s <= 1.0:
        raise ParamError(f"s must lie in (0, 1], got {s}")
    active = _check_dense_cap(op.grid)
    A = op.stiffness[active][:, active].toarray() / op.node_volume
    A = 0.5 * (A + A.T)  # rebinding frees the unsymmetrized copy before eigh
    lam, V = _eigh_clipped(A)
    return SpectralPower(op=op, s=s, active=active, eigvals=lam, eigvecs=V)


def _cholesky(block: np.ndarray):
    """Cholesky factor of the power's interior block; a failure means the
    power lost definiteness."""
    try:
        return cho_factor(block)
    except np.linalg.LinAlgError as exc:
        raise SolveError(f"interior-block factorization failed: {exc}") from exc


def _w_positions(P: SpectralPower):
    """Mask of the active nodes of the measurement region among its nodes, and
    their positions among the active nodes; a measurement node on the
    zero-Dirichlet frame is inactive and reads zero."""
    widx = P.grid.w_indices
    w_active = P.active[widx]
    return w_active, (np.cumsum(P.active) - 1)[widx[w_active]]


def solve_fractional_dirichlet(P: SpectralPower, f: np.ndarray) -> np.ndarray:
    """Solve the exterior-value problem for the fractional operator.

    ``f`` is a full-grid array supported on the measurement region, or a
    block of them of shape (N, k); the returned full-grid field equals f on
    the exterior nodes and the power applied to it vanishes on the closed
    interior region (solved with the interior rows of the power).  A block
    costs one build of those rows and one Cholesky factorization, like one
    datum.
    """
    grid = P.grid
    f = np.asarray(f, dtype=float)
    if np.any(f[~grid.w_mask]):
        raise ParamError("exterior data must be supported on the measurement region")
    act = P.active
    sol = grid.omega_closure[act]
    A = P.matrix(np.flatnonzero(sol))
    fa = f[act]
    ua = fa.copy()
    ua[sol] = cho_solve(_cholesky(A[:, sol]), -(A[:, ~sol] @ fa[~sol]))
    out = np.zeros(f.shape)
    out[act] = ua
    return out


def nonlocal_dtn(P: SpectralPower, f: np.ndarray) -> np.ndarray:
    """Values of the fractional operator of the solution on the measurement
    region (the nonlocal measurement map applied to f, or to each column of
    a block f of shape (N, k))."""
    u = solve_fractional_dirichlet(P, f)
    w_active, w = _w_positions(P)
    # the power applied on the measurement rows only; the transposes scale
    # the rows of a block and are no-ops on a vector
    coeff = P.eigvals**P.s * (P.eigvecs.T @ u[P.active]).T
    out = np.zeros((len(w_active),) + u.shape[1:])
    out[w_active] = P.eigvecs[w] @ coeff.T
    return out


@dataclass
class NonlocalDtN:
    """Dense nonlocal measurement map in the nodal basis on the region W.

    Symmetric with respect to the quadrature pairing <f, g> = volume * sum(fg),
    the discrete stand-in for the (H^s, H^{-s}) duality it acts between.
    """

    grid_shape: tuple
    w_indices: np.ndarray
    matrix: np.ndarray
    weight: float
    s: float

    def pairing(self, f: np.ndarray, g: np.ndarray) -> float:
        return float(self.weight * np.sum(f * g))


def nonlocal_dtn_matrix(P: SpectralPower) -> NonlocalDtN:
    """The measurement map as the Schur complement of the power's block over
    the closed interior region and the measurement region, the only block
    built; a measurement node on the zero-Dirichlet frame gets a zero row and
    column."""
    grid = P.grid
    widx = grid.w_indices
    w_active, w = _w_positions(P)
    o = np.flatnonzero(grid.omega_closure[P.active])
    ow = np.concatenate([o, w])
    A = P.matrix(ow, ow)
    k = len(o)
    X = cho_solve(_cholesky(A[:k, :k]), A[:k, k:])
    M = np.zeros((len(widx), len(widx)))
    M[np.ix_(w_active, w_active)] = A[k:, k:] - A[k:, :k] @ X
    return NonlocalDtN(
        grid_shape=grid.shape,
        w_indices=widx,
        matrix=M,
        weight=grid.node_volume,
        s=P.s,
    )
