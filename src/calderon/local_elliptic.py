"""The local conductivity operator, Dirichlet solves, and the boundary map.

Discretization: conservative finite differences on the tensor grid with
arithmetically face-averaged diagonal coefficients.  For a = Id the stencil
is the standard (2n+1)-point Laplacian scaled by h**(n-2).  The assembled
matrix is the weak-form (stiffness) matrix: u^T K v approximates
``int a grad(u) . grad(v) dx``, so it is symmetric, positive semidefinite,
and has zero row sums away from the frame.

The boundary map sends Dirichlet data on the interior-region boundary to the
conormal flux ``nu . a grad(v)``.  Fluxes are extracted variationally from
the boundary rows of the stiffness matrix assembled over the region only,
divided by the boundary quadrature weights; this preserves the symmetry of
the map exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .coefficients import Coefficient
from .errors import EllipticityError, ParamError
from .linsolve import Factorized
from .mesh import TangentialGrid

__all__ = [
    "LocalOperator",
    "LocalDtN",
    "assemble_local",
    "solve_local_dirichlet",
    "boundary_flux",
    "local_dtn",
    "local_dtn_matrix",
]


def _face_pairs(shape: tuple[int, ...], axis: int):
    """Flat index pairs (i, j) of all grid faces along one axis."""
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    sl_lo = [slice(None)] * len(shape)
    sl_hi = [slice(None)] * len(shape)
    sl_lo[axis] = slice(0, -1)
    sl_hi[axis] = slice(1, None)
    return idx[tuple(sl_lo)].ravel(), idx[tuple(sl_hi)].ravel()


def _assemble(grid: TangentialGrid, coeff: Coefficient, face_filter=None) -> sp.csr_matrix:
    """Face-based stiffness assembly.

    ``face_filter(axis, i, j) -> weights`` may scale or drop faces; it is used
    to restrict the bilinear form to the interior region (with half weights
    for faces lying inside its boundary planes).
    """
    n = grid.dim
    vol = grid.node_volume
    rows, cols, vals = [], [], []
    for k in range(n):
        i, j = _face_pairs(grid.shape, k)
        a_face = 0.5 * (coeff.diag[i, k] + coeff.diag[j, k])
        w = a_face * vol / grid.h[k] ** 2
        if face_filter is not None:
            w = w * face_filter(k, i, j)
        keep = w != 0.0
        i, j, w = i[keep], j[keep], w[keep]
        rows.extend([i, j, i, j])
        cols.extend([i, j, j, i])
        vals.extend([w, w, -w, -w])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    N = grid.num_nodes
    return sp.csr_matrix((vals, (rows, cols)), shape=(N, N))


def _omega_face_filter(grid: TangentialGrid):
    """Weights restricting the form to the interior region.

    A face survives when both endpoints lie in the closed region; each axis
    (other than the face normal) on whose boundary plane the face lies halves
    the dual volume.
    """
    closure = grid.omega_closure
    multi = np.array(np.unravel_index(np.arange(grid.num_nodes), grid.shape)).T

    def face_filter(k, i, j):
        w = (closure[i] & closure[j]).astype(float)
        for ell in range(grid.dim):
            if ell == k:
                continue
            lo_e, hi_e = grid.omega_idx[ell]
            on_plane = (multi[i, ell] == lo_e) | (multi[i, ell] == hi_e)
            w *= np.where(on_plane, 0.5, 1.0)
        return w

    return face_filter


@dataclass(frozen=True)
class LocalOperator:
    """Assembled stiffness matrices for the conductivity operator.

    ``stiffness`` covers the whole computational box; ``omega_stiffness`` is
    the same bilinear form restricted to the interior region and is the one
    used for variational flux extraction, through its rows at the boundary
    nodes (``boundary_rows``) and the boundary quadrature weights
    (``boundary_weights``), both stored at assembly.  Every interior solve
    on the operator (``solve_local_dirichlet``, ``local_dtn``,
    ``local_dtn_matrix``) shares one sparse LU of ``omega_stiffness`` on the
    interior nodes, ``interior_lu``, built on first use and kept.  Immutable
    after construction apart from that factor; concurrent solves against it
    are safe (concurrent first uses may each build an equal factor).
    """

    grid: TangentialGrid
    coeff: Coefficient
    stiffness: sp.csr_matrix
    omega_stiffness: sp.csr_matrix
    boundary_rows: sp.csr_matrix
    boundary_weights: np.ndarray

    @property
    def node_volume(self) -> float:
        return self.grid.node_volume

    @cached_property
    def interior_lu(self) -> Factorized:
        """The factorization of the stiffness on the interior nodes, built on
        first use and kept on the operator."""
        ii = self.grid.omega_interior
        return Factorized(self.omega_stiffness[ii][:, ii])


def assemble_local(grid: TangentialGrid, coeff: Coefficient) -> LocalOperator:
    """Assemble the stiffness matrices; revalidates ellipticity."""
    if coeff.grid is not grid:
        raise ParamError("coefficient was built for a different grid")
    if coeff.lam_min <= 0:
        raise EllipticityError("coefficient violates lambda_min > 0")
    K = _assemble(grid, coeff)
    K_omega = _assemble(grid, coeff, _omega_face_filter(grid))
    return LocalOperator(
        grid=grid, coeff=coeff, stiffness=K, omega_stiffness=K_omega,
        boundary_rows=K_omega[grid.boundary_indices],
        boundary_weights=grid.boundary_weights(),
    )


def solve_local_dirichlet(op: LocalOperator, g: np.ndarray) -> np.ndarray:
    """Solve the interior Dirichlet problem with boundary data g.

    ``g`` is a full-grid array read at the boundary nodes.  Returns a
    full-grid array holding the solution on the closed region (boundary
    values equal g exactly) and zeros elsewhere.
    """
    grid = op.grid
    g = np.asarray(g, dtype=float)
    bnodes = grid.boundary_indices
    if not np.all(np.isfinite(g[bnodes])):
        raise ParamError("boundary data contains non-finite values")
    ii = grid.omega_interior
    K = op.omega_stiffness
    rhs = -(K[ii][:, bnodes] @ g[bnodes])
    u_int = op.interior_lu.solve(rhs)
    out = np.zeros(grid.num_nodes)
    out[ii] = u_int
    out[bnodes] = g[bnodes]
    return out


def boundary_flux(op: LocalOperator, v: np.ndarray) -> np.ndarray:
    """Variational conormal flux at the boundary nodes of a given field.

    ``v`` is a full-grid array with meaningful values on the closed region.
    Outward-normal convention: on the interval (0,1) with v(x) = x the
    fluxes are (-1, +1).
    """
    r = op.boundary_rows @ v
    return r / op.boundary_weights


def local_dtn(op: LocalOperator, g: np.ndarray) -> np.ndarray:
    """Boundary data -> conormal flux of the interior solution (nodal values)."""
    v = solve_local_dirichlet(op, g)
    return boundary_flux(op, v)


@dataclass
class LocalDtN:
    """Dense boundary map in the nodal basis with its quadrature pairing.

    ``matrix`` maps boundary values to flux values; ``weights`` are the
    boundary quadrature weights, so the pairing <f, g> = sum w f g makes the
    map symmetric positive semidefinite with constants in its kernel.  The
    norm pair it acts between is the (H^{1/2}, H^{-1/2}) proxy pair built on
    these weights.
    """

    grid: TangentialGrid
    matrix: np.ndarray
    weights: np.ndarray

    def pairing(self, f: np.ndarray, g: np.ndarray) -> float:
        return float(np.sum(self.weights * f * g))

    def schur(self) -> np.ndarray:
        """The symmetric form W @ matrix (boundary Schur complement)."""
        return self.weights[:, None] * self.matrix


def local_dtn_matrix(op: LocalOperator) -> LocalDtN:
    """Dense boundary map via the Schur complement of the region stiffness."""
    grid = op.grid
    bnodes = grid.boundary_indices
    ii = grid.omega_interior
    K_bb = op.boundary_rows[:, bnodes].toarray()
    K_bi = op.boundary_rows[:, ii].toarray()
    K_ib = op.omega_stiffness[ii][:, bnodes].toarray()
    X = op.interior_lu.solve(K_ib)
    S = K_bb - K_bi @ X
    S = 0.5 * (S + S.T)
    w = op.boundary_weights
    return LocalDtN(grid=grid, matrix=S / w[:, None], weights=w)
