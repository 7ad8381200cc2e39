"""Degenerate weighted extension solves and the weighted Neumann trace.

The bulk operator is ``div( t**(1-2s) diag(a(x'), 1) grad )`` on the tensor
mesh (box x graded levels).  Assembly is conservative:

* tangential part: the box stiffness of the conductivity operator, weighted
  per level by the exact hat-lumped measures ``int t**(1-2s) dt``;
* vertical part: two-point fluxes with exact resistances
  ``int t**(2s-1) dt`` per cell, so constants and the layer profile
  ``t**(2s) / (2s)`` are exact discrete solutions and the weight is never
  evaluated at t = 0.

The stiffness is the Kronecker sum ``K_tan (x) diag(nu) + m I (x) K_vert``,
and its CSR arrays are filled directly: every level of a tangential row has
the same column layout, so indptr, indices and data are the tangential
stiffness's row pattern broadcast over the levels, with no sparse product,
sum or sort.
The entries equal those of ``sp.kron`` and a sparse add to the bit (each
diagonal entry is the one addition of the same two products).

The same assembly covers the dual weight exponent 2s-1: build the vertical
mesh with order 1-s.

Boundary conditions: homogeneous Dirichlet on the lateral frame (matching
the truncation of the spectral route) and at the top, the truncation height
of O(|log h|) standing in for the decay at infinity; these are the only
conditions off the trace.  On the trace, the production (mixed) solve has
Dirichlet data on the exterior nodes and homogeneous weighted Neumann on the
closed interior region; the trace may also be all Dirichlet or all Neumann.

Solver.  With D = I the free nodes off the trace are a tensor product T x L
(tangential active set by free levels), and their block ``K_T (x) diag(nu) +
m I (x) K_vert`` (nu the level weights, m the node volume) is solved by one
``fractional_core.tensor_block``, whose route is chosen there.  Where the
tangential eigenbasis is held (the closed-form sine basis for a = Id, the
``eigh_tridiagonal`` basis for any coefficient in 1D, a dense ``eigh``
basis for a variable coefficient in 2D and 3D on at most
``fractional_core._MODAL_NODE_CAP`` = 1000 active nodes) the block
diagonalizes tangentially: one vertical SPD tridiagonal ``m (K_vert + lam_i
diag(nu))`` per tangential mode, whose solves against the two level vectors
any right-hand side has are kept as per-mode vertical profiles; a solve is
then one forward mode product of the tangential data, a multiply by the
profiles and one backward mode product.  The basis is built once per
coefficient and shared with the oracle (``spectral_power``) and every other
solver on it.  Otherwise (a variable coefficient in 2D or 3D past the cap)
the vertical pencil ``K_vert phi = mu diag(nu) phi`` turns a solve into J
decoupled shifted tangential solves ``(K_T + m mu_k) y_k = r_k`` (fast
diagonalization), made by one block-diagonal sparse LU.  The dense basis
wins below the cap (2D bump, n = 24, J = 40, 484 active nodes: build 0.14
-> 0.05 s, 0.74 -> 0.59 ms per datum) and its solves lose past about 1400
active nodes (2D n = 48, 2116: 6.1 -> 8.2 ms per datum, peak RSS 309 ->
338 MB); the crossover table is in ``fractional_core``.  The
pencil is solved by LAPACK ``dpteqr`` on the ``nu**-1/2``-scaled
tridiagonal: with the default grading nu spans up to 19 orders of
magnitude, and a dense symmetric eigensolver loses the small eigenvalues
(even their sign) where ``dpteqr`` keeps them to relative accuracy.

A constrained trace column is first lifted by the exact profile psi of the
vertical operator alone, so the tensor solve only returns a correction:
level 1, whose error the trace extraction multiplies by the first-cell
conductance, then stays accurate to rounding.  The lift cancels the vertical
load exactly, so the right-hand side left on the tensor block is separable,
``-(K_T d) (x) (nu psi)`` (``-m h (x) e_0`` for a free trace): a fixed level
vector times a tangential map of the datum, so no forward level transform is
made.  The mixed trace closes on its free trace nodes B through the trace
map ``Z = Sch^-1 Q`` (capacitance-matrix style, |B| x |data nodes| doubles),
built once from the dense Schur complement ``Sch = nu_0 K_BB + g I - g**2
G``, G the first-level B x B block of the tensor block's inverse (a closed
form in the profiles on a held basis, a sum over the pencil otherwise) and
``g = m / r_0`` the first-cell conductance: a datum's free trace values are
``Z d``, and the tensor block then takes one block solve.

There is one solve path, the chunk iterator ``solve_chunks``: a block of
data, one datum per column, goes through the tensor solve _CHUNK columns at
a time, one tensor-block solve per chunk, into work arrays allocated once
per call, which bounds the dense temporaries whatever the block's width.  It
yields each chunk's assembled field with the norms of ``(S u - load)[free]``
measured on that very array, and every column is checked first: that norm
over ``||(load - S u_fixed)[free]||`` (u_fixed the constrained values) must
stay below 1e-8, else SolveError.  ``solve_block`` collects the chunks into
one array and ``solve`` is its one-column case; a consumer that reduces each
chunk as it arrives keeps no block.

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
from scipy.linalg import cho_factor, cho_solve

from .coefficients import Coefficient, identity_coefficient
from .errors import (
    CalibrationError,
    FitError,
    MeshMismatch,
    ParamError,
    SolveError,
)
from .fractional_core import _CHUNK, tensor_block
from .mesh import (
    DEFAULT_PADDING,
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
    """Assembled weighted stiffness on an extension mesh, with the tangential
    stiffness it was built from."""

    emesh: ExtensionMesh
    coeff: Coefficient
    stiffness: sp.csr_matrix
    tangential: sp.csr_matrix

    @property
    def s(self) -> float:
        return self.emesh.vertical.s


def _tensor_stiffness(K_tan: sp.spmatrix, vm, m: float) -> sp.csr_matrix:
    """``K_tan (x) diag(nu) + m I (x) K_vert`` on the tangential-major node
    numbering: K_tan weighted per level by the level weights nu, plus the
    two-point vertical operator of conductances ``1 / cell resistance``.
    K_tan is a canonical CSR matrix (sorted, no duplicates, no stored
    zeros), as ``_assemble`` builds.

    The CSR arrays are filled directly.  Row (i, j) holds, in column order:
    K_tan row i left of the diagonal times nu_j, the vertical lower entry,
    the diagonal ``K_ii nu_j + m kd_j`` (kd the diagonal of K_vert), the
    vertical upper entry, and K_tan row i right of the diagonal times nu_j.
    So every level of a tangential row has the same slots: the slots of row
    i are laid out once and broadcast over the levels, dropping the lower
    slot at level 0 and the upper slot at the top.
    """
    K = sp.csr_matrix(K_tan)
    nu = vm.level_weights()
    cond = 1.0 / vm.cell_resistances()
    n, J1 = K.shape[0], len(nu)
    rows = np.repeat(np.arange(n), np.diff(K.indptr))
    right = K.indices > rows
    has_diag = np.zeros(n, dtype=bool)
    has_diag[rows[K.indices == rows]] = True
    left = np.bincount(rows[K.indices < rows], minlength=n)
    # slots per tangential row: K's entries, the lower, the diagonal (unless
    # K has one) and the upper slot of the vertical operator
    width = np.diff(K.indptr) + 2 + ~has_diag
    W = int(width.max(initial=0))
    idx_dtype = np.int32 if n * J1 * max(W, 1) < 2**31 else np.int64
    # slot column (tangential column * J1 + level offset) and K value, on a
    # (n, W) layout padded past each row's width
    slot_col = np.zeros((n, W), dtype=idx_dtype)
    slot_val = np.zeros((n, W))
    # a row's lower and diagonal slots precede K_ii, and the upper slot
    # (with the diagonal slot where K has none) precedes K's right entries
    shift = (K.indices >= rows).astype(int) + right + (right & ~has_diag[rows])
    pos = np.arange(K.nnz) - K.indptr[rows] + shift
    slot_col[rows, pos] = K.indices * J1
    slot_val[rows, pos] = K.data
    tan = np.arange(n)
    for offset in (-1, 0, 1):
        slot_col[tan, left + 1 + offset] = tan * J1 + offset

    # every tangential row's slots repeated over the levels, flattened in
    # the (row, level, slot) order of the CSR arrays; the tiled operands keep
    # numpy's inner loops J1 * W long
    levels = np.repeat(np.arange(J1, dtype=idx_dtype), W)
    indices = (np.tile(slot_col, J1) + levels).ravel()
    data = (np.tile(slot_val, J1) * np.repeat(nu, W)).ravel()
    live = np.tile(np.arange(W) < width[:, None], J1).ravel()
    # flat position of a row's lower vertical slot on every level, the
    # diagonal and upper slots right after it; the lower slot of level 0 and
    # the upper slot of the top are dropped
    at = (tan * (J1 * W) + left)[:, None] + np.arange(J1) * W
    mvert = m * -cond
    data[at] = np.insert(mvert, 0, 0.0)
    data[at + 1] += m * (np.append(cond, 0.0) + np.insert(cond, 0, 0.0))
    data[at + 2] = np.append(mvert, 0.0)
    live[at[:, 0]] = False
    live[at[:, -1] + 2] = False
    counts = np.empty((n, J1), dtype=idx_dtype)
    counts[:] = width[:, None]
    counts[:, [0, J1 - 1]] -= 1
    indptr = np.zeros(n * J1 + 1, dtype=idx_dtype)
    np.cumsum(counts, out=indptr[1:])
    return sp.csr_matrix((data[live], indices[live], indptr),
                         shape=(n * J1, n * J1))


def assemble_extension(emesh: ExtensionMesh, coeff: Coefficient) -> ExtensionSystem:
    if coeff.grid is not emesh.grid:
        raise MeshMismatch("coefficient was built for a different grid")
    from .local_elliptic import _assemble  # tangential stiffness, same stencil

    K_tan = _assemble(emesh.grid, coeff)
    S = _tensor_stiffness(K_tan, emesh.vertical, emesh.grid.node_volume)
    return ExtensionSystem(emesh=emesh, coeff=coeff, stiffness=S, tangential=K_tan)


@dataclass
class ExtensionField:
    """Nodal values on an extension mesh, with the system that produced them."""

    emesh: ExtensionMesh
    values: np.ndarray
    s: float
    system: ExtensionSystem | None = None

    def as_columns(self) -> np.ndarray:
        J1 = self.emesh.vertical.num_levels + 1
        return self.values.reshape(self.emesh.grid.num_nodes, J1)


def _fixed_layout(emesh: ExtensionMesh, trace: str):
    """Boolean mask of constrained nodes: the lateral frame, the top level and
    the trace nodes that ``trace`` constrains.

    ``trace`` is "dirichlet" (the whole trace row is constrained), "mixed"
    (only its exterior nodes) or "free" (weighted Neumann data everywhere).
    """
    grid = emesh.grid
    J = emesh.vertical.num_levels
    fixed = np.zeros(emesh.num_nodes, dtype=bool)
    cols = fixed.reshape(grid.num_nodes, J + 1)
    cols[:, J] = True
    cols[~grid.active, :] = True
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


class ExtensionSolver:
    """Tensor-structured solver for repeated trace data on one layout.

    ``dirichlet_trace`` picks the trace condition: True constrains the whole
    trace row, False only its exterior nodes (the mixed production layout),
    None leaves it free, and ``solve`` then reads a weighted Neumann datum;
    any other value raises ParamError.  The lateral frame and the top are
    homogeneous Dirichlet.

    The free nodes are the tensor product of the tangential set T, which is
    the active set, and the levels L (from level 0 when the trace is free,
    else from level 1, up to the level below the top), plus, in the mixed
    layout, the free trace nodes B.  The solver of the T x L block
    (``fractional_core.tensor_block``: per-mode vertical profiles on a held
    tangential basis, else the vertical pencil and its shifted tangential
    solves) and the free-trace map are built once; every solve substitutes
    new data.
    """

    def __init__(self, emesh: ExtensionMesh, coeff: Coefficient,
                 dirichlet_trace: bool | None = False):
        # bool has no subclasses and only the two instances, so this is an
        # identity check: 1 and 0, equal to True and False, are refused
        if dirichlet_trace is not None and not isinstance(dirichlet_trace, bool):
            raise ParamError(f"dirichlet_trace must be True, False or None, "
                             f"got {dirichlet_trace!r}")
        trace = {True: "dirichlet", False: "mixed", None: "free"}[dirichlet_trace]
        self.emesh = emesh
        self.fixed = _fixed_layout(emesh, trace)
        self.free = ~self.fixed
        # far fewer than the free nodes: clearing rows by index is the cheap way
        self._fixed_rows = np.flatnonzero(self.fixed)
        self.system = assemble_extension(emesh, coeff)
        self._trace = trace
        tr = emesh.trace_indices()
        self._data_nodes = np.flatnonzero(self.fixed[tr])
        self._free_trace = np.flatnonzero(self.free[tr])
        grid = emesh.grid
        vm = emesh.vertical
        J = vm.num_levels
        m = grid.node_volume
        nu = vm.level_weights()
        res = vm.cell_resistances()
        cond = 1.0 / res

        # T is the active set, L the levels free on all of T (the trace only
        # when it is free, never the top), and B the rest of the free trace
        self._T = np.flatnonzero(grid.active)
        free0 = self.free[tr[self._T]]
        lo = 0 if free0.all() else 1
        self._L = slice(lo, J)
        K_T = self.system.tangential[self._T][:, self._T].tocsc()

        # a constrained trace column is lifted by the exact profile of the
        # vertical operator alone, 1 at the trace and 0 at the top, so the
        # tensor solve only computes the correction driven by the tangential
        # stiffness
        self._lift_at = ~free0
        self._lifted = self._T[self._lift_at]
        tail = np.cumsum(res[::-1])[::-1]
        self._psi = tail[self._L] / tail[0]
        # what is left of the T x L right-hand side is separable: a level
        # vector v times a tangential map of the datum at the nodes
        # _rhs_nodes
        if trace == "free":
            v = np.zeros(J - lo)
            v[0] = 1.0
            self._rhs_nodes = self._T
            self._rhs_tan = -m * sp.identity(len(self._T), format="csr")
        else:
            v = -nu[self._L] * self._psi
            self._rhs_nodes = self._lifted
            self._rhs_tan = K_T[:, self._lift_at].tocsr()
        # the mixed layout's free trace nodes B close through a trace map
        self._B = np.flatnonzero(free0) if lo == 1 else np.zeros(0, dtype=int)
        self._g = m * cond[0]
        # a constrained datum enters the free rows only through the stiffness
        # columns of its trace nodes: ``nu_0 K_tan[i, d]`` on the free trace
        # rows i and ``-m / r_0`` on the datum's own level-1 row, read off the
        # tangential stiffness; their free-row loads measure the residual (a
        # free trace takes its load on the free trace nodes instead)
        K_tan = self.system.tangential
        self._trace_cols = nu[0] * K_tan[self._free_trace][:, self._data_nodes]
        self._data_load = self._load_columns(np.arange(len(self._data_nodes)))
        # vertical two-point operator on the free levels; fixed neighbours
        # leave their conductance on the diagonal
        diag = np.append(cond, 0.0) + np.insert(cond, 0, 0.0)
        self._block = tensor_block(grid, coeff, K_T, m, diag[lo:J], -cond[lo:J - 1],
                                   nu[lo:J], v, self._B, self._g)
        if self._B.size:
            self._Z = self._trace_schur(K_T, nu[0])

    def _load_columns(self, cols: np.ndarray) -> sp.csr_matrix:
        """The free rows of the stiffness columns of the data nodes
        ``_data_nodes[cols]``, on the rows they touch: the free trace rows,
        then the data nodes' level-1 rows.  Equal to the entries of the
        assembled stiffness to the bit, in another row order."""
        top = self._trace_cols[:, cols]
        counts = np.diff(top.indptr)
        # one entry per level-1 row, appended to the touched trace rows
        level1 = self.emesh.trace_indices()[self._data_nodes[cols]] + 1
        up = np.flatnonzero(self.free[level1])
        counts = np.concatenate([counts[counts > 0], np.ones(len(up), dtype=counts.dtype)])
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return sp.csr_matrix((np.concatenate([top.data, np.full(len(up), -self._g)]),
                              np.concatenate([top.indices, up]), indptr),
                             shape=(len(counts), len(cols)))

    def _trace_schur(self, K_T: sp.csc_matrix, nu0: float) -> np.ndarray:
        """The trace map Z, (|B|, |data nodes|): ``Z @ data[_data_nodes]``
        gives the solution on the free trace nodes B.

        Eliminating T x L leaves the trace Schur complement

        ``Sch = nu0 K_BB + g I - g**2 G``,  ``G = [block^-1]_{0B, 0B}``

        (block the free tensor block, 0 its first level) and the right-hand
        side ``Q d``, where Q holds the stiffness rows of the B trace nodes
        over the data columns (``-_trace_cols``, B being the free trace),
        plus ``g H^T`` times the tangential map of the separable right-hand
        side, with ``H = [block^-1 (v (x) E_B)]_0`` (v the level vector of
        that right-hand side).  G and H come from the tensor block's
        ``trace_sums``.  Z = Sch^-1 Q; the dense Cholesky factor of
        Sch is used once here and not kept.
        """
        B = self._B
        G, H = self._block.trace_sums()
        g = self._g
        S = nu0 * K_T[B][:, B].toarray() + g * np.eye(len(B)) - g * g * G
        Q = -self._trace_cols.toarray()
        lifted = np.searchsorted(self._data_nodes, self._rhs_nodes)
        Q[:, lifted] += g * (self._rhs_tan.T @ H).T
        try:
            return cho_solve(cho_factor((S + S.T) / 2), Q)
        except np.linalg.LinAlgError as exc:
            raise SolveError(f"trace Schur complement is not positive "
                             f"definite: {exc}") from exc

    def _solve_chunk(self, D: np.ndarray, u: np.ndarray, levels: np.ndarray) -> None:
        """Write the assembled fields of the data chunk D (N_tan, k) into u
        (num_nodes, k): the constrained values and the tensor solve's free
        part, which touch disjoint rows.  ``levels`` is a (levels, T, k) work
        block."""
        T, L, B = self._T, self._L, self._B
        nL, nT, k = levels.shape
        u[:] = 0.0
        if self._trace != "free":
            nodes = self._data_nodes
            u[self.emesh.trace_indices()[nodes]] = D[nodes]
        xB = self._Z @ D[self._data_nodes] if B.size else None
        # the lift cancels the vertical load, so the right-hand side is the
        # separable v (x) (tangential map of the datum), plus the free trace
        self._block.solve(self._rhs_tan @ D[self._rhs_nodes], xB, levels)
        lift = np.zeros((nT, k))
        lift[self._lift_at] = D[self._lifted]
        levels += np.multiply.outer(self._psi, lift)
        cols = u.reshape(self.emesh.grid.num_nodes, -1, k)
        cols[T, L] = levels.transpose(1, 0, 2)
        if B.size:
            cols[T[B], 0] = xB

    def _residual_norms(self, u: np.ndarray, D: np.ndarray) -> np.ndarray:
        """``||(S u - load)[free]||`` per column of the assembled fields u of
        the data chunk D; SolveError unless each is within 1e-8 of
        ``||(load - S u_fixed)[free]||`` (the load is zero unless the trace is
        free, u_fixed the constrained values).  Columns where that is zero
        are exempt."""
        r = self.system.stiffness @ u
        if self._trace == "free":
            load = -self.emesh.grid.node_volume * D[self._free_trace]
            r[self.emesh.trace_indices()[self._free_trace]] -= load
            scale = _column_norms(load)
        else:
            scale = _column_norms(self._data_load @ D[self._data_nodes])
        r[self._fixed_rows] = 0.0
        rho = _column_norms(r)
        bad = (scale > 0) & ~(rho <= 1e-8 * scale)
        if np.any(bad):
            raise SolveError(
                f"extension solve residual {np.max(rho[bad] / scale[bad]):.2e} "
                "exceeds tolerance"
            )
        return rho

    def _field(self, values: np.ndarray) -> ExtensionField:
        return ExtensionField(
            emesh=self.emesh, values=values, s=self.system.s, system=self.system
        )

    def solve_chunks(self, data: np.ndarray):
        """Solve a block of data of shape (N_tan, k), one datum per column,
        _CHUNK columns at a time (one tensor-block solve per chunk).

        Yields ``(c0, u, rho)`` per chunk: the assembled fields u of columns
        c0 to c0 + u.shape[1], shape (num_nodes, width), row-major, and their
        free-row residual norms ``||(S u - load)[free]||``, measured on that
        very array and checked (SolveError) before it is yielded.  u is a work
        array the next chunk overwrites; copy what must outlive it.  Data
        that are not finite raise ParamError.
        """
        data = np.asarray(data, dtype=float)
        if not np.isfinite(data).all():
            raise ParamError("trace data must be finite")
        n, nL, nT = self.emesh.num_nodes, len(self._psi), len(self._T)
        # work arrays for the widest chunk, allocated once; a narrower last
        # chunk takes their leading part, still contiguous
        width = min(data.shape[1], _CHUNK)
        fields, levels = np.empty(n * width), np.empty(nL * nT * width)
        for c0 in range(0, data.shape[1], _CHUNK):
            D = data[:, c0:c0 + _CHUNK]
            k = D.shape[1]
            u = fields[:n * k].reshape(n, k)
            self._solve_chunk(D, u, levels[:nL * nT * k].reshape(nL, nT, k))
            yield c0, u, self._residual_norms(u, D)

    def solve_block(self, data: np.ndarray) -> np.ndarray:
        """Solve for a block of data of shape (N_tan, k), one datum per column.

        Returns the nodal values, shape (num_nodes, k), column-major: the
        fields ``solve_chunks`` yields, each checked against the assembled
        free block; a zero column gives a zero field.
        """
        data = np.asarray(data, dtype=float)
        out = np.empty((self.emesh.num_nodes, data.shape[1]), order="F")
        for c0, u, _ in self.solve_chunks(data):
            out[:, c0:c0 + u.shape[1]] = u
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


def solve_extension(
    emesh: ExtensionMesh,
    coeff: Coefficient,
    s: float,
    f: np.ndarray,
    dirichlet_trace: bool = False,
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
    return ExtensionSolver(emesh, coeff, dirichlet_trace=dirichlet_trace).solve(f)


def solve_weighted_neumann(
    emesh: ExtensionMesh, coeff: Coefficient, h: np.ndarray
) -> ExtensionField:
    """Solve the bulk equation with weighted Neumann datum h on the whole trace.

    The trace row is free everywhere; the weak form puts ``-m_i h_i`` on the
    right-hand side of each trace row.  Used for the dual-weight problem
    feeding the duality transform: build ``emesh`` with order 1 - s to get
    the weight exponent 2s - 1.
    """
    return ExtensionSolver(emesh, coeff, dirichlet_trace=None).solve(h)


@dataclass
class WeightedTrace:
    """Weighted normal trace ``lim t**(1-2s) d_t u`` at the active nodes.

    ``values`` is the variational extraction (trace-row residual over the
    tangential quadrature weight) on the whole tangential grid.  Only the
    active entries are a weighted normal trace: at an inactive frame node the
    residual carries the tangential coupling to its active neighbour, so read
    the measurement rows or the active rows only.
    """

    values: np.ndarray


def _weighted_trace(system: ExtensionSystem, values: np.ndarray,
                    nodes=slice(None)) -> np.ndarray:
    """Variational weighted trace ``-(S u)[trace row] / m`` at the given
    tangential nodes, for one field or a block of fields (one per column)."""
    tr = system.emesh.trace_indices()[nodes]
    return -(system.stiffness[tr] @ values) / system.emesh.grid.node_volume


def neumann_trace(field: ExtensionField) -> WeightedTrace:
    """Weighted normal trace of a solved field; its frame entries are
    trace-row residuals, not a trace (see WeightedTrace)."""
    if field.system is None:
        raise ParamError("field carries no assembled system; solve or assemble first")
    return WeightedTrace(values=_weighted_trace(field.system, field.values))


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
    CalibrationError.  Such a drift means a sign or convention bug, or a
    mesh too coarse for the order: ``calibrate_cs(1, 0.95, nodes=64,
    levels=48)`` drifts 26.4% on the default geometry alone.
    """
    from .fractional_core import solve_fractional_dirichlet, spectral_power
    from .local_elliptic import assemble_local

    omega, w = default_boxes(dim)
    grid = build_tangential_grid(GeometrySpec(dim=dim, omega_box=omega, w_box=w,
                                              nodes=nodes, padding=DEFAULT_PADDING))
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


def _squared_distances(x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``|x_p - z_q|**2`` for point rows x (k, n) and z (l, n), as (k, l).

    The squares are added axis by axis into one (k, l) array, in the order
    a sum over the last axis of the (k, l, n) difference array adds them, so
    the values are the same to the bit without that array.
    """
    d2 = np.subtract.outer(x[:, 0], z[:, 0])
    d2 *= d2
    for k in range(1, x.shape[1]):
        diff = np.subtract.outer(x[:, k], z[:, k])
        diff *= diff
        d2 += diff
    return d2


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
    It takes k points as a (k, grid.dim) array, or on a 1D grid also as a
    flat array of k coordinates; any other shape raises ParamError.  Returns
    the k values.
    """
    if y <= 0:
        raise ParamError(f"height must be positive, got {y}")
    u = np.asarray(u, dtype=float)
    n = grid.dim
    if points is None:
        pts = grid.points
    else:
        pts = np.asarray(points, dtype=float)
        if pts.ndim == 1 and n == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[1] != n:
            shapes = f"(k, {n})" + (" or (k,)" if n == 1 else "")
            raise ParamError(f"points must have shape {shapes}, got {pts.shape}")
    src = np.flatnonzero(u)
    vol = grid.node_volume
    C = poisson_kernel_constant(n, s)
    if src.size == 0:
        return np.zeros(len(pts))
    d2 = _squared_distances(pts, grid.points[src])
    ker = C * y ** (2 * s) / (d2 + y**2) ** (n / 2 + s)
    return (ker @ u[src]) * vol


def _kernel_gradient_sup(grid, u, s, y, pts) -> float:
    """sup over pts of |grad_x of the kernel extension| (analytic gradient)."""
    n = grid.dim
    src = np.flatnonzero(u)
    zs = grid.points[src]
    C = poisson_kernel_constant(n, s)
    base = (_squared_distances(pts, zs) + y**2) ** (n / 2 + s + 1)
    scale = -(n + 2 * s) * C * y ** (2 * s)
    # kernel gradients laid out (points, axes, sources): one matrix-vector
    # product with the data covers every axis
    gk = np.empty((len(pts), n, len(src)))
    for k in range(n):
        gk[:, k] = scale * np.subtract.outer(pts[:, k], zs[:, k]) / base
    grads = (gk.reshape(-1, len(src)) @ u[src]).reshape(len(pts), n) * grid.node_volume
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
    diam = math.sqrt(float(np.max(_squared_distances(pts_src, pts_src))))
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
