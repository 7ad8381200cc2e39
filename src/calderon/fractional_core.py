"""Spectral fractional powers of the conductivity operator (reference route)
and the solves of the extension's tensor block.

The operator is defined on the computational box with zero Dirichlet
truncation at the frame: with K the stiffness matrix over the interior
("active") nodes and m = prod(h) the uniform node volume, the operator
matrix is A = K / m and its fractional power is ``A^s = V diag(lambda^s)
V^T``.  Repeated eigenvalues need no tie-breaking: matrix functions are
basis independent.

The orthonormal eigenbasis V is held as a tuple of factors whose Kronecker
product is V over the active nodes in C order.  ``_eigenbasis`` finds it,
for the oracle and for the extension's tensor block alike, and is the one
place that reads ``Coefficient.is_identity`` and the one route choice:

* a = Id ("sine"): A is the Kronecker sum of the one-dimensional second
  differences ``tridiag(-1, 2, -1) / h_k^2``, which the sine transform
  diagonalizes exactly (fast diagonalization).  The factors are the
  closed-form DST-I matrices ``sqrt(2/(n-1)) sin(pi i j/(n-1))``, i, j =
  1..n-2, one per axis, and the eigenvalues ``sum_k (4/h_k^2) sin^2(pi j_k
  / (2(n_k-1)))``; no dense operator and no eigendecomposition is formed.
* any other coefficient in 1D, or in 2D and 3D on at most
  ``_MODAL_NODE_CAP`` active nodes ("eigh"): the single dense factor V of
  ``_dense_basis``, from ``scipy.linalg.eigh_tridiagonal`` in 1D (A is
  tridiagonal on the one interval of active nodes) and a dense ``eigh`` of
  A otherwise.
* 2D and 3D past ``_MODAL_NODE_CAP``: no basis is held.  The oracle builds
  the same dense factor for itself (``_dense_basis``); the tensor block
  takes the vertical pencil instead (below).

A held basis is built once per coefficient: ``_eigenbasis`` keeps it on the
``Coefficient`` (whose table is read-only) with the grid it was built on,
read-only, so the power at every s and every extension solver on that
coefficient share its arrays.  The oracle's bases past the cap are not kept,
which bounds what a coefficient holds in 2D and 3D at about 8 MB.

Consumers read V only through factor rows (an eigenvector row is the product
of one row of each factor) and mode products (one small matrix product per
axis), so a single factor is the plain dense arithmetic and the sine route
forms no N x N array.  ``DENSE_NODE_CAP`` bounds the dense bases (the 1D
"eigh" basis and the oracle's), and the map and the exterior-value solve,
which build dense blocks of the power over the interior and measurement
nodes; callers check the cap before building anything else on the grid.

Tensor block solves.  ``tensor_block`` solves the extension's free block
``K_T (x) N + m I (x) K_L`` (K_T the tangential stiffness, K_L the vertical
two-point operator on the free levels, N the diagonal of their level
weights) for the right-hand sides the extension makes, a fixed level vector
v times a tangential array plus a first-level coupling to the free trace
nodes B.  The route is the basis's:

* a held basis ("sine" or "eigh"): ``K_T = m V diag(lam) V^T``, so the
  block diagonalizes tangentially into one vertical SPD tridiagonal ``m
  (K_L + lam_i N)`` per mode i (the other orientation of the fast
  diagonalization of Buzbee, Golub and Nielson, 1970).  Every right-hand
  side has the level vector v or e_0, so the build solves those two against
  all modes once, by one ``dpttrf`` of the stacked blocks, and keeps only
  the two profile arrays (levels x modes).  A solve is a forward mode
  product of the tangential data, a multiply by the profiles and a backward
  mode product over the levels; a caller that reads only r level
  functionals ``R^T X`` contracts the profiles with R first, so the
  backward product runs over r rows (``_ModalBlock.contract``).  The trace
  sums are closed forms in the profiles' first rows and the basis rows at
  B.  No vertical eigenproblem is solved.
* no held basis ("lu", past ``_MODAL_NODE_CAP``): the vertical pencil ``K_L phi = mu N phi``
  (``_vertical_pencil``, LAPACK ``dpteqr``) turns the block into one
  shifted tangential solve ``(K_T + m mu_k) y_k = r_k`` per level, between
  level transforms by phi.  The J shifted blocks are factored as one
  block-diagonal sparse LU, whose trace sums come from unit block solves,
  _CHUNK columns at a time.

The cap is the measured crossover of the two routes, LU -> dense modal,
for a bump coefficient (amplitude 0.5, width 0.35) on the default geometry
at s = 1/2 in the mixed layout: the solver build (median of three), the
time per unit datum over 64 unit data through ``solve_chunks``, and the
process's peak RSS over the three builds (one BLAS thread, pinned to one
CPU of a 2-core VM):

  ======================  ======  ============  ============  ==========
  grid                    active  build (s)     ms per datum  RSS (MB)
  ======================  ======  ============  ============  ==========
  2D n = 24, J = 40          484  0.14 -> 0.05  0.74 -> 0.59   96 -> 91
  2D n = 30, J = 48          784  0.50 -> 0.14  1.70 -> 1.52  120 -> 122
  2D n = 34, J = 48         1024  1.23 -> 0.32  4.09 -> 2.56  141 -> 144
  2D n = 40, J = 48         1444  2.0 -> 0.69   3.7 -> 4.3    173 -> 208
  2D n = 48, J = 48         2116  5.0 -> 1.9    6.1 -> 8.2    309 -> 338
  3D nodes = 14, J = 32     1728  4.7 -> 1.1    6.4 -> 6.2    309 -> 280
  ======================  ======  ============  ============  ==========

The dense basis builds faster at every size here (the LU's unit trace
solves grow with the free trace), but in 2D its solves lose from about 1400
active nodes on, where its memory also grows past the LU's; the dense
factor's O(N^2) products and O(N^3) ``eigh`` are what it trades against the
LU's fill.  So the cap is 1000, which also keeps the 3D LU rung (1728
active nodes) on the LU route.

With O the closed interior region and W the measurement nodes, the nonlocal
measurement map is the Schur complement ``A_WW - A_WO A_OO^{-1} A_OW`` of
the power, taken from its (O u W) x (O u W) block and one factorization of
``A_OO``.  The exterior-value solve reads only the O rows of the power.  No
N x N power is formed: a block is ``(V[rows] * lambda^s) @ V[cols].T``, and
rows against all columns go through the mode products.  ``A_OO`` is a
principal block of an SPD matrix (the truncated operator has no kernel), so
Cholesky factors it at half the cost of LU; its failure means the power lost
definiteness and raises SolveError.

This is the oracle route; it scales only to a few thousand nodes and exists
to cross-check the extension route, which scales.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import cho_factor, cho_solve, eigh_tridiagonal, lapack

from .errors import EigError, ParamError, SolveError
from .local_elliptic import LocalOperator

__all__ = [
    "SpectralPower",
    "tensor_block",
    "NonlocalDtN",
    "spectral_power",
    "solve_fractional_dirichlet",
    "nonlocal_dtn",
    "nonlocal_dtn_matrix",
]

DENSE_NODE_CAP = 5000

# columns per block solve (data blocks and the unit columns of the trace
# sums); bounds each dense temporary at _CHUNK * |T| * |L| doubles
_CHUNK = 8

# a 2D or 3D variable coefficient on at most this many active nodes holds a
# dense eigenbasis (route "eigh", at most 8 MB); past it the tensor block
# takes the sparse LU.  The crossover is in the module docstring.
_MODAL_NODE_CAP = 1000


def _eigh_clipped(A: np.ndarray, off: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of a symmetric PSD matrix, rounding negatives clipped to 0.

    With ``off`` given, A is the diagonal and ``off`` the off-diagonal of a
    symmetric tridiagonal matrix, solved by ``scipy.linalg.eigh_tridiagonal``.
    """
    try:
        lam, V = (np.linalg.eigh(A) if off is None
                  else eigh_tridiagonal(A, off))
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
            f"({DENSE_NODE_CAP}); the dense eigenbasis is desk-scale only"
        )
    return active


def _sine_eigenvalues(n: int, h: float) -> np.ndarray:
    """The eigenvalues ``(4/h**2) sin**2(pi j / (2(n-1)))``, j = 1..n-2, of
    the one-dimensional second difference ``tridiag(-1, 2, -1) / h**2`` on
    the n - 2 interior nodes of an axis of n nodes."""
    j = np.arange(1, n - 1)
    return 4.0 / h**2 * np.sin(np.pi * j / (2 * (n - 1))) ** 2


def _sine_basis(grid):
    """The closed-form a = Id basis: one DST-I factor per axis and the
    eigenvalues in the C order of the mode indices (ascending along each
    axis)."""
    factors = []
    lam = np.zeros(())
    for n, h in zip(grid.shape, grid.h):
        j = np.arange(1, n - 1)
        # the integer product is reduced mod 2(n-1) first, so every argument
        # of sin lies in [0, 2 pi) and keeps its rounding at that size
        phase = np.outer(j, j) % (2 * (n - 1))
        factors.append(np.sqrt(2.0 / (n - 1)) * np.sin(np.pi * phase / (n - 1)))
        lam = np.add.outer(lam, _sine_eigenvalues(n, h))
    return "sine", tuple(factors), lam.ravel()


def _basis_defect(grid, basis, K, m: float) -> tuple[float, float, float]:
    """``(||V||_F, ||K V - m V diag(lam)||_F, e)`` for a held basis
    ``(route, factors, lam)`` of the active-node stiffness K, without an N x
    N array, e a bound on ``||V^T V - I||_2``, which is also ``||V V^T -
    I||_2`` for a square V.

    The eigh route forms ``K V`` (one sparse-dense product) and takes e =
    ``||V^T V - I||_F``.  The sine route bounds the defect by its parts: the
    assembled K against m times the Kronecker sum ``Ks`` of the per-axis
    second differences D_k (O(nnz)), each factor's own defect ``D_k F_k -
    F_k diag(lam_k)``, and the held eigenvalues against the Kronecker sum of
    the ``lam_k``:

    ``||K V - m V L||_F <= ||K - m Ks||_F ||V||_F + m sum_k ||E_k||_F
    prod_(j != k) ||F_j||_F + m max|lam - sum_k lam_k| ||V||_F``,

    and e by ``prod_k (1 + ||F_k^T F_k - I||_F) - 1``, V^T V being the
    Kronecker product of the ``F_k^T F_k``.
    """
    route, factors, lam = basis
    if route != "sine":
        V = factors[0]
        K = sp.csr_matrix(K)
        # row blocks bound the temporaries at 256 rows of V
        sq = 0.0
        for r0 in range(0, V.shape[0], 256):
            E = K[r0:r0 + 256] @ V
            E -= V[r0:r0 + 256] * (m * lam)
            sq += float(np.einsum("ij,ij->", E, E))
        return float(np.linalg.norm(V)), float(np.sqrt(sq)), _orthogonality_defect(V)
    norms = [float(np.linalg.norm(F)) for F in factors]
    v_norm = float(np.prod(norms))
    Ks = sp.csr_matrix(K.shape)
    axis_lam = np.zeros(())
    defect, orth = 0.0, 1.0
    for k, (n, h, F) in enumerate(zip(grid.shape, grid.h, factors)):
        lam_k = _sine_eigenvalues(n, h)
        D = sp.diags([-np.ones(n - 3), 2.0 * np.ones(n - 2), -np.ones(n - 3)],
                     [-1, 0, 1]) / h**2
        before = int(np.prod([F.shape[0] for F in factors[:k]]))
        after = int(np.prod([F.shape[0] for F in factors[k + 1:]]))
        Ks = Ks + sp.kron(sp.kron(sp.identity(before), D), sp.identity(after))
        E = D @ F - F * lam_k
        defect += m * float(np.linalg.norm(E)) * v_norm / norms[k]
        axis_lam = np.add.outer(axis_lam, lam_k)
        orth *= 1.0 + _orthogonality_defect(F)
    diff = (sp.csr_matrix(K) - m * Ks).data
    defect += float(np.linalg.norm(diff)) * v_norm
    defect += m * float(np.max(np.abs(lam - axis_lam.ravel()))) * v_norm
    return v_norm, defect, orth - 1.0


def _orthogonality_defect(F: np.ndarray) -> float:
    """``||F^T F - I||_F``."""
    G = F.T @ F
    G[np.diag_indices_from(G)] -= 1.0
    return float(np.linalg.norm(G))


def _dense_basis(grid, K):
    """The one dense factor of ``K / m``: ``eigh_tridiagonal`` of its
    diagonal and off-diagonal in 1D, where K is tridiagonal, else a dense
    ``eigh`` of the symmetrized matrix; EigError past ``DENSE_NODE_CAP``."""
    _check_dense_cap(grid)
    m = grid.node_volume
    if grid.dim == 1:
        lam, V = _eigh_clipped(K.diagonal() / m,
                               0.5 * (K.diagonal(1) / m + K.diagonal(-1) / m))
    else:
        # symmetrized in place: the dense copy and one copy of its
        # transpose are the only N x N arrays before eigh (``A += A.T``
        # makes the same copy through numpy's overlap handling, slower)
        A = K.toarray()
        A /= m
        A += A.T.copy()
        A *= 0.5
        lam, V = _eigh_clipped(A)
    return "eigh", (V,), lam


def _eigenbasis(grid, coeff, K):
    """The eigenbasis of ``K / m`` (K the stiffness over the active nodes,
    m the node volume) as ``(route, factors, eigenvalues)``: the library's
    one route choice.

    * a = Id: the closed-form sine factors ("sine");
    * 1D, or 2D and 3D with at most ``_MODAL_NODE_CAP`` active nodes: the
      one dense factor of ``_dense_basis`` ("eigh");
    * otherwise None: the tensor block takes the sparse LU, and the oracle
      builds the dense factor for itself.

    The first two are held: built once per coefficient, kept on it with the
    grid they were built on, and returned read-only to every later call on
    that grid, whatever s or trace layout the caller has."""
    if coeff.is_identity():
        route = "sine"
    elif grid.dim == 1 or int(grid.active.sum()) <= _MODAL_NODE_CAP:
        route = "eigh"
    else:
        return None
    held = coeff._held_basis
    if held is None or held[0] is not grid:
        basis = _sine_basis(grid) if route == "sine" else _dense_basis(grid, K)
        for a in (*basis[1], basis[2]):
            a.flags.writeable = False
        held = coeff._held_basis = grid, basis
    return held[1]


def _factor_rows(factors, pos) -> np.ndarray:
    """Rows ``pos`` of the Kronecker product of ``factors`` (C order), each
    the product of one row of every factor."""
    idx = np.unravel_index(pos, tuple(F.shape[0] for F in factors))
    rows = factors[0][idx[0]]
    for F, i in zip(factors[1:], idx[1:]):
        rows = (rows[:, :, None] * F[i][:, None, :]).reshape(
            len(pos), rows.shape[1] * F.shape[1])
    return rows


def _mode_product(factors, X: np.ndarray, to_modes: bool) -> np.ndarray:
    """``X @ V`` (to_modes) or ``X @ V.T`` for X of shape (..., N), with V
    the Kronecker product of ``factors`` (C order): one contraction per
    factor; a vector is one row."""
    shape = X.shape
    modes = tuple(F.shape[0] for F in factors)
    X = X.reshape((int(np.prod(shape[:-1])),) + modes)
    for F in factors:
        # contracting axis 1 moves the result axis to the end, so after
        # every factor the axes are back in order; F.T is passed as the
        # transposed view, which BLAS reads in place (no copy of F)
        X = np.tensordot(X, F if to_modes else F.T, axes=([1], [0]))
    return X.reshape(shape)


@dataclass
class SpectralPower:
    """Fractional power of the truncated conductivity operator, held as its
    eigendecomposition.

    ``eigvals`` and the orthonormal eigenbasis V diagonalize
    K_active / node_volume.  V is the Kronecker product of ``factors`` in
    C order: the per-axis sine matrices for a = Id, or the single dense
    eigenvector matrix otherwise, so position p among the active nodes pairs
    with the mode whose multi-index unravels p over the factor sizes.
    ``apply`` realizes the power on full-grid arrays (frame nodes are
    identically zero) and ``matrix`` builds any block of it over the active
    nodes.
    """

    op: LocalOperator
    s: float
    active: np.ndarray
    eigvals: np.ndarray
    factors: tuple[np.ndarray, ...]

    @property
    def grid(self):
        return self.op.grid

    def eigvec_rows(self, pos=None) -> np.ndarray:
        """Rows of V at positions among the active nodes (None takes them
        all), each the Kronecker product of one row of every factor."""
        if pos is None:
            pos = np.arange(len(self.eigvals))
        return _factor_rows(self.factors, pos)

    def matrix(self, rows=None, cols=None) -> np.ndarray:
        """Block of the power over the active nodes: ``rows`` and ``cols``
        index positions among the active nodes (None takes them all), so the
        block costs len(rows) * len(cols) * N, not N^3.  With no arguments
        this is the full power."""
        if rows is None and cols is not None:
            return self.matrix(cols).T
        left = self.eigvec_rows(rows) * self.eigvals**self.s
        if cols is None:
            return _mode_product(self.factors, left, to_modes=False)
        return left @ self.eigvec_rows(cols).T

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Apply the power to a full-grid array, or to a block of them (one
        per column); returns the same shape."""
        out = np.zeros_like(u, dtype=float)
        coeff = _mode_product(self.factors, u[self.active].T, to_modes=True)
        out[self.active] = _mode_product(
            self.factors, self.eigvals**self.s * coeff, to_modes=False).T
        return out


def spectral_power(op: LocalOperator, s: float) -> SpectralPower:
    """Eigenbasis of the active-node operator (``_eigenbasis``, dense past
    the held sizes); action on an eigenvector with eigenvalue lambda is
    lambda**s times it."""
    if not 0.0 < s <= 1.0:
        raise ParamError(f"s must lie in (0, 1], got {s}")
    active = _check_dense_cap(op.grid)
    K = op.stiffness[active][:, active]
    _, factors, lam = _eigenbasis(op.grid, op.coeff, K) or _dense_basis(op.grid, K)
    return SpectralPower(op=op, s=s, active=active, eigvals=lam, factors=factors)


def _vertical_pencil(diag: np.ndarray, off: np.ndarray, nu: np.ndarray):
    """Eigenpairs of the tridiagonal pencil ``K phi = mu diag(nu) phi``: the
    vertical fast diagonalization, made only on the LU route
    (``_PencilBlock``; a held tangential basis needs none).

    ``diag`` and ``off`` are the diagonal and off-diagonal of K.  The pencil
    is reduced to the symmetric tridiagonal ``nu**-1/2 K nu**-1/2`` and solved
    by LAPACK ``dpteqr``, which keeps the small eigenvalues to relative
    accuracy although the graded weights span many orders of magnitude (a
    dense symmetric eigensolver loses them).  ``dpteqr`` needs a positive
    definite matrix, which K is: the Dirichlet top leaves the conductance of
    the last cell on its diagonal, even when the trace is free.  Returns
    ``mu`` and the nu-orthonormal eigenvectors as columns.
    """
    r = 1.0 / np.sqrt(nu)
    d = diag * r * r
    e = off * r[:-1] * r[1:]
    lam, _, z, info = lapack.dpteqr(d, e, np.eye(len(d)), compute_z=2)
    if info != 0:
        raise SolveError(f"vertical eigensolver failed (dpteqr info={info})")
    return lam, z * r[:, None]


class _ModalBlock:
    """The tensor block on a held tangential basis (route "sine" or
    "eigh"): ``K_T = m V diag(lam) V^T``, so the block splits into one
    vertical SPD tridiagonal ``m (K_L + lam_i N_L)`` per tangential mode i.
    The two level vectors of every right-hand side, v and e_0, are solved
    against all of them once, by one LAPACK ``dpttrf``/``dpttrs`` on the
    blocks stacked into one tridiagonal; only their profiles are kept,
    ``P[0]`` for v and ``P[1]`` for e_0 (levels x modes each).

    A solve is split in two so that a caller reading only a few level
    functionals of the solution never forms it: ``modes`` is the forward
    mode product of the data (the mode coefficients a_i and b_i of the two
    right-hand-side parts), and ``levels`` multiplies them by the profiles
    and makes the backward mode product.  Given the profiles contracted
    with a level map R (levels x r) per mode, ``contract(R)``, that is
    ``R^T P[0]`` and ``R^T P[1]``, the backward product runs over r rows
    instead of every level; the caller holds the contraction for as long as
    it repeats R.  ``rows`` forms every level at a few tangential positions
    only, from basis rows.  The block holds nothing per call, so concurrent
    solves are safe."""

    def __init__(self, basis, m, diag, off, nu, v, B, g):
        self.route, self._factors, self._lam = basis
        nL, nT = len(diag), len(self._lam)
        # the nT blocks stacked into one tridiagonal, with zero coupling
        # between consecutive blocks
        e = np.zeros((nT, nL))
        e[:, :-1] = m * off
        piv, mult, info = lapack.dpttrf(
            (m * (diag + np.multiply.outer(self._lam, nu))).ravel(), e.ravel()[:-1])
        if info != 0:
            raise SolveError(f"vertical tridiagonal factorization failed: dpttrf "
                             f"info {info} (leading minor not positive definite)")
        # the two right-hand sides as the columns of one Fortran-ordered
        # (N, 2) block, LAPACK's layout
        rhs = np.zeros((2, nT, nL))
        rhs[0] = v
        rhs[1, :, 0] = 1.0
        P = lapack.dpttrs(piv, mult, rhs.reshape(2, -1).T)[0].T.reshape(2, nT, nL)
        # levels x modes, contiguous along the modes as the solves read them
        self._P = np.ascontiguousarray(P.transpose(0, 2, 1))
        self._B, self._g = B, g
        # a single dense factor keeps its rows at B for the first free level
        # there; a Kronecker basis makes one backward product instead
        self._VB = self._factors[0][B] if len(self._factors) == 1 else None

    def modes(self, a: np.ndarray, xB) -> np.ndarray:
        """The mode coefficients ``V^T a`` and, with free trace nodes,
        ``V^T (g E_B xB)``, shape (1 or 2, k, modes)."""
        if not self._B.size:
            return _mode_product(self._factors, a.T[None], to_modes=True)
        if self._VB is not None:
            return np.stack([a.T @ self._factors[0], (self._g * xB.T) @ self._VB])
        R = np.zeros((2, a.shape[1], len(self._lam)))
        R[0] = a.T
        R[1][:, self._B] = self._g * xB.T
        return _mode_product(self._factors, R, to_modes=True)

    def contract(self, R: np.ndarray) -> np.ndarray:
        """The profiles contracted with the level map R (levels x r) per
        mode, ``R^T P[0]`` and ``R^T P[1]``, shape (2, r, modes)."""
        return np.einsum("lq,slt->sqt", R, self._P)

    def levels(self, modes: np.ndarray, out: np.ndarray, profiles=None) -> None:
        """Write ``sum_l R[l, q] X_l`` (X the block's solution, X_l its
        level l over T) into ``out[q]``, shape (r, T, k), from the
        contracted ``profiles = contract(R)``; with none, every level."""
        r, nT, k = out.shape
        P = (self._P if profiles is None else profiles)[:len(modes)]
        # (rows, columns, modes): each mode's profiles times its data
        Y = out.reshape(r, k, nT)
        np.einsum("sqt,sct->qct", P, modes, out=Y)
        out[:] = _mode_product(self._factors, Y, to_modes=False).transpose(0, 2, 1)

    def trace_level(self, modes: np.ndarray) -> np.ndarray:
        """The solution's first level at the free trace nodes B, shape
        (|B|, k)."""
        y = np.einsum("st,sct->ct", self._P[:len(modes), 0], modes)
        if self._VB is not None:
            return self._VB @ y.T
        return _mode_product(self._factors, y, to_modes=False)[:, self._B].T

    def rows(self, modes: np.ndarray, pos: np.ndarray) -> np.ndarray:
        """Every level of the solution at the positions ``pos`` among T,
        shape (levels, len(pos), k): the basis rows at pos times the data
        of each right-hand-side part, then its profiles, so no product over
        every level and mode is formed."""
        W = _factor_rows(self._factors, pos)
        k, nT = modes.shape[1], len(self._lam)
        X = np.zeros((self._P.shape[1], len(pos) * k))
        for P, a in zip(self._P, modes):
            # nT given, not -1: pos may be empty
            X += P @ (W[:, None, :] * a).reshape(len(pos) * k, nT).T
        return X.reshape(len(X), len(pos), k)

    def solve(self, a: np.ndarray, xB, out: np.ndarray) -> None:
        self.levels(self.modes(a, xB), out)

    def basis_defect(self, grid, K_T, m: float) -> tuple[float, float, float, int]:
        """``(||V||_F, ||K_T V - m V diag(lam)||_F, e, inner)`` of the held
        basis (``_basis_defect``, e its orthogonality defect), with
        ``inner`` the summed inner dimensions of one mode product (the
        rounding count of its sums)."""
        basis = (self.route, self._factors, self._lam)
        return (*_basis_defect(grid, basis, K_T, m),
                sum(F.shape[0] for F in self._factors))

    def trace_sums(self):
        V_B = _factor_rows(self._factors, self._B)
        G = (V_B * self._P[1, 0]) @ V_B.T
        return G, _mode_product(self._factors, V_B * self._P[0, 0], to_modes=False).T

    def residual_forms(self, m, diag, off, nu, v, w) -> np.ndarray:
        """The per-mode quadratic forms of the residual bound as one matrix
        Q, shape (4 modes, 3), from the held profiles and the vertical
        operator given here (the caller's, checked against the assembled
        stiffness, not the one the profiles were solved with).  For mode
        coefficients a and b, ``[a**2, 2 a b, 2 |a b|, b**2] @ Q`` (the
        blocks concatenated over the modes) sums over the modes i:

        * column 0: ``||a_i rho0_i + b_i rho1_i||**2``, rho the profile
          residuals ``m (K_L + lam_i N) P[0]_i - v`` and ``... P[1]_i -
          e_0``;
        * column 1: ``||N (a_i P[0]_i + b_i P[1]_i)||**2``;
        * column 2: ``||w (|a_i| |P[0]_i| + |b_i| |P[1]_i|)||**2``, the
          level weights w of the floating-point term.
        """
        P = self._P
        rho = m * (diag[:, None] + np.multiply.outer(nu, self._lam)) * P
        rho[:, :-1] += m * off[:, None] * P[:, 1:]
        rho[:, 1:] += m * off[:, None] * P[:, :-1]
        rho[0] -= v[:, None]
        rho[1, 0] -= 1.0
        nT = len(self._lam)
        Q = np.zeros((4, nT, 3))
        for f, pair in enumerate((rho, nu[:, None] * P, w[:, None] * np.abs(P))):
            gram = np.einsum("alt,blt->abt", pair, pair)
            Q[0, :, f], Q[3, :, f] = gram[0, 0], gram[1, 1]
            Q[1 if f < 2 else 2, :, f] = gram[0, 1]
        return Q.reshape(4 * nT, 3)


class _PencilBlock:
    """The tensor block with no held tangential basis (a 2D or 3D variable
    coefficient past ``_MODAL_NODE_CAP`` active nodes; route "lu"): the
    vertical pencil turns it into one shifted
    tangential solve ``(K_T + m mu_k) y_k = r_k`` per level, between the
    level transforms of the eigenvectors phi.  The J shifted blocks are
    factored as one block-diagonal sparse LU."""

    route = "lu"

    def __init__(self, K_T, m, diag, off, nu, v, B, g):
        mu, self._phi = _vertical_pencil(diag, off, nu)
        self._n = K_T.shape[0]
        blocks = sp.kron(sp.identity(len(mu), format="csc"), K_T, format="csc")
        blocks = blocks + sp.diags(np.repeat(m * mu, self._n), format="csc")
        try:
            # SPD blocks: symmetric ordering, no pivoting
            self._lu = spla.splu(blocks, permc_spec="MMD_AT_PLUS_A",
                                 diag_pivot_thresh=0.0,
                                 options={"SymmetricMode": True})
        except RuntimeError as exc:
            raise SolveError(f"shifted tangential factorization failed: {exc}") from exc
        # the level vectors in the eigenbasis: c = phi^T v and phi(1)
        self._c = self._phi.T @ v
        self._B, self._gw = B, g * self._phi[0]

    def shifted_solve(self, Y: np.ndarray) -> np.ndarray:
        """``(K_T + m mu_k)^-1 Y[k]`` for Y of shape (levels, T, columns)."""
        return self._lu.solve(Y.reshape(-1, Y.shape[2])).reshape(Y.shape)

    def separable_rhs(self, a: np.ndarray, out=None) -> np.ndarray:
        """``v (x) a`` in the vertical eigenbasis, shape (levels, T, k)."""
        return np.multiply.outer(self._c, a, out=out)

    def solve(self, a: np.ndarray, xB, out: np.ndarray) -> None:
        nL = out.shape[0]
        self.separable_rhs(a, out=out)
        if self._B.size:
            out[:, self._B] += np.multiply.outer(self._gw, xB)
        Y = self.shifted_solve(out)
        np.matmul(self._phi, Y.reshape(nL, -1), out=out.reshape(nL, -1))

    def trace_sums(self):
        """The level-weighted sums of the shifted inverses, w = phi(1):
        ``G = sum_k w_k**2 [(K_T + m mu_k)^-1]_BB`` and ``H = sum_k c_k w_k
        [(K_T + m mu_k)^-1]_{:,B}``, from solves of the unit columns ``w (x)
        e_b``, _CHUNK at a time."""
        B, w, c = self._B, self._phi[0], self._c
        G, H = np.empty((len(B), len(B))), np.empty((self._n, len(B)))
        for c0 in range(0, len(B), _CHUNK):
            cols = B[c0:c0 + _CHUNK]
            R = np.zeros((len(w), self._n, len(cols)))
            R[:, cols, np.arange(len(cols))] = w[:, None]
            Y = self.shifted_solve(R)
            G[:, c0:c0 + len(cols)] = np.tensordot(w, Y[:, B], axes=(0, 0))
            H[:, c0:c0 + len(cols)] = np.tensordot(c, Y, axes=(0, 0))
        return G, H


def tensor_block(grid, coeff, K_T: sp.csc_matrix, m: float, diag: np.ndarray,
                 off: np.ndarray, nu: np.ndarray, v: np.ndarray,
                 B: np.ndarray, g: float):
    """Solver of the extension's free tensor block ``K_T (x) N + m I (x)
    K_L`` on T x L, K_L the vertical operator of diagonal ``diag`` and
    off-diagonal ``off`` on the free levels and ``N = diag(nu)``, for the
    right-hand sides ``v (x) a + g e_0 (x) E_B xB``: the level vector v
    times a tangential array a, plus the coupling of the first level to the
    free trace nodes B (positions among T) of conductance g.  The route is
    chosen once, here, by ``_eigenbasis`` and read back from ``route``:
    "sine" (a = Id) or "eigh" (1D, or 2D and 3D up to ``_MODAL_NODE_CAP``
    active nodes) per-mode profiles on the held basis, else the vertical
    pencil's "lu".

    ``solve(a, xB, out)`` writes the solution for a of shape (T, k) and xB
    of shape (|B|, k) (None when B is empty) into out, (levels, T, k).
    ``trace_sums()`` returns the first-level entries of the block's inverse
    the trace closure needs: ``G = [block^-1]_{0B, 0B}`` and, on every
    tangential node, ``H = [block^-1 (v (x) E_B)]_0`` of shape (T, |B|).
    A held-basis block also solves without forming the solution: ``modes``,
    then ``levels`` with the profiles ``contract(R)`` of a level map R (the
    functionals ``R^T X``), ``rows`` (every level at a few positions of T)
    and ``trace_level`` (the first level at B); ``basis_defect`` and
    ``residual_forms`` give the parts of the contracted solve's residual
    bound.
    """
    basis = _eigenbasis(grid, coeff, K_T)
    if basis is None:
        return _PencilBlock(K_T, m, diag, off, nu, v, B, g)
    return _ModalBlock(basis, m, diag, off, nu, v, B, g)


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

    ``f`` is a finite full-grid array supported on the measurement region,
    or a block of them of shape (N, k); the returned full-grid field equals
    f on the exterior nodes and the power applied to it vanishes on the
    closed interior region (solved with the interior rows of the power).  A
    block costs one build of those rows and one Cholesky factorization, like
    one datum.  Non-finite data raise ParamError.
    """
    grid = P.grid
    f = np.asarray(f, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ParamError("exterior data contains non-finite values")
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
    # the power applied on the measurement rows only; a block is one row
    # per column
    coeff = P.eigvals**P.s * _mode_product(P.factors, u[P.active].T, to_modes=True)
    out = np.zeros((len(w_active),) + u.shape[1:])
    out[w_active] = P.eigvec_rows(w) @ coeff.T
    return out


@dataclass
class NonlocalDtN:
    """Dense nonlocal measurement map in the nodal basis on the region W.

    Symmetric with respect to the quadrature pairing <f, g> = volume * sum(fg),
    the discrete stand-in for the (H^s, H^{-s}) duality it acts between.
    """

    w_indices: np.ndarray
    matrix: np.ndarray
    weight: float

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
        w_indices=widx,
        matrix=M,
        weight=grid.node_volume,
    )
