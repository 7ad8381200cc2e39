"""Sparse linear solves with a size-based direct/iterative switch.

Serves only the local interior solves of ``local_elliptic``; the extension
problem has its own tensor-structured solver in ``extension``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolveError

DIRECT_LIMIT = 200_000
CG_TOL = 1e-10


class Factorized:
    """Reusable solver for one SPD matrix: direct factorization below
    DIRECT_LIMIT unknowns, Jacobi-preconditioned conjugate gradients above.
    Every solve checks its relative residual; a miss raises SolveError."""

    def __init__(self, A: sp.spmatrix):
        self.A = A.tocsc()
        self.n = A.shape[0]
        if self.n <= DIRECT_LIMIT:
            try:
                self._lu = spla.splu(self.A)
            except Exception as exc:  # pragma: no cover
                raise SolveError(f"factorization failed: {exc}") from exc
        else:
            self._lu = None
            d = A.diagonal()
            self._M = sp.diags(1.0 / np.where(d > 0, d, 1.0))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for a vector or an (n, k) block; zero columns are skipped."""
        b = np.asarray(b, dtype=float)
        B = b if b.ndim == 2 else b[:, None]
        X = np.zeros_like(B)
        live = np.flatnonzero(np.any(B != 0.0, axis=0))
        if self._lu is None:
            for j in live:
                X[:, j], info = spla.cg(
                    self.A, B[:, j], rtol=CG_TOL,
                    maxiter=50 * int(np.sqrt(self.n)) + 1000, M=self._M,
                )
                if info != 0:
                    raise SolveError(f"conjugate gradients did not converge (info={info})")
        elif live.size:
            X[:, live] = self._lu.solve(B[:, live])
        rel = (np.linalg.norm(self.A @ X[:, live] - B[:, live], axis=0)
               / np.linalg.norm(B[:, live], axis=0))
        if not np.all(rel <= 1e-8):
            raise SolveError(f"linear solve residual {np.max(rel):.2e} exceeds tolerance")
        return X.reshape(b.shape)
