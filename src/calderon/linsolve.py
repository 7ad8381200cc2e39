"""Sparse LU solves with a residual check.

Serves only the local interior solves of ``local_elliptic``; the extension
problem has its own tensor-structured solver in ``extension``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SolveError


class Factorized:
    """Reusable sparse LU solver for one SPD matrix.  Every solve checks its
    relative residual; a miss raises SolveError."""

    def __init__(self, A: sp.spmatrix):
        self.A = A.tocsc()
        self.n = A.shape[0]
        try:
            self._lu = spla.splu(self.A)
        except Exception as exc:  # pragma: no cover
            raise SolveError(f"factorization failed: {exc}") from exc

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve for a vector or an (n, k) block; zero columns are skipped."""
        b = np.asarray(b, dtype=float)
        B = b if b.ndim == 2 else b[:, None]
        X = np.zeros_like(B)
        live = np.flatnonzero(np.any(B != 0.0, axis=0))
        if live.size:
            X[:, live] = self._lu.solve(B[:, live])
        rel = (np.linalg.norm(self.A @ X[:, live] - B[:, live], axis=0)
               / np.linalg.norm(B[:, live], axis=0))
        if not np.all(rel <= 1e-8):
            raise SolveError(f"linear solve residual {np.max(rel):.2e} exceeds tolerance")
        return X.reshape(b.shape)
