"""Symmetric uniformly elliptic coefficient fields on the tangential grid.

Coefficients are diagonal matrix fields a(x') = diag(a_1(x'), ..., a_n(x')),
stored nodally.  Diagonal anisotropy is the scope of the conservative
face-averaged discretization used throughout; general symmetric off-diagonal
entries would require a different stencil family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EllipticityError, ParamError
from .mesh import TangentialGrid

__all__ = [
    "Coefficient",
    "identity_coefficient",
    "diagonal_coefficient",
    "coefficient_from_spec",
    "mollifier_bump",
]


@dataclass
class Coefficient:
    """Nodal diagonal coefficient field with ellipticity bounds.

    ``diag`` has shape (num_nodes, dim).  ``identity_outside`` asserts
    a = Id at every exterior node, the standing hypothesis for relating
    the local and nonlocal measurement maps.
    """

    grid: TangentialGrid
    diag: np.ndarray
    identity_outside: bool = False

    def __post_init__(self):
        self.diag = np.asarray(self.diag, dtype=float)
        if self.diag.shape != (self.grid.num_nodes, self.grid.dim):
            raise ParamError(
                f"coefficient table has shape {self.diag.shape}, expected "
                f"{(self.grid.num_nodes, self.grid.dim)}"
            )
        if not np.all(np.isfinite(self.diag)):
            raise EllipticityError("coefficient contains non-finite entries")
        if self.lam_min <= 0:
            raise EllipticityError(
                f"coefficient loses ellipticity: smallest eigenvalue {self.lam_min}"
            )
        if self.identity_outside:
            ext = self.grid.exterior
            if not np.allclose(self.diag[ext], 1.0, atol=1e-12):
                raise EllipticityError(
                    "identity_outside set but coefficient != Id at exterior nodes"
                )

    @property
    def lam_min(self) -> float:
        return float(self.diag.min())

    @property
    def lam_max(self) -> float:
        return float(self.diag.max())

    def is_identity(self) -> bool:
        return bool(np.allclose(self.diag, 1.0, atol=1e-14))


def identity_coefficient(grid: TangentialGrid) -> Coefficient:
    diag = np.ones((grid.num_nodes, grid.dim))
    return Coefficient(grid=grid, diag=diag, identity_outside=True)


def mollifier_bump(points: np.ndarray, center, width: float) -> np.ndarray:
    """Smooth compactly supported bump, value 1 at the center, 0 for r >= width."""
    r2 = np.sum((points - np.asarray(center)) ** 2, axis=1) / width**2
    out = np.zeros(len(points))
    inside = r2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
    return out


def diagonal_coefficient(
    grid: TangentialGrid, entries, identity_outside: bool = False
) -> Coefficient:
    """Build a diagonal coefficient from per-axis callables or nodal arrays.

    When ``identity_outside`` is set the exterior nodes are overwritten with
    identity before validation, mirroring the a = Id hypothesis there.
    """
    pts = grid.points
    diag = np.empty((grid.num_nodes, grid.dim))
    for k, entry in enumerate(entries):
        if callable(entry):
            diag[:, k] = entry(pts)
        else:
            diag[:, k] = np.asarray(entry, dtype=float).ravel()
    if identity_outside:
        diag[grid.exterior] = 1.0
    return Coefficient(grid=grid, diag=diag, identity_outside=identity_outside)


def _eval_expression(expr: dict, pts: np.ndarray) -> np.ndarray:
    vals = np.full(len(pts), float(expr.get("const", 0.0)))
    for term in expr.get("poly", []):
        powers = np.asarray(term["powers"], dtype=float)
        vals += float(term["coef"]) * np.prod(pts**powers, axis=1)
    for bump in expr.get("bumps", []):
        vals += float(bump["amplitude"]) * mollifier_bump(
            pts, bump["center"], float(bump["width"])
        )
    return vals


def coefficient_from_spec(grid: TangentialGrid, spec) -> Coefficient:
    """Coefficient from the config grammar.

    Accepted forms:
      * ``"identity"``
      * ``{"type": "diagonal", "entries": [expr, ...], "identity_outside": bool}``
        where expr = {"const": c, "poly": [{"coef": c, "powers": [...]}, ...],
        "bumps": [{"amplitude": a, "center": [...], "width": w}, ...]}
      * ``{"type": "table", "values": [...], "identity_outside": bool}`` with
        one nodal array per axis.

    Bump amplitudes are validated through the ellipticity check: any entry
    driven to zero or below raises EllipticityError.
    """
    if spec == "identity" or spec is None:
        return identity_coefficient(grid)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ParamError(f"unrecognized coefficient spec: {spec!r}")
    identity_outside = bool(spec.get("identity_outside", False))
    if spec["type"] == "identity":
        return identity_coefficient(grid)
    if spec["type"] == "diagonal":
        entries = spec["entries"]
        if len(entries) != grid.dim:
            raise ParamError(
                f"diagonal coefficient needs {grid.dim} entries, got {len(entries)}"
            )
        return diagonal_coefficient(
            grid, [_eval_expression(e, grid.points) for e in entries],
            identity_outside=identity_outside,
        )
    if spec["type"] == "table":
        return diagonal_coefficient(
            grid, spec["values"], identity_outside=identity_outside
        )
    raise ParamError(f"unknown coefficient type {spec['type']!r}")
