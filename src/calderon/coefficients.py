"""Symmetric uniformly elliptic coefficient fields on the tangential grid.

Coefficients are diagonal matrix fields a(x') = diag(a_1(x'), ..., a_n(x')),
stored nodally.  Diagonal anisotropy is the scope of the conservative
face-averaged discretization used throughout; general symmetric off-diagonal
entries would require a different stencil family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EllipticityError, ParamError
from .mesh import TangentialGrid

__all__ = [
    "Coefficient",
    "identity_coefficient",
    "diagonal_coefficient",
    "coefficient_from_spec",
    "mollifier_bump",
    "w_bump",
]


@dataclass
class Coefficient:
    """Nodal diagonal coefficient field with ellipticity bounds.

    ``diag`` has shape (num_nodes, dim).  ``identity_outside`` asserts
    a = Id at every exterior node, the standing hypothesis for relating
    the local and nonlocal measurement maps.  ``diag`` is a read-only copy
    of the table given, so a coefficient never changes after validation,
    and the eigenbasis ``fractional_core`` builds for it once is kept on it.
    """

    grid: TangentialGrid
    diag: np.ndarray
    identity_outside: bool = False
    # (grid, basis) of fractional_core._eigenbasis, or None
    _held_basis: tuple | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def __post_init__(self):
        self.diag = np.array(self.diag, dtype=float)
        self.diag.flags.writeable = False
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
            if not np.allclose(self.diag[ext], 1.0, rtol=0.0, atol=1e-12):
                raise EllipticityError(
                    "identity_outside set but coefficient != Id at exterior nodes"
                )

    @property
    def lam_min(self) -> float:
        return float(self.diag.min())

    def is_identity(self) -> bool:
        return bool(np.allclose(self.diag, 1.0, rtol=0.0, atol=1e-14))


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


def w_bump(grid: TangentialGrid, center=None, width=None) -> np.ndarray:
    """The default exterior datum: a mollifier bump on the measurement nodes,
    zero elsewhere, centred by default at their mean with a width of 0.45
    times their largest extent."""
    widx = grid.w_indices
    wpts = grid.points[widx]
    if center is None:
        center = wpts.mean(axis=0)
    if width is None:
        width = 0.45 * float(np.max(wpts.max(axis=0) - wpts.min(axis=0)))
    f = np.zeros(grid.num_nodes)
    f[widx] = mollifier_bump(wpts, center, width)
    return f


def diagonal_coefficient(
    grid: TangentialGrid, entries, identity_outside: bool = False
) -> Coefficient:
    """Build a diagonal coefficient from per-axis callables or nodal arrays,
    one per axis and one value per node each, else ParamError.

    When ``identity_outside`` is set the exterior nodes are overwritten with
    identity before validation, mirroring the a = Id hypothesis there.
    """
    if len(entries) != grid.dim:
        raise ParamError(f"diagonal coefficient needs {grid.dim} entries, "
                         f"got {len(entries)}")
    pts = grid.points
    diag = np.empty((grid.num_nodes, grid.dim))
    for k, entry in enumerate(entries):
        values = np.asarray(entry(pts) if callable(entry) else entry, dtype=float).ravel()
        if values.shape != (grid.num_nodes,):
            raise ParamError(f"coefficient entry {k} has {values.size} values, "
                             f"expected one per node ({grid.num_nodes})")
        diag[:, k] = values
    if identity_outside:
        diag[grid.exterior] = 1.0
    return Coefficient(grid=grid, diag=diag, identity_outside=identity_outside)


def _per_axis(values, dim: int, name: str) -> np.ndarray:
    """``values`` as a float array of one entry per axis, else ParamError."""
    x = np.asarray(values, dtype=float)
    if x.shape != (dim,):
        raise ParamError(f"{name} needs {dim} entries, one per axis, got {values!r}")
    return x


def _eval_expression(expr: dict, pts: np.ndarray) -> np.ndarray:
    dim = pts.shape[1]
    vals = np.full(len(pts), float(expr.get("const", 0.0)))
    for term in expr.get("poly", []):
        powers = _per_axis(term["powers"], dim, "poly powers")
        vals += float(term["coef"]) * np.prod(pts**powers, axis=1)
    for bump in expr.get("bumps", []):
        vals += float(bump["amplitude"]) * mollifier_bump(
            pts, _per_axis(bump["center"], dim, "bump center"), float(bump["width"])
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
    driven to zero or below raises EllipticityError; a bump center, poly
    powers or table not of one entry per axis (a table entry: per node) raise
    ParamError.
    """
    if spec == "identity" or spec is None:
        return identity_coefficient(grid)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ParamError(f"unrecognized coefficient spec: {spec!r}")
    identity_outside = bool(spec.get("identity_outside", False))
    if spec["type"] == "identity":
        return identity_coefficient(grid)
    if spec["type"] == "diagonal":
        return diagonal_coefficient(
            grid, [_eval_expression(e, grid.points) for e in spec["entries"]],
            identity_outside=identity_outside,
        )
    if spec["type"] == "table":
        return diagonal_coefficient(
            grid, spec["values"], identity_outside=identity_outside
        )
    raise ParamError(f"unknown coefficient type {spec['type']!r}")
