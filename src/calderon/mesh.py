"""Discrete geometry: tensor grids, node masks, and the graded vertical mesh.

The tangential grid is a uniform tensor grid on an axis-aligned computational
box that covers two disjoint axis-aligned boxes: the interior region (where
the conductivity equation is posed) and the measurement region sitting in its
exterior.  Node masks classify every node as interior, boundary, or exterior
of the interior region; the measurement mask is a subset of the exterior.

The vertical mesh carries the extra dimension of the degenerate extension
problem.  Levels are graded toward zero, ``y_j = M (j/J)**gamma``, and each
cell stores the exact weighted measure ``int t**(1-2s) dt`` so that the
singular weight is never sampled pointwise at t = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import OverlapError, ParamError, ResolutionError

__all__ = [
    "GeometrySpec",
    "TangentialGrid",
    "VerticalMesh",
    "ExtensionMesh",
    "build_tangential_grid",
    "build_vertical_mesh",
    "build_extension_mesh",
    "DEFAULT_PADDING",
    "default_boxes",
    "default_grading",
    "default_height",
]


@dataclass(frozen=True)
class GeometrySpec:
    """Axis-aligned boxes for the interior region and the measurement region.

    ``nodes`` is the node count per axis of the overall computational box,
    which is the bounding box of the two regions expanded by ``padding`` on
    every side.  Box corners are snapped to the nearest grid node.
    """

    dim: int
    omega_box: tuple[tuple[float, float], ...]
    w_box: tuple[tuple[float, float], ...]
    nodes: int | tuple[int, ...]
    padding: float = 0.0

    def nodes_per_axis(self) -> tuple[int, ...]:
        if isinstance(self.nodes, int):
            return (self.nodes,) * self.dim
        return tuple(self.nodes)


@dataclass
class TangentialGrid:
    """Uniform tensor grid with node masks for the two regions.

    Masks are flat boolean arrays over the C-ordered node enumeration.
    ``omega_interior``, ``omega_boundary`` and ``exterior`` partition the
    nodes; ``w_mask`` marks the (closed) measurement region inside the
    exterior.  Instances are immutable by convention: nothing mutates them
    after construction, so they are safe to share across threads.
    """

    dim: int
    lo: np.ndarray
    hi: np.ndarray
    shape: tuple[int, ...]
    axes: list[np.ndarray]
    h: np.ndarray
    omega_interior: np.ndarray
    omega_boundary: np.ndarray
    w_mask: np.ndarray
    omega_idx: tuple[tuple[int, int], ...]  # snapped index range of the interior box

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def omega_closure(self) -> np.ndarray:
        return self.omega_interior | self.omega_boundary

    @property
    def exterior(self) -> np.ndarray:
        return ~self.omega_closure

    @property
    def active(self) -> np.ndarray:
        """Nodes strictly inside the computational box (zero-Dirichlet frame)."""
        m = np.ones(self.shape, dtype=bool)
        for ax in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[ax] = 0
            m[tuple(sl)] = False
            sl[ax] = -1
            m[tuple(sl)] = False
        return m.ravel()

    @property
    def node_volume(self) -> float:
        return float(np.prod(self.h))

    @property
    def points(self) -> np.ndarray:
        """(num_nodes, dim) coordinates in C order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @property
    def boundary_indices(self) -> np.ndarray:
        return np.flatnonzero(self.omega_boundary)

    @property
    def w_indices(self) -> np.ndarray:
        return np.flatnonzero(self.w_mask)

    def boundary_weights(self) -> np.ndarray:
        """Surface quadrature weight of each boundary node (dual patch area).

        A node on a face with normal axis k contributes the product of the
        tangential spacings, halved along every axis where the node sits on
        an edge of that face.
        """
        idx = np.array(np.unravel_index(self.boundary_indices, self.shape)).T
        weights = np.zeros(len(idx))
        for k in range(self.dim):
            lo_k, hi_k = self.omega_idx[k]
            on_face = (idx[:, k] == lo_k) | (idx[:, k] == hi_k)
            patch = np.ones(len(idx))
            for ell in range(self.dim):
                if ell == k:
                    continue
                lo_e, hi_e = self.omega_idx[ell]
                on_edge = (idx[:, ell] == lo_e) | (idx[:, ell] == hi_e)
                patch *= self.h[ell] * np.where(on_edge, 0.5, 1.0)
            weights += np.where(on_face, patch, 0.0)
        if self.dim == 1:
            weights[:] = 1.0
        return weights


def _snap(axis: np.ndarray, value: float) -> int:
    return int(np.argmin(np.abs(axis - value)))


def build_tangential_grid(spec: GeometrySpec) -> TangentialGrid:
    """Build the tensor grid and node masks from a geometry spec.

    Raises ResolutionError when a snapped box degenerates (fewer than three
    nodes along an axis leaves no interior node) and OverlapError when the
    snapped closures touch: a gap of at least one node is required between
    the interior region and the measurement region.
    """
    n = spec.dim
    if n not in (1, 2, 3):
        raise ParamError(f"dim must be 1, 2 or 3, got {n}")
    nodes = spec.nodes_per_axis()
    if len(nodes) != n:
        raise ParamError("nodes must give one count per axis")
    if any(N < 4 for N in nodes):
        raise ParamError(f"need at least 4 nodes per axis, got {nodes}")
    if spec.padding < 0:
        raise ParamError("padding must be >= 0")
    ob = np.asarray(spec.omega_box, dtype=float)
    wb = np.asarray(spec.w_box, dtype=float)
    if ob.shape != (n, 2) or wb.shape != (n, 2):
        raise ParamError("omega_box and w_box must each give (lo, hi) per axis")
    if np.any(ob[:, 0] >= ob[:, 1]) or np.any(wb[:, 0] >= wb[:, 1]):
        raise ParamError("box bounds must satisfy lo < hi on every axis")

    lo = np.minimum(ob[:, 0], wb[:, 0]) - spec.padding
    hi = np.maximum(ob[:, 1], wb[:, 1]) + spec.padding
    axes = [np.linspace(lo[k], hi[k], nodes[k]) for k in range(n)]
    h = np.array([ax[1] - ax[0] for ax in axes])

    def snap_box(box):
        return tuple(
            (_snap(axes[k], box[k, 0]), _snap(axes[k], box[k, 1])) for k in range(n)
        )

    omega_idx = snap_box(ob)
    w_range = snap_box(wb)
    for name, idx in (("omega", omega_idx), ("w", w_range)):
        for k, (a, b) in enumerate(idx):
            if b - a < 2:
                raise ResolutionError(
                    f"{name} box spans {b - a} cells along axis {k}; "
                    "increase the node count"
                )

    shape = tuple(nodes)

    def box_mask(idx, closed=True, interior=False):
        m = np.zeros(shape, dtype=bool)
        sl = []
        for a, b in idx:
            if interior:
                sl.append(slice(a + 1, b))
            else:
                sl.append(slice(a, b + 1))
        m[tuple(sl)] = True
        return m

    omega_cl = box_mask(omega_idx)
    omega_in = box_mask(omega_idx, interior=True)
    w_cl = box_mask(w_range)

    dilated = ndimage.binary_dilation(omega_cl, structure=np.ones((3,) * n, bool))
    if np.any(dilated & w_cl):
        # physically touching closures are a geometry error; disjoint boxes
        # whose snapped masks touch are a resolution problem
        boxes_disjoint = any(
            ob[k, 1] < wb[k, 0] or wb[k, 1] < ob[k, 0] for k in range(n)
        )
        if boxes_disjoint:
            raise ResolutionError(
                "grid too coarse to separate the regions by a one-node gap; "
                "increase the node count"
            )
        raise OverlapError(
            "interior and measurement closures touch on the grid "
            "(need a gap of at least one node)"
        )

    grid = TangentialGrid(
        dim=n,
        lo=lo,
        hi=hi,
        shape=shape,
        axes=axes,
        h=h,
        omega_interior=omega_in.ravel(),
        omega_boundary=(omega_cl & ~omega_in).ravel(),
        w_mask=w_cl.ravel(),
        omega_idx=omega_idx,
    )
    # every boundary node must see an interior node in its 3^n neighbourhood
    reach = ndimage.binary_dilation(omega_in, structure=np.ones((3,) * n, bool))
    if not np.all(reach.ravel()[grid.boundary_indices]):
        raise ResolutionError("a boundary node has no adjacent interior node")
    return grid


# margin between the regions' bounding box and the computational box's frame
DEFAULT_PADDING = 0.9


def default_boxes(dim: int):
    """The default regions: unit interior box, measurement box to its right."""
    omega = tuple((0.0, 1.0) for _ in range(dim))
    return omega, ((1.5, 2.1),) + omega[1:]


def default_grading(s: float) -> float:
    """Grading exponent resolving the y**(2s) boundary layer, clamped to [1, 6].

    Grading stronger than ~3/(2s) buys nothing for s >= 1/2 and, for large s,
    produces first-cell conductances so extreme that the linear systems lose
    all accuracy, so the rule is tied to the layer exponent alone.
    """
    return float(min(max(3.0 / (2.0 * s), 1.0), 6.0))


def default_height(grid: TangentialGrid) -> float:
    """Truncation height for the laterally truncated extension.

    With zero Dirichlet data on the lateral frame the extension decays like
    exp(-sqrt(lambda_1) y); the default places the top where that factor is
    below ~2.5e-3.
    """
    lengths = grid.hi - grid.lo
    kappa = float(np.sqrt(np.sum((np.pi / lengths) ** 2)))
    return 6.0 / kappa


@dataclass
class VerticalMesh:
    """Graded levels 0 = y_0 < ... < y_J = M with exact weighted cell measures.

    ``cell_measures[j]`` is ``int_{y_j}^{y_{j+1}} t**(1-2s) dt`` in closed
    form; the measures sum to ``M**(2-2s) / (2-2s)`` exactly.
    """

    s: float
    height: float
    grading: float
    levels: np.ndarray
    cell_measures: np.ndarray = field(init=False)

    def __post_init__(self):
        y = self.levels
        e = 2.0 - 2.0 * self.s
        self.cell_measures = (y[1:] ** e - y[:-1] ** e) / e

    @property
    def num_levels(self) -> int:
        return len(self.levels) - 1

    def cell_resistances(self) -> np.ndarray:
        """``int_{y_j}^{y_{j+1}} t**(2s-1) dt`` per cell.

        The reciprocal is the exact two-point conductance of the weighted
        flux ``t**(1-2s) u'``; this makes constants and the ``y**(2s)``
        layer profile exact solutions of the discrete vertical operator.
        """
        y = self.levels
        return (y[1:] ** (2 * self.s) - y[:-1] ** (2 * self.s)) / (2 * self.s)

    def level_weights(self) -> np.ndarray:
        """Level weights ``nu_j``: half the weighted measure of each cell at
        level j, summing to the whole weighted measure ``height**(2-2s) / (2-2s)``.

        The one vertical quadrature: the extension's stiffness is
        ``K_T (x) diag(nu) + m (x) K_vert``, and the bridged integral is
        ``v = sum_j nu_j u_j``.
        """
        nu = np.zeros(len(self.levels))
        nu[:-1] += self.cell_measures / 2
        nu[1:] += self.cell_measures / 2
        return nu


def build_vertical_mesh(
    s: float, height: float, levels: int, grading: float | None = None
) -> VerticalMesh:
    """Graded vertical mesh ``y_j = height * (j/levels)**grading``."""
    if not 0.0 < s < 1.0:
        raise ParamError(f"s must lie in (0, 1), got {s}")
    if height <= 0:
        raise ParamError("height must be positive")
    if levels < 8:
        raise ParamError("need at least 8 vertical levels")
    if grading is None:
        grading = default_grading(s)
    if grading < 1.0:
        raise ParamError("grading exponent must be >= 1")
    j = np.arange(levels + 1, dtype=float)
    y = height * (j / levels) ** grading
    return VerticalMesh(s=s, height=float(height), grading=float(grading), levels=y)


@dataclass
class ExtensionMesh:
    """Tensor product of a tangential grid and a vertical mesh.

    Global node index of tangential node i at level j is ``i * (J+1) + j``,
    a bijection onto ``range(num_nodes)``.
    """

    grid: TangentialGrid
    vertical: VerticalMesh

    @property
    def num_nodes(self) -> int:
        return self.grid.num_nodes * (self.vertical.num_levels + 1)

    def index(self, i, j):
        return np.asarray(i) * (self.vertical.num_levels + 1) + np.asarray(j)

    def trace_indices(self) -> np.ndarray:
        return self.index(np.arange(self.grid.num_nodes), 0)


def build_extension_mesh(grid: TangentialGrid, vertical: VerticalMesh) -> ExtensionMesh:
    return ExtensionMesh(grid=grid, vertical=vertical)
