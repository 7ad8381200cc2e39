import numpy as np
import pytest

import calderon as cd


def make_grid(dim=1, nodes=64, padding=0.9):
    """Standard test geometry: unit interior box, measurement box to its right."""
    omega = tuple((0.0, 1.0) for _ in range(dim))
    w = ((1.5, 2.1),) + tuple((0.0, 1.0) for _ in range(dim - 1))
    spec = cd.GeometrySpec(dim=dim, omega_box=omega, w_box=w, nodes=nodes,
                           padding=padding)
    return cd.build_tangential_grid(spec)


def w_bump(grid, center=None, width=None):
    widx = grid.w_indices
    wpts = grid.points[widx]
    if center is None:
        center = wpts.mean(axis=0)
    if width is None:
        width = 0.45 * float(np.max(wpts.max(axis=0) - wpts.min(axis=0)))
    f = np.zeros(grid.num_nodes)
    f[widx] = cd.mollifier_bump(wpts, center, width)
    return f


def assert_same_sparse(A, B, rtol):
    """Same sparsity pattern, values within rtol of B's largest entry."""
    A, B = A.tocsr(), B.tocsr()
    A.sort_indices()
    B.sort_indices()
    assert A.nnz == B.nnz
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert np.max(np.abs(A.data - B.data)) <= rtol * np.max(np.abs(B.data))


@pytest.fixture(scope="session")
def grid64():
    return make_grid(nodes=64)


@pytest.fixture(scope="session")
def ident64(grid64):
    return cd.identity_coefficient(grid64)


@pytest.fixture(scope="session")
def op64(grid64, ident64):
    return cd.assemble_local(grid64, ident64)


@pytest.fixture(scope="session")
def power_half(op64):
    return cd.spectral_power(op64, 0.5)


@pytest.fixture(scope="session")
def pipeline_half(grid64, ident64):
    return cd.BridgePipeline(grid64, ident64, 0.5, levels=64)
