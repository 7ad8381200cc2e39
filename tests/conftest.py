import numpy as np
import pytest

import calderon as cd
from calderon import fractional_core
from calderon.coefficients import w_bump  # noqa: F401  (re-exported to the tests)
from calderon.mesh import DEFAULT_PADDING, default_boxes


def make_grid(dim=1, nodes=64, padding=DEFAULT_PADDING):
    """Standard test geometry: the default boxes, unit interior box and
    measurement box to its right."""
    omega, w = default_boxes(dim)
    spec = cd.GeometrySpec(dim=dim, omega_box=omega, w_box=w, nodes=nodes,
                           padding=padding)
    return cd.build_tangential_grid(spec)


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


@pytest.fixture
def lu_route(monkeypatch):
    """Every 2D and 3D variable coefficient takes the tensor block's sparse
    LU route, whatever its size; returns the cap it lowered to 0."""
    cap = fractional_core._MODAL_NODE_CAP
    monkeypatch.setattr(fractional_core, "_MODAL_NODE_CAP", 0)
    return cap
