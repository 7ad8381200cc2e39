import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import calderon as cd
from calderon import linsolve
from calderon.errors import EllipticityError, ParamError
from calderon.local_elliptic import boundary_flux

from conftest import make_grid


def interval_grid_5():
    """Interior region (0,1) carrying exactly 5 nodes, spacing 1/4."""
    spec = cd.GeometrySpec(dim=1, omega_box=((0.0, 1.0),), w_box=((1.5, 2.0),),
                           nodes=9, padding=0.0)
    return cd.build_tangential_grid(spec)


def test_identity_stiffness_is_tridiagonal_over_h():
    grid = interval_grid_5()
    op = cd.assemble_local(grid, cd.identity_coefficient(grid))
    h = grid.h[0]
    K = op.stiffness.toarray()
    i = 2  # interior node of the box
    assert K[i, i] == pytest.approx(2.0 / h)
    assert K[i, i - 1] == pytest.approx(-1.0 / h)
    assert K[i, i + 1] == pytest.approx(-1.0 / h)


def test_constant_field_zero_interior_residual(grid64, op64):
    r = op64.stiffness @ np.ones(grid64.num_nodes)
    assert np.max(np.abs(r)) < 1e-12


def test_diag_coefficient_linear_field_zero_residual():
    """Divergence form: a = diag(2,1) applied to v = x1 has zero residual."""
    grid = make_grid(dim=2, nodes=16)
    a = cd.diagonal_coefficient(grid, [lambda p: 2.0 + 0 * p[:, 0],
                                       lambda p: 1.0 + 0 * p[:, 0]])
    op = cd.assemble_local(grid, a)
    v = grid.points[:, 0]
    r = (op.stiffness @ v)[grid.active]
    assert np.max(np.abs(r)) < 1e-11


def test_ellipticity_error():
    grid = make_grid(nodes=32)
    with pytest.raises(EllipticityError):
        cd.diagonal_coefficient(grid, [lambda p: p[:, 0] - 10.0])


def test_identity_checks_are_absolute():
    """Identity is tested to an absolute tolerance only: numpy's default
    relative tolerance would pass entries up to 1 +- 1e-5."""
    grid = make_grid(nodes=32)
    diag = np.ones((grid.num_nodes, 1))
    diag[5] = 1.0 + 1e-9
    assert not cd.Coefficient(grid=grid, diag=diag).is_identity()
    assert cd.Coefficient(grid=grid, diag=np.ones_like(diag)).is_identity()
    diag[np.flatnonzero(grid.exterior)[0]] = 1.0 + 1e-7
    with pytest.raises(EllipticityError):
        cd.Coefficient(grid=grid, diag=diag, identity_outside=True)


def test_coefficient_table_is_read_only():
    """A coefficient validates a copy of its table and freezes it: a write
    in place raises, and a later write to the caller's array leaves the
    coefficient as it was."""
    grid = make_grid(nodes=32)
    diag = np.ones((grid.num_nodes, 1))
    a = cd.Coefficient(grid=grid, diag=diag)
    with pytest.raises(ValueError, match="read-only"):
        a.diag[0, 0] = 2.0
    diag[0] = 2.0
    assert a.is_identity()


def test_bump_amplitude_validated_against_ellipticity():
    grid = make_grid(nodes=32)
    spec = {"type": "diagonal",
            "entries": [{"const": 1.0,
                         "bumps": [{"amplitude": -1.5, "center": [0.5],
                                    "width": 0.4}]}]}
    with pytest.raises(EllipticityError):
        cd.coefficient_from_spec(grid, spec)


def test_dirichlet_constant_data(grid64, op64):
    g = np.ones(grid64.num_nodes)
    v = cd.solve_local_dirichlet(op64, g)
    closure = grid64.omega_closure
    assert np.max(np.abs(v[closure] - 1.0)) < 1e-11


def test_dirichlet_linear_exact(grid64, op64):
    """v(x) = x solves the constant-coefficient problem exactly on the grid."""
    g = grid64.points[:, 0].copy()
    v = cd.solve_local_dirichlet(op64, g)
    closure = grid64.omega_closure
    assert np.max(np.abs(v[closure] - g[closure])) < 1e-10


def test_dirichlet_harmonic_quadratic():
    """x1^2 - x2^2 is discrete-harmonic for the 5-point stencil."""
    grid = make_grid(dim=2, nodes=20)
    op = cd.assemble_local(grid, cd.identity_coefficient(grid))
    g = grid.points[:, 0] ** 2 - grid.points[:, 1] ** 2
    v = cd.solve_local_dirichlet(op, g)
    closure = grid.omega_closure
    assert np.max(np.abs(v[closure] - g[closure])) < 1e-9


def test_harmonic_quartic_convergence_order():
    """Interior error for Re((x1+i x2)^4) decays at observed order >= 1.8."""
    errors = []
    for nodes in (40, 79, 157):
        grid = make_grid(dim=2, nodes=nodes)
        op = cd.assemble_local(grid, cd.identity_coefficient(grid))
        x, y = grid.points[:, 0], grid.points[:, 1]
        g = x**4 - 6 * x**2 * y**2 + y**4
        v = cd.solve_local_dirichlet(op, g)
        closure = grid.omega_closure
        errors.append(np.max(np.abs(v[closure] - g[closure])))
    order1 = np.log2(errors[0] / errors[1])
    order2 = np.log2(errors[1] / errors[2])
    assert order1 >= 1.8 and order2 >= 1.8


def test_dtn_kills_constants(grid64, op64):
    flux = cd.local_dtn(op64, np.ones(grid64.num_nodes))
    assert np.max(np.abs(flux)) < 1e-11


def test_dtn_interval_linear_flux():
    """On (0,1) with data (0,1) the outward fluxes are (-1, +1); the node
    count is chosen so the box corners fall exactly on grid nodes."""
    grid = make_grid(nodes=40)
    op = cd.assemble_local(grid, cd.identity_coefficient(grid))
    g = np.zeros(grid.num_nodes)
    g[grid.boundary_indices] = [0.0, 1.0]
    flux = cd.local_dtn(op, g)
    assert flux == pytest.approx([-1.0, 1.0], abs=1e-10)


@pytest.fixture(scope="module")
def dtn_2d():
    grid = make_grid(dim=2, nodes=18)
    a = cd.diagonal_coefficient(
        grid,
        [lambda p: 1.0 + 0.3 * p[:, 0] ** 2, lambda p: 1.0 + 0.2 * p[:, 1]],
    )
    op = cd.assemble_local(grid, a)
    return grid, op, cd.local_dtn_matrix(op)


def test_dtn_matrix_matches_columnwise_solves(dtn_2d):
    """Brute-force column assembly agrees with the Schur-complement matrix."""
    grid, op, dtn = dtn_2d
    rng = np.random.default_rng(5)
    cols = rng.choice(len(grid.boundary_indices), size=4, replace=False)
    for j in cols:
        g = np.zeros(grid.num_nodes)
        g[grid.boundary_indices[j]] = 1.0
        flux = cd.local_dtn(op, g)
        assert np.allclose(flux, dtn.matrix[:, j], atol=1e-9)


def test_dtn_symmetry_in_quadrature_pairing(dtn_2d):
    grid, op, dtn = dtn_2d
    rng = np.random.default_rng(6)
    nb = len(grid.boundary_indices)
    for _ in range(5):
        g1 = rng.standard_normal(nb)
        g2 = rng.standard_normal(nb)
        p12 = dtn.pairing(dtn.matrix @ g1, g2)
        p21 = dtn.pairing(g1, dtn.matrix @ g2)
        assert abs(p12 - p21) <= 1e-10 * np.linalg.norm(g1) * np.linalg.norm(g2)


def test_dtn_positive_semidefinite(dtn_2d):
    grid, op, dtn = dtn_2d
    S = dtn.schur()
    eigs = np.linalg.eigvalsh(0.5 * (S + S.T))
    assert eigs.min() > -1e-10
    # kernel is exactly the constants
    assert np.sum(eigs < 1e-9) == 1


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_dtn_pairing_nonnegative(dtn_2d, data):
    grid, op, dtn = dtn_2d
    nb = len(grid.boundary_indices)
    g = np.array(data.draw(st.lists(
        st.floats(-5, 5, allow_nan=False), min_size=nb, max_size=nb)))
    q = dtn.pairing(dtn.matrix @ g, g)
    assert q >= -1e-9 * (1 + np.linalg.norm(g) ** 2)


def test_variational_flux_outward_convention(grid64, op64):
    v = grid64.points[:, 0].copy()
    v[~grid64.omega_closure] = 0.0
    flux = boundary_flux(op64, v)
    assert flux[0] < 0 < flux[1]


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_boundary_flux_matches_row_slice_formula(dim):
    """The stored boundary rows and weights give the row-slice flux bit for
    bit: the rows of the region stiffness times v, over the weights."""
    grid = make_grid(dim=dim, nodes={1: 40, 2: 16, 3: 14}[dim])
    coeff = cd.diagonal_coefficient(
        grid, [1.0 + 0.5 * cd.mollifier_bump(grid.points, [0.5] * dim, 0.4)] * dim)
    op = cd.assemble_local(grid, coeff)
    v = np.random.default_rng(4).standard_normal(grid.num_nodes)
    old = (op.omega_stiffness[grid.boundary_indices] @ v) / grid.boundary_weights()
    assert np.array_equal(boundary_flux(op, v), old)


def test_one_factorization_per_local_operator(monkeypatch):
    """The boundary map matrix and the Dirichlet solves and boundary maps
    after it share one factorization of the interior block; each result
    equals, to the bit, the one from a fresh operator and its own factor."""
    grid = make_grid(dim=2, nodes=16)
    coeff = cd.diagonal_coefficient(
        grid, [1.0 + 0.5 * cd.mollifier_bump(grid.points, [0.5, 0.5], 0.4)] * 2)
    op = cd.assemble_local(grid, coeff)
    g = np.random.default_rng(8).standard_normal(grid.num_nodes)
    made = []
    init = linsolve.Factorized.__init__

    def counting(self, A):
        made.append(A.shape)
        init(self, A)

    monkeypatch.setattr(linsolve.Factorized, "__init__", counting)
    dtn = cd.local_dtn_matrix(op).matrix
    u = cd.solve_local_dirichlet(op, g)
    flux = cd.local_dtn(op, g)
    u2 = cd.solve_local_dirichlet(op, 2.0 * g)
    assert len(made) == 1

    def fresh():
        return cd.assemble_local(grid, coeff)

    assert np.array_equal(dtn, cd.local_dtn_matrix(fresh()).matrix)
    assert np.array_equal(u, cd.solve_local_dirichlet(fresh(), g))
    assert np.array_equal(flux, cd.local_dtn(fresh(), g))
    assert np.array_equal(u2, cd.solve_local_dirichlet(fresh(), 2.0 * g))
    assert len(made) == 5


@pytest.mark.parametrize("spec, message", [
    ({"type": "table", "values": [np.ones(10)]}, "one per node"),
    ({"type": "table", "values": []}, "needs 1 entries"),
    ({"type": "diagonal", "entries": [{"poly": [{"coef": 1.0, "powers": [1, 2]}]}]},
     "poly powers"),
    ({"type": "diagonal", "entries": [{"bumps": [
        {"amplitude": 0.2, "center": [0.5, 0.5], "width": 0.3}]}]}, "bump center"),
], ids=["short-table", "no-table", "poly-powers", "bump-center"])
def test_spec_lengths_must_match_the_grid(spec, message):
    """A table needs one value per node and one array per axis, a bump
    center and poly powers one entry per axis; nothing is broadcast."""
    grid = make_grid(nodes=32)
    with pytest.raises(ParamError, match=message):
        cd.coefficient_from_spec(grid, spec)
