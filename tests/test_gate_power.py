"""Gates that can fail: each injected fault in a held-basis extension solve
must make the field-free contracted path raise SolveError, as the field
path's assembled residual check does.

The faults are realistic ones for the fast diagonalization: eigenvalues
scaled by 1 + delta, one vertical profile scaled by 1 + delta, the
free-trace map scaled by 1 + delta, level weights scaled by 1 + delta in
the tensor block's inputs only, and one basis column scaled by 1 + delta.
The contracted path sees the first two through the basis defect and the
profile residuals it measures once per solver, the third through the free
trace rows' assembled residual, the fourth through profile residuals taken
with the level weights checked against the assembled stiffness, and the
last through the measured orthogonality defect ``||V^T V - I||``.

Each delta is the planned one where the field path fires on the test
datum (level weights 1e-3), else the smallest decade above 1e-6 at which
it fires at least six times over its 1e-8 tolerance (2D n = 24, J = 40,
s = 1/2, the w_bump datum; relative field residuals per unit delta:
eigenvalues 1.1e-3, level weights 1.1e-3, profile 1.7e-5, trace map
6.6e-6, basis column 3e-2).  The check is relative to the datum's free-row
load, which the first-cell conductance dominates, so smaller faults in the
tangential solve can stay under it.  At 1e-6 the contracted path's bound,
being pessimistic, still catches the eigenvalues, the level weights and a
basis column, but not a profile (3.8e-10 of the load against the field's
1.7e-11) or the trace map (6.6e-12, the field's own): there it stays an
upper bound on the field's residual, which is what the reconstruction's
check relies on."""

import numpy as np
import pytest

import calderon as cd
from calderon import extension, fractional_core
from calderon.errors import SolveError

from conftest import make_grid, w_bump

LEVELS = 40


def _coefficient(grid, route):
    if route == "sine":
        return cd.identity_coefficient(grid)
    return cd.diagonal_coefficient(grid, [1.0 + 0.5 * cd.mollifier_bump(
        grid.points, [0.5, 0.5], 0.35)] * 2, identity_outside=True)


def _scaled_eigenvalues(monkeypatch, delta):
    eigenbasis = fractional_core._eigenbasis

    def scaled(*args):
        route, factors, lam = eigenbasis(*args)
        return route, factors, lam * (1.0 + delta)

    monkeypatch.setattr(fractional_core, "_eigenbasis", scaled)


def _perturbed_profile(monkeypatch, delta):
    init = fractional_core._ModalBlock.__init__

    def perturbed(self, *args):
        init(self, *args)
        # the lowest mode, which every smooth datum excites
        i = int(np.argmin(self._lam))
        self._P[0, :, i] *= 1.0 + delta

    monkeypatch.setattr(fractional_core._ModalBlock, "__init__", perturbed)


def _scaled_level_weights(monkeypatch, delta):
    tensor_block = extension.tensor_block

    def scaled(grid, coeff, K_T, m, diag, off, nu, *rest):
        return tensor_block(grid, coeff, K_T, m, diag, off, nu * (1.0 + delta), *rest)

    monkeypatch.setattr(extension, "tensor_block", scaled)


def _scaled_basis_column(monkeypatch, delta):
    eigenbasis = fractional_core._eigenbasis

    def scaled(*args):
        route, factors, lam = eigenbasis(*args)
        factors = [F.copy() for F in factors]
        # the first axis factor's lowest mode (sine), the lowest mode (eigh)
        i = 0 if route == "sine" else int(np.argmin(lam))
        factors[0][:, i] *= 1.0 + delta
        return route, tuple(factors), lam

    monkeypatch.setattr(fractional_core, "_eigenbasis", scaled)


def _scaled_trace_map(monkeypatch, delta, pipe):
    monkeypatch.setattr(pipe.solver, "_Z", pipe.solver._Z * (1.0 + delta))


# fault -> (injection, delta)
BUILD_FAULTS = {
    "eigenvalues": (_scaled_eigenvalues, 1e-4),
    "profile": (_perturbed_profile, 1e-2),
    "level-weights": (_scaled_level_weights, 1e-3),
    "basis-column": (_scaled_basis_column, 1e-5),
}


def _pipeline(route):
    grid = make_grid(dim=2, nodes=24)
    pipe = cd.BridgePipeline(grid, _coefficient(grid, route), 0.5, levels=LEVELS)
    assert pipe.solver._block.route == route
    return pipe


def _both_paths_raise(pipe):
    f = w_bump(pipe.grid)
    with pytest.raises(SolveError, match="residual"):
        pipe.extension(f)
    with pytest.raises(SolveError, match="residual"):
        cd.operator_T(pipe, f)


@pytest.mark.parametrize("route", ["sine", "eigh"])
def test_no_fault_passes_both_paths(route):
    """The unperturbed solver passes both checks on the same datum."""
    pipe = _pipeline(route)
    f = w_bump(pipe.grid)
    pipe.extension(f)
    cd.operator_T(pipe, f)


@pytest.mark.parametrize("route", ["sine", "eigh"])
@pytest.mark.parametrize("fault", sorted(BUILD_FAULTS))
def test_build_fault_fails_both_paths(monkeypatch, route, fault):
    inject, delta = BUILD_FAULTS[fault]
    inject(monkeypatch, delta)
    _both_paths_raise(_pipeline(route))


@pytest.mark.parametrize("route", ["sine", "eigh"])
def test_trace_map_fault_fails_both_paths(monkeypatch, route):
    """The free-trace map Z scaled by 1 + 1e-2 after the build."""
    pipe = _pipeline(route)
    _scaled_trace_map(monkeypatch, 1e-2, pipe)
    _both_paths_raise(pipe)


# faults of 1e-6 the contracted path's bound catches, though the field
# path's residual stays under its check: the bound over the load
CAUGHT_AT_1E6 = {
    "eigenvalues": _scaled_eigenvalues,  # 2.4e-7 sine, 1.3e-7 eigh
    "level-weights": _scaled_level_weights,  # 2.4e-8
    "basis-column": _scaled_basis_column,  # 5.2e-8, the field 2.7e-8 to 3.2e-8
}


@pytest.mark.parametrize("route", ["sine", "eigh"])
@pytest.mark.parametrize("fault", sorted(CAUGHT_AT_1E6))
def test_bound_catches_a_1e6_fault(monkeypatch, route, fault):
    """Each of these faults at 1e-6 makes the contracted path raise."""
    CAUGHT_AT_1E6[fault](monkeypatch, 1e-6)
    pipe = _pipeline(route)
    with pytest.raises(SolveError, match="residual"):
        cd.operator_T(pipe, w_bump(pipe.grid))


def _unchecked_residuals(monkeypatch, pipe):
    """The field path's assembled residual norm and the contracted path's
    bound on the w_bump datum, with the check that would refuse them
    bypassed to read them."""
    solver = pipe.solver
    monkeypatch.setattr(solver, "_checked", lambda rho, D: rho)
    f = w_bump(pipe.grid)[:, None]
    field = next(solver.solve_chunks(f))[2]
    bound = next(solver.solve_chunks(f, pipe._pair))[2]
    return field, bound


@pytest.mark.parametrize("route", ["sine", "eigh"])
@pytest.mark.parametrize("fault", sorted(CAUGHT_AT_1E6) + ["profile", "trace-map"])
def test_bound_bounds_the_residual_under_a_1e6_fault(monkeypatch, route, fault):
    """Under every fault at 1e-6, those the check misses included (a
    profile, the trace map), the contracted path's bound is at least the
    field's assembled residual on the same datum."""
    if fault == "profile":
        _perturbed_profile(monkeypatch, 1e-6)
    elif fault != "trace-map":
        CAUGHT_AT_1E6[fault](monkeypatch, 1e-6)
    pipe = _pipeline(route)
    if fault == "trace-map":
        _scaled_trace_map(monkeypatch, 1e-6, pipe)
    field, bound = _unchecked_residuals(monkeypatch, pipe)
    assert np.all(bound >= field)


@pytest.mark.parametrize("route", ["sine", "eigh"])
def test_operator_T_refuses_a_fault_in_its_own_output(monkeypatch, route):
    """The backward mode product's output at one free trace node off by
    1e-3 of its largest value: the level sums over the free trace nodes,
    read off the yielded level sum and top free level, refuse it."""
    pipe = _pipeline(route)
    solver = pipe.solver
    pos = solver._B[len(solver._B) // 2]
    levels = solver._block.levels

    def corrupted(modes, out, profiles=None):
        levels(modes, out, profiles)
        out[:, pos] += 1e-3 * np.max(np.abs(out), axis=1)

    monkeypatch.setattr(solver._block, "levels", corrupted)
    with pytest.raises(SolveError, match="residual"):
        cd.operator_T(pipe, w_bump(pipe.grid))


def test_data_operator_build_refuses_a_fault(monkeypatch):
    """The data operator's contracted snapshot solves refuse a build fault
    too, so its residual norms never hold a bound that a fault broke."""
    _scaled_eigenvalues(monkeypatch, 1e-4)
    with pytest.raises(SolveError, match="residual"):
        cd.build_data_operator(_pipeline("sine"))
