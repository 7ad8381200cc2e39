import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import calderon as cd
from calderon.errors import OverlapError, ParamError, ResolutionError

from conftest import make_grid


def test_1d_grid_masks_disjoint_with_gap():
    grid = make_grid(nodes=32, padding=0.0)
    assert grid.omega_closure.any() and grid.w_mask.any()
    assert not np.any(grid.omega_closure & grid.w_mask)
    # at least one node strictly between the two closures
    gap = ~grid.omega_closure & ~grid.w_mask
    hi_omega = grid.boundary_indices.max()
    lo_w = grid.w_indices.min()
    assert np.any(gap[hi_omega + 1:lo_w])


def test_touching_boxes_raise_overlap():
    spec = cd.GeometrySpec(dim=1, omega_box=((0.0, 1.0),), w_box=((0.9, 2.0),),
                           nodes=32)
    with pytest.raises(OverlapError):
        cd.build_tangential_grid(spec)


def test_2d_node_count_covers_box_union():
    spec = cd.GeometrySpec(
        dim=2, omega_box=((0.0, 1.0), (0.0, 1.0)),
        w_box=((1.5, 2.0), (0.0, 1.0)), nodes=16,
    )
    grid = cd.build_tangential_grid(spec)
    assert grid.num_nodes == 256
    assert grid.lo[0] == 0.0 and grid.hi[0] == 2.0


def test_mask_partition_is_exact():
    for dim in (1, 2):
        grid = make_grid(dim=dim, nodes=16 if dim == 2 else 48)
        total = (grid.omega_interior.astype(int) + grid.omega_boundary.astype(int)
                 + grid.exterior.astype(int))
        assert np.all(total == 1)


def test_boundary_nodes_touch_interior():
    from scipy import ndimage

    grid = make_grid(dim=2, nodes=20)
    interior = grid.omega_interior.reshape(grid.shape)
    reach = ndimage.binary_dilation(interior, structure=np.ones((3, 3), bool))
    assert np.all(reach.ravel()[grid.boundary_indices])


def test_resolution_error_when_too_coarse():
    spec = cd.GeometrySpec(dim=1, omega_box=((0.0, 0.05),), w_box=((1.5, 2.0),),
                           nodes=8)
    with pytest.raises(ResolutionError):
        cd.build_tangential_grid(spec)


def test_resolution_error_when_gap_unresolved():
    """Physically disjoint boxes whose snapped masks touch: a grid problem,
    not a geometry problem."""
    spec = cd.GeometrySpec(dim=1, omega_box=((0.0, 1.0),), w_box=((1.1, 2.2),),
                           nodes=9)
    with pytest.raises(ResolutionError):
        cd.build_tangential_grid(spec)
    fine = cd.GeometrySpec(dim=1, omega_box=((0.0, 1.0),), w_box=((1.1, 2.2),),
                           nodes=45)
    cd.build_tangential_grid(fine)


def test_param_errors():
    with pytest.raises(ParamError):
        cd.build_tangential_grid(
            cd.GeometrySpec(dim=1, omega_box=((0.0, 1.0),), w_box=((1.5, 2.0),),
                            nodes=3)
        )
    with pytest.raises(ParamError):
        cd.build_vertical_mesh(1.5, 4.0, 16)
    with pytest.raises(ParamError):
        cd.build_vertical_mesh(0.5, -1.0, 16)
    with pytest.raises(ParamError):
        cd.build_vertical_mesh(0.5, 4.0, 4)


def test_vertical_mesh_uniform_total_measure():
    """s = 1/2 kills the weight, so the total measure is just the height."""
    vm = cd.build_vertical_mesh(0.5, 4.0, 16, grading=1.0)
    assert np.allclose(np.diff(vm.levels), vm.levels[1] - vm.levels[0])
    assert abs(vm.cell_measures.sum() - 4.0) < 1e-12


def test_vertical_mesh_closed_form_total():
    vm = cd.build_vertical_mesh(0.25, 1.0, 8, grading=2.0)
    assert abs(vm.cell_measures.sum() - 2.0 / 3.0) < 1e-14


def test_vertical_mesh_first_cell_exact():
    # s=3/4, M=8, J=32, grading 3: first level is 8/32^3 = 1/4096 and the
    # first weighted cell measure is 2*sqrt(1/4096) = 1/32 exactly
    vm = cd.build_vertical_mesh(0.75, 8.0, 32, grading=3.0)
    assert vm.levels[1] == pytest.approx(1.0 / 4096.0, rel=1e-15)
    assert vm.cell_measures[0] == pytest.approx(0.03125, rel=1e-13)


@given(
    s=st.floats(0.05, 0.95),
    height=st.floats(0.5, 32.0),
    levels=st.integers(8, 80),
    grading=st.floats(1.0, 6.0),
)
@settings(max_examples=40, deadline=None)
def test_vertical_measures_sum_to_closed_form(s, height, levels, grading):
    """Total weighted measure equals height^(2-2s)/(2-2s) to machine precision."""
    vm = cd.build_vertical_mesh(s, height, levels, grading)
    assert np.all(np.diff(vm.levels) > 0)
    assert np.all(vm.cell_measures > 0)
    exact = height ** (2 - 2 * s) / (2 - 2 * s)
    assert abs(vm.cell_measures.sum() - exact) <= 1e-12 * exact


def test_extension_mesh_indexing_bijection():
    grid = make_grid(nodes=20)
    vm = cd.build_vertical_mesh(0.5, 4.0, 8)
    em = cd.build_extension_mesh(grid, vm)
    # node i at level j is i * (J + 1) + j: tangential-major onto range(num_nodes)
    i, j = np.meshgrid(np.arange(grid.num_nodes), np.arange(vm.num_levels + 1),
                       indexing="ij")
    assert np.array_equal(em.index(i, j).ravel(), np.arange(em.num_nodes))
    assert em.num_nodes == grid.num_nodes * (vm.num_levels + 1)


def test_default_grading_clamped():
    assert cd.default_grading(0.05) == 6.0
    assert cd.default_grading(0.5) == 3.0
    assert 1.0 <= cd.default_grading(0.95) <= 6.0
