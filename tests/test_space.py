import math

import numpy as np
import pytest

from graphlim import IndexSpace, make_finite_space, make_grid_space, uniform_space


def test_finite_space_normalizes_given_masses():
    s = make_finite_space([3 / 10, 1 / 2, 1 / 5])
    assert s.geometry == "abstract"
    assert s.weights.tolist() == [0.3, 0.5, 0.2]


def test_finite_space_uniform_from_equal_masses():
    s = make_finite_space([1, 1, 1, 1])
    assert np.allclose(s.weights, 0.25, rtol=0, atol=1e-15)


def test_finite_space_keeps_ninths_exact():
    s = make_finite_space([2 / 9, 1 / 9, 4 / 9, 2 / 9])
    assert s.weights.tolist() == [2 / 9, 1 / 9, 4 / 9, 2 / 9]


def test_finite_space_rejects_bad_masses():
    with pytest.raises(ValueError):
        make_finite_space([])
    with pytest.raises(ValueError):
        make_finite_space([0.5, 0.0])
    with pytest.raises(ValueError):
        make_finite_space([0.5, -0.1])


def test_interval_grid_midpoints():
    s = make_grid_space("interval", (5,))
    assert s.coords.ravel().tolist() == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert np.allclose(s.weights, 0.2, rtol=0, atol=0)


def test_torus_grid_size_and_uniform_masses():
    s = make_grid_space("torus", (30, 30))
    assert s.n == 900
    assert np.allclose(s.weights, 1 / 900, rtol=0, atol=1e-18)


def test_grid_rejects_zero_resolution():
    with pytest.raises(ValueError):
        make_grid_space("interval", (0,))
    with pytest.raises(ValueError):
        make_grid_space("torus", (4, 0))


@pytest.mark.parametrize("builder", [
    lambda: make_finite_space([0.2, 5.0, 1.3]),
    lambda: make_grid_space("interval", (17,)),
    lambda: make_grid_space("torus", (6, 5, 4)),
    lambda: make_grid_space("sphere2", (200,)),
    lambda: make_grid_space("sphere2", (468,), symmetry_order=12),
])
def test_weights_sum_to_one(builder):
    s = builder()
    assert abs(math.fsum(s.weights.tolist()) - 1.0) <= 1e-12


def test_torus_grid_closure_under_unit_shift():
    s = make_grid_space("torus", (6, 4))
    res = np.array(s.resolution)
    for axis in range(2):
        shifted = s.coords.copy()
        shifted[:, axis] = (shifted[:, axis] + 1.0 / res[axis]) % 1.0
        # shifted points coincide with the grid up to roundoff
        for p in shifted:
            d = np.min(np.max(np.abs(s.coords - p), axis=1))
            assert d <= 1e-12


def test_sphere_target_count_is_met_exactly():
    s = make_grid_space("sphere2", (468,))
    assert s.n == 468
    assert sum(s.band_counts) == 468


def test_sphere_band_structure_is_mirror_symmetric():
    s = make_grid_space("sphere2", (200,))
    counts = s.band_counts
    assert counts == counts[::-1]
    # reflected grid coincides with the grid bitwise
    reflected = s.coords * np.array([1.0, 1.0, -1.0])
    rows = {tuple(row) for row in s.coords}
    assert all(tuple(row) in rows for row in reflected)


def test_sphere_symmetry_order_divides_band_counts():
    s = make_grid_space("sphere2", (468,), symmetry_order=12)
    assert s.n == 468
    assert all(c % 12 == 0 for c in s.band_counts)


def test_sphere_symmetry_order_must_divide_target():
    with pytest.raises(ValueError):
        make_grid_space("sphere2", (469,), symmetry_order=12)


def test_space_is_immutable():
    s = uniform_space(4)
    with pytest.raises(ValueError):
        s.weights[0] = 0.9


def test_invalid_coordinates_rejected():
    with pytest.raises(ValueError):
        IndexSpace("interval", np.array([[1.5]]), np.array([1.0]))
    with pytest.raises(ValueError):
        IndexSpace("sphere2", np.array([[1.0, 1.0, 0.0]]), np.array([1.0]))
