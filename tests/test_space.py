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


@pytest.mark.parametrize("geometry, resolution, message", [
    ("torus", [6.5, 6], "resolution must be integers"),
    ("torus", [True, 6], "resolution must be integers"),
    ("torus", [float("inf")], "resolution must be integers"),
    ("torus", [], "torus resolution must be a flat list of at least one entry"),
    ("torus", [[3, 3]], "torus resolution must be a flat list of at least one entry"),
    ("interval", [3, 3], "interval resolution must be a flat list of exactly one entry"),
    ("sphere2", [40, 2], "sphere2 resolution must be a flat list of exactly one entry"),
    ("sphere2", [10 ** 20], "resolution must be integers, not booleans or fractions: "
                            "whole numbers within int64"),
])
def test_grid_resolution_is_read_strictly(geometry, resolution, message):
    # a plain int cast read [6.5, 6] as a 6x6 grid and [True, 6] as 1x6
    with pytest.raises(ValueError, match=message):
        make_grid_space(geometry, resolution)


def test_grid_resolution_accepts_whole_numbers():
    assert make_grid_space("torus", [6.0, np.int32(4)]).resolution == (6, 4)
    assert make_grid_space("interval", 7).resolution == (7,)


def test_space_copies_writable_caller_arrays():
    coords, weights = np.array([[0.1], [0.6]]), np.array([0.5, 0.5])
    s = IndexSpace("interval", coords, weights)
    coords[0, 0], weights[0] = 0.9, 0.25  # the caller's arrays stay writable
    assert s.coords[:, 0].tolist() == [0.1, 0.6] and s.weights.tolist() == [0.5, 0.5]
    again = IndexSpace("interval", s.coords, s.weights)  # read-only inputs are shared
    assert np.shares_memory(again.coords, s.coords) and np.shares_memory(again.weights, s.weights)


@pytest.mark.parametrize("geometry, coords, weights, message", [
    ("hyperbolic", [[0.5]], [1.0], "unknown geometry"),
    ("abstract", np.zeros((0, 1)), [], "at least one node"),
    ("abstract", [[0.0], [1.0]], [1.0], "matching length"),
    ("abstract", [[0.0], [1.0]], [1.5, -0.5], "strictly positive"),
    ("abstract", [[0.0], [1.0]], [0.5, 0.6], "weights sum to"),
    ("torus", [[0.25, 0.5], [0.75, 1.0]], [0.5, 0.5], "torus coordinates must lie in"),
    ("sphere2", [[1.0, 0.0], [0.0, 1.0]], [0.5, 0.5], "3-vectors"),
], ids=["unknown_geometry", "no_nodes", "length_mismatch", "nonpositive_weight",
        "weights_not_summing_to_one", "torus_coordinate_outside", "sphere_not_3_vectors"])
def test_index_space_rejects_malformed_input(geometry, coords, weights, message):
    with pytest.raises(ValueError, match=message):
        IndexSpace(geometry, np.array(coords, dtype=float), np.array(weights, dtype=float))
