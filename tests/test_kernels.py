import math

import numpy as np
import pytest

from graphlim import (
    BlockKernel,
    ConstantKernel,
    CustomKernel,
    GeodesicKernel,
    MatrixKernel,
    canonical_embedding,
    geodesic_kernel,
    kernel_from_json,
    kernel_from_spec,
    make_grid_space,
    uniform_space,
)


def test_constant_kernel_value():
    k = ConstantKernel(0.5)
    assert k.evaluate(np.array([0.1]), np.array([0.9])) == 0.5


def test_constant_kernel_range_check():
    with pytest.raises(ValueError):
        ConstantKernel(1.5)


def test_circle_kernel_wraps_around():
    k = geodesic_kernel("torus", 0.2, dim=1)
    assert k.evaluate([0.1], [0.95]) == 1.0  # wrap distance 0.15
    assert k.evaluate([0.1], [0.5]) == 0.0


def test_circle_kernel_all_to_all_at_half():
    k = geodesic_kernel("torus", 0.5, dim=1)
    s = make_grid_space("torus", (17,))
    assert np.all(k.matrix(s) == 1.0)


def test_torus_kernel_uses_max_metric():
    k = geodesic_kernel("torus", 0.1, dim=2)
    assert k.evaluate([0.0, 0.0], [0.05, 0.08]) == 1.0
    assert k.evaluate([0.0, 0.0], [0.05, 0.12]) == 0.0


def test_sphere_kernel_pole_to_equator():
    k = geodesic_kernel("sphere2", math.pi / 2)
    assert k.evaluate([0.0, 0.0, 1.0], [1.0, 0.0, 0.0]) == 1.0
    assert k.evaluate([0.0, 0.0, 1.0], [0.0, 0.0, -1.0]) == 0.0


def test_sphere_hemisphere_measure():
    # row mass of the half-sphere kernel approximates the hemisphere measure 1/2
    s = make_grid_space("sphere2", (400,))
    k = geodesic_kernel("sphere2", math.pi / 2)
    sums = k.matrix(s) @ s.weights
    assert np.max(np.abs(sums - 0.5)) <= 2 / math.sqrt(s.n)


def test_geodesic_kernel_rejects_bad_input():
    with pytest.raises(ValueError):
        geodesic_kernel("torus", -0.1)
    with pytest.raises(ValueError):
        geodesic_kernel("abstract", 0.2)


def test_geometry_mismatch_rejected():
    k = geodesic_kernel("torus", 0.2, dim=2)
    with pytest.raises(ValueError):
        k.matrix(make_grid_space("interval", (4,)))
    with pytest.raises(ValueError):
        k.matrix(make_grid_space("torus", (4,)))


def test_canonical_embedding_two_blocks():
    k = canonical_embedding(np.array([[0, 1], [1, 0]]))
    assert k.evaluate([0.25], [0.75]) == 1.0
    assert k.evaluate([0.25], [0.25]) == 0.0
    assert k.evaluate([0.75], [0.75]) == 0.0


def test_canonical_embedding_matches_adjacency_on_midpoints():
    rng = np.random.Generator(np.random.Philox(12))
    a = (rng.random((5, 5)) < 0.5).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    k = canonical_embedding(a)
    mids = (np.arange(5) + 0.5) / 5
    for i in range(5):
        for j in range(5):
            assert k.evaluate([mids[i]], [mids[j]]) == a[i, j]


def test_canonical_embedding_all_ones():
    a = np.ones((5, 5)) - np.eye(5)
    k = canonical_embedding(a)
    mids = (np.arange(5) + 0.5) / 5
    for i in range(5):
        for j in range(5):
            assert k.evaluate([mids[i]], [mids[j]]) == a[i, j]


def test_canonical_embedding_rejects_asymmetric():
    with pytest.raises(ValueError):
        canonical_embedding(np.array([[0, 1], [0, 0]]))


def test_block_kernel_validation():
    with pytest.raises(ValueError):
        BlockKernel([0.0, 0.5], np.array([[0.5]]))  # does not end at 1
    with pytest.raises(ValueError):
        BlockKernel([0.0, 0.6, 0.4, 1.0], np.zeros((3, 3)))
    with pytest.raises(ValueError):
        BlockKernel([0.0, 0.5, 1.0], np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_matrix_kernel_checks():
    with pytest.raises(ValueError):
        MatrixKernel(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(ValueError):
        MatrixKernel(np.array([[0.0, 2.0], [2.0, 0.0]]))
    k = MatrixKernel(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        k.matrix(uniform_space(3))


@pytest.mark.parametrize("kernel,space", [
    (ConstantKernel(0.37), uniform_space(6)),
    (geodesic_kernel("torus", 0.23, dim=2), make_grid_space("torus", (7, 5))),
    (geodesic_kernel("sphere2", 1.1), make_grid_space("sphere2", (60,))),
    (canonical_embedding(np.array([[0.0, 1.0], [1.0, 0.0]])), make_grid_space("interval", (9,))),
])
def test_kernel_matrix_is_symmetric_in_range(kernel, space):
    m = kernel.matrix(space)
    assert np.array_equal(m, m.T)
    assert m.min() >= 0.0 and m.max() <= 1.0


def test_geodesic_kernel_translation_invariant_on_grid():
    s = make_grid_space("torus", (12, 12))
    k = geodesic_kernel("torus", 0.2, dim=2)
    shift = np.array([1 / 12, 3 / 12])
    rng = np.random.Generator(np.random.Philox(5))
    idx = rng.integers(0, s.n, size=(50, 2))
    for i, j in idx:
        x, y = s.coords[i], s.coords[j]
        assert k.evaluate((x + shift) % 1.0, (y + shift) % 1.0) == k.evaluate(x, y)


def test_custom_kernel_verifies_symmetry():
    CustomKernel(lambda x, y: float(abs(x[0] - y[0]) < 0.5), "interval")
    with pytest.raises(ValueError):
        CustomKernel(lambda x, y: float(x[0] > y[0]), "interval")
    with pytest.raises(ValueError):
        CustomKernel(lambda x, y: 2.0, "interval")


def test_kernel_json_round_trip():
    for k in (ConstantKernel(0.4),
              MatrixKernel(np.array([[0.0, 0.3], [0.3, 1.0]])),
              canonical_embedding(np.array([[0, 1], [1, 0]])),
              geodesic_kernel("torus", 0.15, dim=2)):
        k2 = kernel_from_json(k.to_json())
        assert type(k2) is type(k)
    g = kernel_from_json(geodesic_kernel("sphere2", 1.0).to_json())
    assert isinstance(g, GeodesicKernel) and g.delta == 1.0


def test_kernel_spec_parser():
    k = kernel_from_json('{"variant": "canonical", "adjacency": [[0, 1], [1, 0]]}')
    assert isinstance(k, BlockKernel) and np.array_equal(k.values, [[0, 1], [1, 0]])
    g = kernel_from_spec({"variant": "geodesic", "geometry": "torus", "delta": 0.1})
    assert g.dim == 2
    for spec, field in (({}, "variant"),
                        ({"variant": "constant"}, "value"),
                        ({"variant": "constant", "value": "1"}, "value"),
                        ({"variant": "block", "boundaries": [0, 1]}, "values"),
                        ({"variant": "geodesic", "delta": 0.1}, "geometry"),
                        ({"variant": "geodesic", "geometry": "torus", "delta": 0.1,
                          "dim": 2.0}, "dim"),
                        ({"variant": "wavelet"}, "variant")):
        with pytest.raises(ValueError, match=repr(field)):
            kernel_from_spec(spec)
