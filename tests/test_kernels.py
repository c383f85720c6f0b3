import json
import math

import numpy as np
import pytest

from graphlim import (
    BlockKernel,
    ConstantKernel,
    IndexSpace,
    MatrixKernel,
    canonical_embedding,
    geodesic_kernel,
    kernel_from_spec,
    make_finite_space,
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


_ADJ = [[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.5, 0.0, 1.0]]
_SPEC_CASES = {
    "constant": ({"variant": "constant", "value": 0.4}, ConstantKernel(0.4), uniform_space(5)),
    "matrix": ({"variant": "matrix", "values": _ADJ}, MatrixKernel(_ADJ), uniform_space(3)),
    "block": ({"variant": "block", "boundaries": [0.0, 0.3, 0.6, 1.0], "values": _ADJ},
              BlockKernel([0.0, 0.3, 0.6, 1.0], _ADJ), make_grid_space("interval", (11,))),
    "canonical": ({"variant": "canonical", "adjacency": _ADJ}, canonical_embedding(_ADJ),
                  make_grid_space("interval", (11,))),
    "geodesic-torus": ({"variant": "geodesic", "geometry": "torus", "dim": 2, "delta": 0.15},
                       geodesic_kernel("torus", 0.15, dim=2), make_grid_space("torus", (7, 6))),
    "geodesic-sphere": ({"variant": "geodesic", "geometry": "sphere2", "delta": 1.0},
                        geodesic_kernel("sphere2", 1.0), make_grid_space("sphere2", (40,))),
}


@pytest.mark.parametrize("name", sorted(_SPEC_CASES))
def test_kernel_from_spec_matches_the_direct_kernel(name):
    spec, direct, space = _SPEC_CASES[name]
    built = kernel_from_spec(spec)
    assert type(built) is type(direct)
    m, want = built.matrix(space), direct.matrix(space)
    assert m.dtype == want.dtype and m.shape == want.shape and m.tobytes() == want.tobytes()


def _random_space(geometry, n, dim, seed):
    """Seeded small space of ``geometry`` with random coordinates and weights."""
    rng = np.random.Generator(np.random.Philox(seed))
    if geometry == "abstract":
        return make_finite_space(rng.random(n) + 0.5)
    if geometry == "sphere2":
        v = rng.normal(size=(n, 3))
        coords = v / np.linalg.norm(v, axis=1, keepdims=True)
    else:
        coords = rng.random((n, dim))
    w = rng.random(n) + 0.5
    return IndexSpace(geometry, coords, w / math.fsum(w.tolist()))


_RNG = np.random.Generator(np.random.Philox(21))
_SYM = _RNG.random((9, 9))
_POINTWISE_CASES = {
    "constant": (ConstantKernel(0.3), "abstract", 1),
    "matrix": (MatrixKernel((_SYM + _SYM.T) / 2), "abstract", 1),
    "block": (BlockKernel([0.0, 0.25, 0.7, 1.0], _ADJ), "interval", 1),
    "canonical": (canonical_embedding((_SYM + _SYM.T > 1.0).astype(float)), "interval", 1),
    "geodesic-interval": (geodesic_kernel("interval", 0.2), "interval", 1),
    "geodesic-torus2": (geodesic_kernel("torus", 0.3, dim=2), "torus", 2),
    "geodesic-torus3": (geodesic_kernel("torus", 0.35, dim=3), "torus", 3),
    "geodesic-sphere": (geodesic_kernel("sphere2", 1.2), "sphere2", 3),
}


@pytest.mark.parametrize("name", sorted(_POINTWISE_CASES))
def test_evaluate_agrees_with_matrix_on_every_pair(name):
    kernel, geometry, dim = _POINTWISE_CASES[name]
    for seed in (1, 2, 3):
        space = _random_space(geometry, 9, dim, seed)
        m, c = kernel.matrix(space), space.coords
        for i in range(space.n):
            for j in range(space.n):
                assert kernel.evaluate(c[i], c[j]) == m[i, j], (seed, i, j)


def test_matrix_kernel_points_must_be_node_indices():
    k = MatrixKernel(np.array([[0.0, 0.2, 0.7], [0.2, 1.0, 0.4], [0.7, 0.4, 0.0]]))
    assert k.evaluate([1], [2]) == 0.4 and k.evaluate(np.array([2.0]), [0]) == 0.7
    for x in ([1.7], [-1], [3], [np.nan], [True]):
        with pytest.raises(ValueError):
            k.evaluate(x, [0])
        with pytest.raises(ValueError):
            k.evaluate([0], x)


def test_evaluate_checks_point_dimension():
    for k, good in ((canonical_embedding([[0, 1], [1, 0]]), [0.2]),
                    (geodesic_kernel("torus", 0.3, dim=2), [0.1, 0.2])):
        assert k.evaluate(good, good) in (0.0, 1.0)
        with pytest.raises(ValueError, match="dimension"):
            k.evaluate(good + [0.3], good)


def test_kernel_values_out_of_domain_name_the_field():
    nan = float("nan")
    for build, field in ((lambda: geodesic_kernel("torus", nan), "delta"),
                         (lambda: geodesic_kernel("torus", 0.0), "delta"),
                         (lambda: BlockKernel([0.0, nan, 1.0], np.eye(2)), "boundaries"),
                         (lambda: BlockKernel([0.0, 0.5, nan], np.eye(2)), "boundaries"),
                         (lambda: geodesic_kernel("interval", 0.2, dim=3), "dim"),
                         (lambda: geodesic_kernel("sphere2", 0.2, dim=2), "dim"),
                         (lambda: geodesic_kernel("torus", 0.2, dim=0), "dim"),
                         (lambda: geodesic_kernel("torus", 0.2, dim=-1), "dim")):
        with pytest.raises(ValueError, match=repr(field)):
            build()
    assert geodesic_kernel("interval", 0.2, dim=1).dim == 1
    assert geodesic_kernel("sphere2", 0.2, dim=3).dim == 3
    assert geodesic_kernel("torus", 0.2, dim=1).dim == 1


def test_kernel_spec_parser():
    k = kernel_from_spec(json.loads('{"variant": "canonical", "adjacency": [[0, 1], [1, 0]]}'))
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
