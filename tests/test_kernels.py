import json
import math

import numpy as np
import pytest

from graphlim import (
    BlockKernel,
    ConstantKernel,
    IndexSpace,
    MatrixKernel,
    MeasureState,
    canonical_embedding,
    geodesic_kernel,
    kernel_from_spec,
    make_finite_space,
    make_grid_space,
    uniform_space,
)


def _pair(kernel, geometry, x, y):
    """W(x, y), read from ``matrix`` on the two-point space {x, y}."""
    return kernel.matrix(IndexSpace(geometry, [x, y], [0.5, 0.5]))[0, 1]


def test_constant_kernel_value():
    k = ConstantKernel(0.5)
    assert _pair(k, "abstract", [0.1], [0.9]) == 0.5


def test_constant_kernel_range_check():
    with pytest.raises(ValueError):
        ConstantKernel(1.5)


def test_circle_kernel_wraps_around():
    k = geodesic_kernel("torus", 0.2, dim=1)
    assert _pair(k, "torus", [0.1], [0.95]) == 1.0  # wrap distance 0.15
    assert _pair(k, "torus", [0.1], [0.5]) == 0.0


def test_circle_kernel_all_to_all_at_half():
    k = geodesic_kernel("torus", 0.5, dim=1)
    s = make_grid_space("torus", (17,))
    assert np.all(k.matrix(s) == 1.0)


def test_torus_kernel_uses_max_metric():
    k = geodesic_kernel("torus", 0.1, dim=2)
    assert _pair(k, "torus", [0.0, 0.0], [0.05, 0.08]) == 1.0
    assert _pair(k, "torus", [0.0, 0.0], [0.05, 0.12]) == 0.0


def test_sphere_kernel_pole_to_equator():
    k = geodesic_kernel("sphere2", math.pi / 2)
    assert _pair(k, "sphere2", [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]) == 1.0
    assert _pair(k, "sphere2", [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]) == 0.0


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
    assert _pair(k, "interval", [0.25], [0.75]) == 1.0
    assert _pair(k, "interval", [0.25], [0.25]) == 0.0
    assert _pair(k, "interval", [0.75], [0.75]) == 0.0


def test_canonical_embedding_matches_adjacency_on_midpoints():
    rng = np.random.Generator(np.random.Philox(12))
    a = (rng.random((5, 5)) < 0.5).astype(float)
    a = np.triu(a, 1)
    a = a + a.T
    k = canonical_embedding(a)
    mids = make_grid_space("interval", (5,))  # the midpoints (k + 1/2) / 5
    assert np.array_equal(k.matrix(mids), a)


def test_canonical_embedding_all_ones():
    a = np.ones((5, 5)) - np.eye(5)
    k = canonical_embedding(a)
    mids = make_grid_space("interval", (5,))
    assert np.array_equal(k.matrix(mids), a)


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
    with pytest.raises(ValueError, match="size"):
        k.matrix(make_grid_space("torus", (2, 2)))


def test_matrix_kernel_reads_w_by_node_on_any_geometry():
    w = np.array([[0.0, 0.2, 0.7], [0.2, 1.0, 0.4], [0.7, 0.4, 0.0]])
    k = MatrixKernel(w)
    for space in (uniform_space(3), make_finite_space([1, 2, 3]),
                  make_grid_space("interval", (3,)), make_grid_space("torus", (3,)),
                  make_grid_space("sphere2", (3,), bands=1)):
        m = k.matrix(space)
        assert m.tobytes() == w.tobytes() and m.flags.writeable
        assert k.eval_rows(space, 1, 3).tobytes() == w[1:3].tobytes()


def test_kernels_and_clouds_keep_a_read_only_copy_of_what_they_validated():
    values = np.array([[0.0, 0.5], [0.5, 0.0]])
    boundaries = np.array([0.0, 0.5, 1.0])
    particles = np.zeros((2, 3))
    matrix, block = MatrixKernel(values), BlockKernel(boundaries, values)
    canonical, clouds = canonical_embedding(values), MeasureState(particles)
    values[0, 0], boundaries[1], particles[0, 0] = 7.0, 2.0, np.nan
    for kernel in (matrix, block, canonical):
        assert kernel.values.tolist() == [[0.0, 0.5], [0.5, 0.0]]
    assert block.boundaries.tolist() == [0.0, 0.5, 1.0]
    assert clouds.particles.tolist() == [[0.0] * 3] * 2
    for a in (matrix.values, block.values, block.boundaries, canonical.values,
              clouds.particles):
        assert not a.flags.writeable
    m = matrix.matrix(uniform_space(2))
    m[0, 0] = 1.0  # a fresh array: the kernel keeps its values
    assert matrix.values[0, 0] == 0.0


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
    shifted = IndexSpace("torus", (s.coords + shift) % 1.0, s.weights)
    assert np.array_equal(k.matrix(shifted), k.matrix(s))  # every pair, shifted and not


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
