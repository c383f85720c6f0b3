from itertools import permutations

import numpy as np
import pytest

from graphlim import (
    DegenerateFiberError,
    FixedPointSubspace,
    MatrixKernel,
    ModelFunctions,
    check_automorphism,
    discretize,
    equivariance_audit,
    graphop_from_weighted,
    integrate,
    invariance_audit,
    kuramoto_model,
    make_finite_space,
    make_grid_space,
    permutation_map,
    rhs,
    spherical_graphop,
    sphere_reflection_map,
    sphere_rotation_map,
    uniform_space,
)
from graphlim import systems


def four_vertex_system():
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 0.5
    space = make_finite_space([2 / 9, 1 / 9, 4 / 9, 2 / 9])
    return graphop_from_weighted(w, space)


def test_four_vertex_fibers_exact():
    fs = four_vertex_system()
    expected = [([1], [1 / 9]), ([0], [2 / 9]), ([3], [1 / 9]), ([2], [2 / 9])]
    for i, (idx, w) in enumerate(expected):
        got_idx, got_w = fs.row(i)
        assert got_idx.tolist() == idx
        assert got_w.tolist() == w


def test_four_vertex_automorphism_classification():
    fs = four_vertex_system()
    assert check_automorphism(fs, permutation_map([2, 3, 0, 1]), 1e-12).verdict \
        == "graphop_automorphism"
    assert check_automorphism(fs, permutation_map([3, 1, 2, 0]), 1e-12).verdict \
        == "measure_preserving_only"
    graphon_autos = []
    graphop_autos = []
    for p in permutations(range(4)):
        v = check_automorphism(fs, permutation_map(list(p)), 1e-12).verdict
        if v == "graphon_automorphism":
            graphon_autos.append(p)
        if v == "graphop_automorphism":
            graphop_autos.append(p)
    assert graphon_autos == [(0, 1, 2, 3)]
    assert graphop_autos == [(2, 3, 0, 1)]


def test_four_vertex_dynamics_formula():
    fs = four_vertex_system()

    def f(u, s):
        return 0.5 * u + s

    def g(u, v):
        return np.cos(v) - 0.2 * u

    u = np.array([0.4, -0.7, 1.3, 2.1])
    du = rhs(fs, ModelFunctions(f=f, g=g), u)
    expected = np.array([
        f(u[0], (1 / 9) * g(u[0], u[1])),
        f(u[1], (2 / 9) * g(u[1], u[0])),
        f(u[2], (1 / 9) * g(u[2], u[3])),
        f(u[3], (2 / 9) * g(u[3], u[2])),
    ])
    assert np.allclose(du, expected, rtol=1e-15, atol=0)


def test_graphop_from_weighted_validation():
    space = uniform_space(3)
    with pytest.raises(ValueError):
        graphop_from_weighted(np.array([[0.0, 1.0, 0], [0.0, 0.0, 0], [0, 0, 0]]), space)
    with pytest.raises(ValueError):
        graphop_from_weighted(np.zeros((2, 2)), space)


@pytest.mark.parametrize("space", [
    make_finite_space(np.arange(1.0, 13.0)),
    make_grid_space("interval", (12,)),
    make_grid_space("torus", (4, 3)),
    make_grid_space("sphere2", (12,)),
], ids=lambda space: space.geometry)
def test_weighted_graphop_is_the_matrix_kernel_discretization(space):
    rng = np.random.Generator(np.random.Philox(4))
    a = rng.random((12, 12))
    w = np.where(a + a.T > 1.0, (a + a.T) / 2, 0.0)
    got = graphop_from_weighted(w, space)
    want = discretize(MatrixKernel(w), space, "graphop")
    assert got.label == want.label == "graphop"
    for name in ("indptr", "indices", "weights"):
        g, e = getattr(got, name), getattr(want, name)
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes(), name
    assert 0 < got.indices.size < 144


def test_graphop_zero_and_constant():
    space = uniform_space(5)
    zero = graphop_from_weighted(np.zeros((5, 5)), space)
    assert zero.indices.size == 0
    const = graphop_from_weighted(np.ones((5, 5)), space)
    assert np.allclose(const.dense(), 1 / 5, rtol=0, atol=0)


def sphere_setup():
    space = make_grid_space("sphere2", (240,), symmetry_order=8)
    return space, spherical_graphop(space)


def test_spherical_fibers_are_probability_measures():
    space, fs = sphere_setup()
    sums = fs.row_sums()
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_spherical_fiber_of_pole_sits_near_equator():
    space = make_grid_space("sphere2", (240,))
    fs = spherical_graphop(space, band_halfwidth=0.2)
    north = int(np.argmax(space.coords[:, 2]))
    idx, w = fs.row(north)
    assert idx.size > 0
    # the near-pole node selects an equatorial belt: small |z|, unit mass
    tilt = float(np.linalg.norm(space.coords[north, :2]))
    assert np.max(np.abs(space.coords[idx, 2])) <= 0.2 + tilt + 1e-12
    assert abs(w.sum() - 1.0) <= 1e-12


def test_spherical_graphop_degenerate_fiber(monkeypatch):
    default_block = systems._BLOCK_ENTRIES
    # (468, 12) and (1000, 1) at 0.005 leave 24 and 4 empty fibers among full ones
    for resolution, order, halfwidth in ((60, 1, 1e-6), (40, 1, 0.05), (120, 4, 0.05),
                                         (2016, 12, 1e-6), (468, 12, 0.005), (1000, 1, 0.005)):
        space = make_grid_space("sphere2", (resolution,), symmetry_order=order)
        # the nodes with an empty band in the dense matrix of the fibers' defining dot products
        dots = np.stack([space.coords @ x for x in space.coords])
        want = np.flatnonzero(~np.any(np.abs(dots) <= halfwidth, axis=1)).tolist()
        assert 0 < len(want) < space.n
        for block in (default_block, 64, 1000):  # the default and blocks of one or a few rows
            monkeypatch.setattr(systems, "_BLOCK_ENTRIES", block)
            with pytest.raises(DegenerateFiberError) as err:
                spherical_graphop(space, band_halfwidth=halfwidth)
            assert list(err.value.nodes) == want
            assert str(err.value) == f"band halfwidth {halfwidth} leaves {len(want)} empty fibers"


@pytest.mark.parametrize("halfwidth", [0.0, -0.1, float("nan")])
def test_spherical_graphop_rejects_a_halfwidth_that_is_not_positive(halfwidth):
    with pytest.raises(ValueError, match="band_halfwidth must be positive"):
        spherical_graphop(make_grid_space("sphere2", (60,)), band_halfwidth=halfwidth)


def test_sphere_rotation_and_reflection_preserve_fibers_exactly():
    space, fs = sphere_setup()
    for m in (sphere_rotation_map(space), sphere_reflection_map(space)):
        r = check_automorphism(fs, m, 1e-12)
        assert r.fiber_preserving
        assert r.fiber_discrepancy == 0.0


def test_spherical_graphop_constant_state_is_fixed():
    space, fs = sphere_setup()
    du = rhs(fs, kuramoto_model(0.0, 0.0), np.full(space.n, 0.9))
    assert np.array_equal(du, np.zeros(space.n))


def test_spherical_graphop_equivariance():
    space, fs = sphere_setup()
    rng = np.random.Generator(np.random.Philox(41))
    u0 = rng.uniform(0, 2 * np.pi, space.n)
    dev = equivariance_audit(fs, kuramoto_model(0.0, 1.0), sphere_rotation_map(space),
                             u0, 2.0, 1e-2)
    assert dev <= 1e-8


def test_latitude_profile_stays_latitude_only():
    space, fs = sphere_setup()
    rot = sphere_rotation_map(space)
    u0 = 1.0 + np.sin(2.0 * np.arccos(np.clip(space.coords[:, 2], -1, 1)))
    sub = FixedPointSubspace([rot])
    drift = invariance_audit(fs, kuramoto_model(0.0, 1.0), sub, u0, 2.0, 1e-2)
    assert drift <= 1e-8


def test_graphop_feeds_integrator_unchanged():
    fs = four_vertex_system()
    traj = integrate(fs, kuramoto_model(0.0, 0.0), np.array([0.1, 0.5, 1.0, 2.0]), 1.0, 1e-3,
                     sample_every=100)
    assert traj.times[-1] == 1.0
    assert np.all(np.isfinite(traj.states))
