import numpy as np
import pytest

from graphlim import (
    ConstantKernel,
    MeasureState,
    MeasureTrajectory,
    canonical_embedding,
    discretize,
    geodesic_kernel,
    integrate,
    integrate_meanfield,
    kuramoto_model,
    make_grid_space,
    meanfield_rhs,
    measure_distance,
    permutation_map,
    pullback,
    sample_er,
    spherical_graphop,
    uniform_space,
)


def constant_system(n):
    return discretize(ConstantKernel(1.0), uniform_space(n))


def reference_meanfield_rhs(system, u):
    """The direct pair sum: an (nnz, M, M) sin tensor, one bincount per particle."""
    rows = system.row_of_entry
    pair = np.sin(u[system.indices][:, None, :] - u[rows][:, :, None])  # (nnz, p, q)
    mean_q = pair.sum(axis=2) / u.shape[1]
    return np.stack([np.bincount(rows, weights=system.weights * mean_q[:, p],
                                 minlength=system.n) for p in range(u.shape[1])], axis=1)


REFERENCE_SYSTEMS = {
    "er30": lambda: sample_er(30, 0.4, 11),
    "constant20": lambda: constant_system(20),
    "torus8x8": lambda: discretize(geodesic_kernel("torus", 0.3, dim=2),
                                   make_grid_space("torus", (8, 8))),
    "spherical120": lambda: spherical_graphop(make_grid_space("sphere2", (120,))),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SYSTEMS))
def test_rhs_matches_pair_sum_reference(name):
    sys = REFERENCE_SYSTEMS[name]()
    bound = 1e-14 * (1.0 + float(sys.row_sums().max()))  # weights are nonnegative
    rng = np.random.Generator(np.random.Philox(7))
    for m in (2, 3, 7, 24):
        u = rng.uniform(-20.0, 20.0, (sys.n, m))
        dev = np.max(np.abs(meanfield_rhs(sys, u) - reference_meanfield_rhs(sys, u)))
        assert dev <= bound, (name, m, dev)


def test_identical_particles_follow_node_dynamics():
    sys = sample_er(20, 0.5, 7)
    rng = np.random.Generator(np.random.Philox(8))
    u0 = rng.uniform(0, 2 * np.pi, 20)
    td = integrate(sys, kuramoto_model(0.0, 0.0), u0, 1.0, 1e-2, sample_every=10)
    tm = integrate_meanfield(sys, MeasureState(np.tile(u0[:, None], (1, 5))), 1.0, 1e-2,
                             sample_every=10)
    dev = max(float(np.max(np.abs(a[:, None] - b))) for a, b in zip(td.states, tm.states))
    assert dev <= 1e-12


def test_large_clouds_match_direct_sum():
    sys = constant_system(8)
    rng = np.random.Generator(np.random.Philox(9))
    u = rng.uniform(0, 2 * np.pi, (8, 4000))
    du = meanfield_rhs(sys, u)
    assert du.shape == (8, 4000)
    for i, p in zip(rng.integers(0, 8, 5), rng.integers(0, 4000, 5)):
        row = slice(sys.indptr[i], sys.indptr[i + 1])
        means = np.mean(np.sin(u[sys.indices[row]] - u[i, p]), axis=1)
        assert abs(du[i, p] - np.sum(sys.weights[row] * means)) <= 1e-13


def test_single_particle_rhs_matches_node_dynamics():
    from graphlim import rhs
    sys = constant_system(9)
    rng = np.random.Generator(np.random.Philox(1))
    u = rng.uniform(0, 2 * np.pi, 9)
    a = meanfield_rhs(sys, u[:, None])
    b = rhs(sys, kuramoto_model(0.0, 0.0), u)
    assert np.array_equal(a[:, 0], b)


def test_single_particle_trajectories_match_bitwise():
    sys = constant_system(12)
    rng = np.random.Generator(np.random.Philox(2))
    u0 = rng.uniform(0, 2 * np.pi, 12)
    td = integrate(sys, kuramoto_model(0.0, 0.0), u0, 2.0, 1e-3, sample_every=100)
    tm = integrate_meanfield(sys, MeasureState(u0[:, None]), 2.0, 1e-3, sample_every=100)
    assert np.array_equal(td.times, tm.times)
    for a, b in zip(td.states, tm.states):
        assert np.array_equal(a, b[:, 0])


def test_full_synchrony_is_fixed():
    sys = constant_system(5)
    particles = np.full((5, 4), 1.3)
    assert np.array_equal(meanfield_rhs(sys, particles), np.zeros((5, 4)))


def test_identical_clouds_evolve_identically_on_constant_kernel():
    sys = constant_system(6)
    rng = np.random.Generator(np.random.Philox(3))
    cloud = rng.uniform(0, 2 * np.pi, 8)
    particles = np.tile(cloud, (6, 1))
    du = meanfield_rhs(sys, particles)
    assert np.max(np.abs(du - du[0])) == 0.0
    traj = integrate_meanfield(sys, MeasureState(particles), 1.0, 1e-2, sample_every=20)
    for frame in traj.states:
        assert np.max(np.abs(frame - frame[0])) == 0.0


def test_block_constant_clouds_stay_block_constant():
    space = make_grid_space("interval", (12,))
    sys = discretize(canonical_embedding(np.array([[1.0, 0.4], [0.4, 0.3]])), space)
    rng = np.random.Generator(np.random.Philox(4))
    blocks = rng.uniform(0, 2 * np.pi, (2, 6))
    particles = np.repeat(blocks, 6, axis=0)
    traj = integrate_meanfield(sys, MeasureState(particles), 5.0, 1e-3, sample_every=100)
    drift = 0.0
    for frame in traj.states:
        for b in range(2):
            block = frame[6 * b:6 * (b + 1)]
            drift = max(drift, float(np.max(np.abs(block - block[0]))))
    assert drift <= 1e-10


def test_permutation_commutes_at_measure_level():
    sys = constant_system(10)
    rng = np.random.Generator(np.random.Philox(5))
    perm = permutation_map(rng.permutation(10))
    particles = rng.uniform(0, 2 * np.pi, (10, 6))
    t1 = integrate_meanfield(sys, MeasureState(pullback(perm, particles)), 3.0, 1e-3,
                             sample_every=100)
    t2 = integrate_meanfield(sys, MeasureState(particles), 3.0, 1e-3, sample_every=100)
    dev = max(measure_distance(sys.space, a, pullback(perm, b))
              for a, b in zip(t1.states, t2.states))
    assert dev <= 1e-8


def test_particle_count_is_conserved():
    sys = constant_system(4)
    traj = integrate_meanfield(sys, MeasureState(np.zeros((4, 7))), 0.5, 1e-2)
    assert all(frame.shape == (4, 7) for frame in traj.states)


def test_dirac_clouds_stay_dirac():
    sys = constant_system(6)
    rng = np.random.Generator(np.random.Philox(6))
    u0 = rng.uniform(0, 2 * np.pi, 6)
    particles = np.tile(u0[:, None], (1, 5))
    traj = integrate_meanfield(sys, MeasureState(particles), 2.0, 1e-2, sample_every=25)
    for frame in traj.states:
        assert np.max(np.abs(frame - frame[:, :1])) == 0.0


def test_measure_distance_is_label_invariant():
    space = uniform_space(3)
    a = np.array([[0.0, 1.0, 2.0], [0.5, 0.5, 0.5], [3.0, 2.0, 1.0]])
    shuffled = a[:, [2, 0, 1]]
    assert measure_distance(space, a, shuffled) == 0.0
    b = a.copy()
    b[0] += 1.0
    assert measure_distance(space, a, b) == pytest.approx(1.0 / 3.0)


def test_shape_validation():
    sys = constant_system(4)
    with pytest.raises(ValueError):
        meanfield_rhs(sys, np.zeros((3, 2)))
    with pytest.raises(ValueError):
        MeasureState(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        MeasureState(np.array([[np.nan, 0.0]]))


def test_measure_csv_export(tmp_path):
    sys = constant_system(3)
    traj = integrate_meanfield(sys, MeasureState(np.array([[0.1, 0.2], [0.3, 0.4], [0.5, 0.6]])),
                               0.1, 1e-2, sample_every=5)
    path = tmp_path / "mf.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,node,particle,value"
    assert len(lines) == 1 + len(traj.times) * 3 * 2


def test_measure_csv_matches_csv_writer(tmp_path):
    """to_csv writes the bytes csv.writer writes for rows of repr floats."""
    import csv
    rng = np.random.Generator(np.random.Philox(11))
    traj = integrate_meanfield(sample_er(12, 0.5, 3), MeasureState(rng.uniform(-9, 9, (12, 7))),
                               0.3, 1e-2, sample_every=4)
    odd = MeasureTrajectory(np.array([0.0, 1e-300, 2.5e17]),
                            np.array([[[-0.0, np.nan, 1 / 3]], [[np.inf, -np.inf, 5e-324]],
                                      [[1e300, 0.1 + 0.2, -7.0]]]))
    for k, tr in enumerate((traj, odd)):
        path, ref = tmp_path / f"m{k}.csv", tmp_path / f"r{k}.csv"
        tr.to_csv(path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "node", "particle", "value"])
            for t, frame in zip(tr.times, tr.states):
                for i, row in enumerate(frame):
                    for p, v in enumerate(row):
                        writer.writerow([repr(float(t)), i, p, repr(float(v))])
        assert path.read_bytes() == ref.read_bytes()
