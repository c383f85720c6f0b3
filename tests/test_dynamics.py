import math

import numpy as np
import pytest

from graphlim import (
    ConstantKernel,
    MatrixKernel,
    MeasureState,
    ModelFunctions,
    NumericError,
    Trajectory,
    discretize,
    disjoint_union,
    from_rows,
    geodesic_kernel,
    integrate,
    integrate_meanfield,
    kuramoto_model,
    make_finite_space,
    make_grid_space,
    meanfield_rhs,
    rhs,
    sample_er,
    spherical_graphop,
    uniform_space,
)
from graphlim.dynamics import _SEGMENT_NNZ


def two_node_system():
    return discretize(ConstantKernel(1.0), uniform_space(2))


def test_kuramoto_model_functions():
    m = kuramoto_model(2.0, 1.0)
    assert m.f(0.3, 0.5) == 2.5
    assert m.g(0.2, 0.9) == np.sin(0.9 - 0.2 + 1.0)
    z = kuramoto_model(0.0, 0.0)
    assert z.g(0.4, 0.4) == 0.0
    assert z.f(0.4, 0.0) == 0.0


def test_rhs_on_weighted_path_matches_hand_formula():
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.9], [0.0, 0.9, 0.0]])
    space = make_finite_space([3 / 10, 1 / 2, 1 / 5])
    sys = discretize(MatrixKernel(w), space)

    def f(u, s):
        return np.cos(u) + 2.0 * s

    def g(u, v):
        return np.tanh(v - 0.5 * u)

    from graphlim import ModelFunctions
    model = ModelFunctions(f=f, g=g)
    u = np.array([0.3, -1.2, 2.5])
    du = rhs(sys, model, u)
    expected = np.array([
        f(u[0], 0.5 * g(u[0], u[1])),
        f(u[1], 0.3 * g(u[1], u[0]) + 0.18 * g(u[1], u[2])),
        f(u[2], 0.45 * g(u[2], u[1])),
    ])
    assert np.allclose(du, expected, rtol=1e-15, atol=0)


def test_rhs_constant_state_is_fixed_point():
    sys = discretize(ConstantKernel(1.0), uniform_space(6))
    du = rhs(sys, kuramoto_model(0.0, 0.0), np.full(6, 1.7))
    assert np.array_equal(du, np.zeros(6))


def test_rhs_two_node_hand_value():
    du = rhs(two_node_system(), kuramoto_model(0.0, 0.0), np.array([0.0, math.pi / 2]))
    assert du[0] == 0.5 * math.sin(math.pi / 2)
    assert du[1] == 0.5 * math.sin(-math.pi / 2)


def test_rhs_length_mismatch():
    with pytest.raises(ValueError):
        rhs(two_node_system(), kuramoto_model(), np.zeros(3))


def test_rhs_reports_nonfinite_node():
    from graphlim import ModelFunctions
    model = ModelFunctions(f=lambda u, s: np.where(u > 1, np.inf, s), g=lambda u, v: v - u)
    sys = discretize(ConstantKernel(1.0), uniform_space(3))
    with pytest.raises(NumericError) as err:
        rhs(sys, model, np.array([0.0, 2.0, 0.0]))
    assert err.value.node == 1


def test_integrate_round_trip():
    sys = discretize(ConstantKernel(1.0), uniform_space(5))
    rng = np.random.Generator(np.random.Philox(4))
    u0 = rng.uniform(0, 2 * np.pi, 5)
    fwd = integrate(sys, kuramoto_model(0.0, 0.3), u0, 1.5, 1e-3)
    back = integrate(sys, kuramoto_model(0.0, 0.3), fwd.states[-1], -1.5, 1e-3)
    assert np.max(np.abs(back.states[-1] - u0)) <= 1e-8


def test_integrate_preserves_order_on_all_to_all():
    sys = discretize(ConstantKernel(1.0), uniform_space(6))
    u0 = np.array([0.0, 0.4, 0.9, 1.5, 2.2, 3.0])
    traj = integrate(sys, kuramoto_model(0.0, 0.0), u0, 4.0, 1e-3, sample_every=100)
    for state in traj.states:
        assert np.all(np.diff(state) > 0)


def test_two_oscillator_gap_contracts():
    sys = two_node_system()
    u0 = np.array([0.0, math.pi - 0.1])
    traj = integrate(sys, kuramoto_model(0.0, 0.0), u0, 6.0, 1e-3, sample_every=50)
    gaps = traj.states[:, 1] - traj.states[:, 0]
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] < gaps[0]


def test_flow_continuity_in_initial_condition():
    # contraction of two trajectories stays under the declared growth rate
    sys = discretize(ConstantKernel(1.0), uniform_space(8))
    model = kuramoto_model(0.0, 0.4)
    rng = np.random.Generator(np.random.Philox(6))
    u0 = rng.uniform(0, 2 * np.pi, 8)
    v0 = u0 + rng.uniform(-0.1, 0.1, 8)
    t_end = 1.0
    tru = integrate(sys, model, u0, t_end, 1e-3, sample_every=100)
    trv = integrate(sys, model, v0, t_end, 1e-3, sample_every=100)
    mu = sys.space.weights
    d0 = np.sum(mu * np.abs(u0 - v0))
    rate = 3.0
    for t, a, b in zip(tru.times, tru.states, trv.states):
        d = np.sum(mu * np.abs(a - b))
        assert d <= d0 * math.exp(rate * t) * 1.01


def test_step_halving_improves_error_sixteen_fold():
    sys = discretize(ConstantKernel(1.0), uniform_space(8))
    model = kuramoto_model(0.0, 0.0)
    u0 = np.random.Generator(np.random.Philox(21)).uniform(0, 2 * np.pi, 8)
    ref = integrate(sys, model, u0, 1.0, 1 / 1024, sample_every=10**9).states[-1]
    e1 = np.max(np.abs(integrate(sys, model, u0, 1.0, 1 / 16, sample_every=10**9).states[-1] - ref))
    e2 = np.max(np.abs(integrate(sys, model, u0, 1.0, 1 / 32, sample_every=10**9).states[-1] - ref))
    assert 12.0 <= e1 / e2 <= 20.0


def test_trajectories_are_deterministic():
    sys = discretize(ConstantKernel(1.0), uniform_space(10))
    u0 = np.linspace(0, 3, 10)
    a = integrate(sys, kuramoto_model(0.1, 0.2), u0, 0.5, 1e-3)
    b = integrate(sys, kuramoto_model(0.1, 0.2), u0, 0.5, 1e-3)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.times, b.times)


def test_integrate_endpoint_and_sampling():
    sys = two_node_system()
    traj = integrate(sys, kuramoto_model(), np.array([0.0, 1.0]), 1.0, 1e-2, sample_every=7)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == 1.0


def test_integrate_validation():
    sys = two_node_system()
    with pytest.raises(ValueError):
        integrate(sys, kuramoto_model(), np.array([0.0, 1.0]), 0.0, 1e-3)
    with pytest.raises(ValueError):
        integrate(sys, kuramoto_model(), np.array([0.0, 1.0]), 1.0, -1e-3)
    with pytest.raises(ValueError):
        integrate(sys, kuramoto_model(), np.array([0.0, np.nan]), 1.0, 1e-3)


def test_integrate_flags_blowup_time():
    from graphlim import ModelFunctions
    model = ModelFunctions(f=lambda u, s: u * u, g=lambda u, v: 0.0 * v)
    sys = two_node_system()
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as err:
            integrate(sys, model, np.array([5.0, 5.0]), 10.0, 1e-2)
    assert err.value.time is not None


def test_trajectory_csv_round_trip(tmp_path):
    sys = two_node_system()
    traj = integrate(sys, kuramoto_model(0.0, 0.1), np.array([0.2, 1.2]), 0.2, 1e-2, sample_every=5)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,u_0,u_1"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], traj.times)
    assert np.array_equal(parsed[:, 1:], traj.states)


def test_trajectory_csv_matches_csv_writer(tmp_path):
    """to_csv writes the bytes csv.writer writes for rows of repr floats."""
    import csv
    traj = integrate(discretize(ConstantKernel(1.0), uniform_space(5)), kuramoto_model(0.3, 0.1),
                     np.linspace(-3.0, 3.0, 5), 0.5, 1e-2, sample_every=7)
    odd = Trajectory(np.array([-1e-300, 0.0, 0.1, 2.5e17]),
                     np.array([[-0.0, np.nan, np.inf, -np.inf], [1e-320, 1.0, -2.0, 1 / 3],
                               [5e-324, 1e300, 0.1 + 0.2, -7.0], [0.0, 0.0, 0.0, 0.0]]))
    for k, tr in enumerate((traj, odd)):
        path, ref = tmp_path / f"t{k}.csv", tmp_path / f"r{k}.csv"
        tr.to_csv(path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"u_{i}" for i in range(tr.states.shape[1])])
            for t, row in zip(tr.times, tr.states):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])
        assert path.read_bytes() == ref.read_bytes()


def test_trajectory_requires_monotone_times():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5, 0.5]), np.zeros((3, 2)))


def reference_rhs(system, model, state):
    """The gather-and-bincount RHS: g on every entry, rows summed in ascending order."""
    rows = system.row_of_entry
    pair = model.g(state[rows], state[system.indices])
    return model.f(state, np.bincount(rows, weights=system.weights * pair, minlength=system.n))


def isolated_node_system():
    """Dense 0/1 graph on 60 nodes in which nodes 0, 17 and 59 have empty rows."""
    rng = np.random.Generator(np.random.Philox(31))
    a = np.triu((rng.uniform(size=(60, 60)) < 0.7).astype(float), 1)
    a = a + a.T
    a[[0, 17, 59], :] = 0.0
    a[:, [0, 17, 59]] = 0.0
    return discretize(MatrixKernel(a), uniform_space(60))


def nonuniform_system():
    rng = np.random.Generator(np.random.Philox(32))
    w = rng.uniform(size=(50, 50))
    return discretize(MatrixKernel((w + w.T) / 2), make_finite_space(rng.uniform(0.1, 1.0, 50)))


LARGE_SYSTEMS = {
    "torus": lambda: discretize(geodesic_kernel("torus", 0.3, dim=2),
                                make_grid_space("torus", (12, 12))),
    "sphere": lambda: discretize(geodesic_kernel("sphere2", math.pi / 2),
                                 make_grid_space("sphere2", (120,))),
    "spherical_graphop": lambda: spherical_graphop(make_grid_space("sphere2", (120,))),
    "er200": lambda: sample_er(200, 0.3, 5),
    "isolated_nodes": isolated_node_system,
    "nonuniform": nonuniform_system,
}


def reference_bound(system):
    return 1e-14 * (1.0 + float(system.row_sums().max()))  # weights are nonnegative


@pytest.mark.parametrize("name", sorted(LARGE_SYSTEMS))
def test_large_rhs_matches_gather_reference(name):
    sys = LARGE_SYSTEMS[name]()
    assert sys.indices.size >= _SEGMENT_NNZ
    rng = np.random.Generator(np.random.Philox(33))
    for alpha in (0.0, 1.0, -2.5):
        for omega in (0.0, 0.7):
            model = kuramoto_model(omega, alpha)
            u = rng.uniform(-20.0, 20.0, sys.n)
            dev = np.max(np.abs(rhs(sys, model, u) - reference_rhs(sys, model, u)))
            assert dev <= reference_bound(sys), (name, alpha, omega, dev)
    # phases are never wrapped, so long runs reach |u| ~ 1e4; the error of the
    # shifted factors must not grow with |u| (alpha = 0.3 is not on the grid
    # of such u, so forming u + alpha would round)
    model = kuramoto_model(0.0, 0.3)
    u = 1e4 + rng.uniform(-20.0, 20.0, sys.n)
    dev = np.max(np.abs(rhs(sys, model, u) - reference_rhs(sys, model, u)))
    assert dev <= reference_bound(sys), (name, dev)


def test_large_rhs_of_isolated_node_is_its_frequency():
    sys = isolated_node_system()
    u = np.random.Generator(np.random.Philox(34)).uniform(-20.0, 20.0, sys.n)
    du = rhs(sys, kuramoto_model(0.7, 1.0), u)
    assert np.array_equal(du[[0, 17, 59]], np.full(3, 0.7))


@pytest.mark.parametrize("name", sorted(LARGE_SYSTEMS))
def test_large_rhs_constant_state_is_exact_fixed_point(name):
    sys = LARGE_SYSTEMS[name]()
    for value in (0.0, 0.9, -13.7, 1e6):
        du = rhs(sys, kuramoto_model(0.0, 0.0), np.full(sys.n, value))
        assert np.array_equal(du, np.zeros(sys.n)), (name, value)


def test_large_rhs_pair_terms_are_antisymmetric():
    # 2 * _SEGMENT_NNZ nodes matched in pairs (2k, 2k+1): each row holds one
    # pair term, so du_2k = -du_2k+1 exactly iff the pair terms are antisymmetric
    n = 2 * _SEGMENT_NNZ
    partner = np.arange(n) ^ 1
    sys = from_rows(uniform_space(n), [([j], [1.0 / n]) for j in partner])
    assert sys.indices.size >= _SEGMENT_NNZ
    u = np.random.Generator(np.random.Philox(35)).uniform(-20.0, 20.0, n)
    du = rhs(sys, kuramoto_model(0.0, 0.0), u)
    assert np.array_equal(du, -du[partner])
    assert np.all(du != 0.0)


def test_custom_model_on_large_system_keeps_gather_arithmetic():
    model = ModelFunctions(f=lambda u, s: np.cos(u) + s, g=lambda u, v: np.tanh(v - 0.5 * u))
    for name in ("er200", "isolated_nodes"):
        sys = LARGE_SYSTEMS[name]()
        u = np.random.Generator(np.random.Philox(36)).uniform(-20.0, 20.0, sys.n)
        assert np.array_equal(rhs(sys, model, u), reference_rhs(sys, model, u)), name


def test_rhs_at_the_segment_threshold():
    below = math.isqrt(_SEGMENT_NNZ - 1)  # all-to-all: nnz = n^2
    small = discretize(ConstantKernel(1.0), uniform_space(below))
    large = discretize(ConstantKernel(1.0), uniform_space(below + 1))
    assert small.indices.size < _SEGMENT_NNZ <= large.indices.size
    rng = np.random.Generator(np.random.Philox(37))
    for alpha in (0.0, 1.0, -2.5):
        model = kuramoto_model(0.7, alpha)
        u = rng.uniform(-20.0, 20.0, small.n)
        assert np.array_equal(rhs(small, model, u), reference_rhs(small, model, u))
        u = rng.uniform(-20.0, 20.0, large.n)
        dev = np.max(np.abs(rhs(large, model, u) - reference_rhs(large, model, u)))
        assert dev <= reference_bound(large)


def test_large_trajectories_are_bit_identical_on_rerun():
    sys = LARGE_SYSTEMS["torus"]()
    u0 = np.random.Generator(np.random.Philox(38)).uniform(0, 2 * np.pi, sys.n)
    a = integrate(sys, kuramoto_model(0.3, 1.0), u0, 0.2, 1e-2)
    b = integrate(sys, kuramoto_model(0.3, 1.0), u0, 0.2, 1e-2)
    assert np.array_equal(a.states, b.states)


def test_dirac_clouds_follow_node_dynamics_bitwise_on_large_system():
    sys = LARGE_SYSTEMS["er200"]()
    u0 = np.random.Generator(np.random.Philox(40)).uniform(0, 2 * np.pi, sys.n)
    td = integrate(sys, kuramoto_model(0.0, 0.0), u0, 0.2, 1e-2)
    tm = integrate_meanfield(sys, MeasureState(u0[:, None]), 0.2, 1e-2)
    assert np.array_equal(td.states, tm.states[:, :, 0])


def textbook_rk4(fn, y0, t_end, step, sample_every=1):
    """Sampled states of y <- y + (h/6)(k1 + 2k2 + 2k3 + k4), all temporaries fresh."""
    nsteps = max(1, int(round(abs(t_end) / step)))
    h = t_end / nsteps
    y = np.array(y0, dtype=np.float64)
    states = [y]
    for k in range(1, nsteps + 1):
        k1 = fn(y)
        k2 = fn(y + (h / 2.0) * k1)
        k3 = fn(y + (h / 2.0) * k2)
        k4 = fn(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if k % sample_every == 0 or k == nsteps:
            states.append(y)
    return np.stack(states)


def test_rk4_matches_textbook_step_under_kuramoto_preset():
    rng = np.random.Generator(np.random.Philox(41))
    for sys, t_end, step, every in ((sample_er(23, 0.5, 4), 0.5, 1e-3, 7),
                                    (LARGE_SYSTEMS["isolated_nodes"](), -0.1, 1e-2, 1)):
        model = kuramoto_model(0.4, 0.3)
        u0 = rng.uniform(0, 2 * np.pi, sys.n)
        traj = integrate(sys, model, u0, t_end, step, sample_every=every)
        want = textbook_rk4(lambda u: rhs(sys, model, u), u0, t_end, step, every)
        assert np.array_equal(traj.states, want)


def test_rk4_matches_textbook_step_when_f_returns_its_argument():
    sys = sample_er(16, 0.5, 9)
    model = ModelFunctions(f=lambda u, s: u, g=lambda u, v: np.sin(v - u))
    u0 = np.random.Generator(np.random.Philox(42)).uniform(-1.0, 1.0, sys.n)
    traj = integrate(sys, model, u0, 1.0, 1e-2)
    want = textbook_rk4(lambda u: rhs(sys, model, u), u0, 1.0, 1e-2)
    assert np.array_equal(traj.states, want)
    assert not np.array_equal(traj.states[-1], u0)  # the run moved


def test_rk4_matches_textbook_step_on_meanfield_clouds():
    sys = sample_er(20, 0.5, 11)
    clouds = np.random.Generator(np.random.Philox(43)).uniform(0, 2 * np.pi, (sys.n, 3))
    traj = integrate_meanfield(sys, MeasureState(clouds), 0.5, 1e-2, sample_every=5)
    want = textbook_rk4(lambda u: meanfield_rhs(sys, u), clouds, 0.5, 1e-2, 5)
    assert np.array_equal(traj.states, want)


def empty_row_system():
    """Weighted graph on 10 nodes whose node 3 has no neighbors."""
    rng = np.random.Generator(np.random.Philox(44))
    a = rng.uniform(size=(10, 10))
    a = (a + a.T) / 2
    a[3, :] = a[:, 3] = 0.0
    return discretize(MatrixKernel(a), uniform_space(10))


def _matrix_system(seed):
    a = np.random.Generator(np.random.Philox(seed)).uniform(size=(12, 12))
    return discretize(MatrixKernel((a + a.T) / 2), uniform_space(12))


UNIONS = {
    "matrix12_pair": lambda: [_matrix_system(45), _matrix_system(46)],
    "er23_er16": lambda: [sample_er(23, 0.5, 47), sample_er(16, 0.5, 48)],
    "empty_row": lambda: [empty_row_system(), sample_er(16, 0.5, 49), empty_row_system()],
    "product_path": lambda: [isolated_node_system(), nonuniform_system()],
}


@pytest.mark.parametrize("name", sorted(UNIONS))
def test_disjoint_union_integrates_each_component_bitwise(name):
    parts = UNIONS[name]()
    union, offsets = disjoint_union(parts)
    assert offsets.tolist() == np.cumsum([0] + [p.n for p in parts]).tolist()
    if name == "product_path":
        assert min(p.indices.size for p in parts) >= _SEGMENT_NNZ
    else:
        assert union.indices.size < _SEGMENT_NNZ
    dense = union.dense()
    for k, part in enumerate(parts):
        block = slice(offsets[k], offsets[k + 1])
        assert np.array_equal(dense[block, block], part.dense())
        assert np.count_nonzero(dense[block]) == part.indices.size  # nothing off-block
    rng = np.random.Generator(np.random.Philox(50))
    starts = [rng.uniform(0, 2 * np.pi, p.n) for p in parts]
    model = kuramoto_model(0.2, 0.3)
    steps = (0.2, 1e-2) if name == "product_path" else (1.0, 1e-3)
    joint = integrate(union, model, np.concatenate(starts), *steps, sample_every=3)
    for k, (part, u0) in enumerate(zip(parts, starts)):
        alone = integrate(part, model, u0, *steps, sample_every=3)
        assert np.array_equal(joint.times, alone.times)
        assert np.array_equal(joint.states[:, offsets[k]:offsets[k + 1]], alone.states)
