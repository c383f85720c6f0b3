import math

import numpy as np
import pytest

from graphlim import (
    ConstantKernel,
    MatrixKernel,
    NumericError,
    Trajectory,
    discretize,
    integrate,
    kuramoto_model,
    make_finite_space,
    rhs,
    uniform_space,
)


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


def test_trajectory_requires_monotone_times():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 0.5, 0.5]), np.zeros((3, 2)))
