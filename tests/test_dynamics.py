import math
import os

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
from graphlim import dynamics, systems
from graphlim.dynamics import _SEGMENT_NNZ, _rhs_fn


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


def test_non_finite_span_is_a_value_error_naming_the_field():
    # round(inf) would raise OverflowError and round(nan) a message about integers
    sys, u0 = two_node_system(), np.array([0.0, 1.0])
    for t_end, step, field in ((math.inf, 1e-2, "t_end"), (-math.inf, 1e-2, "t_end"),
                               (math.nan, 1e-2, "t_end"), (1.0, math.nan, "step"),
                               (1.0, math.inf, "step")):
        with pytest.raises(ValueError, match=f"{field} must be finite, got "):
            integrate(sys, kuramoto_model(), u0, t_end, step)
        with pytest.raises(ValueError, match=f"{field} must be finite, got "):
            integrate_meanfield(sys, MeasureState(u0[:, None]), t_end, step)


def test_span_whose_step_count_overflows_is_a_value_error():
    # both finite, but |t_end| / step is inf and round(inf) would raise OverflowError
    sys, u0 = two_node_system(), np.array([0.0, 1.0])
    for t_end in (1e300, -1e300):
        with pytest.raises(ValueError, match="t_end / step must be finite"):
            integrate(sys, kuramoto_model(), u0, t_end, 1e-300)
        with pytest.raises(ValueError, match="t_end / step must be finite"):
            integrate_meanfield(sys, MeasureState(u0[:, None]), t_end, 1e-300)


def test_span_whose_samples_exceed_memory_is_a_value_error():
    # 1e15 steps ask for 16 PB of samples; 1e305 steps for more than numpy can shape
    sys, u0 = two_node_system(), np.array([0.0, 1.0])
    for t_end, step in ((1e12, 1e-3), (-1e12, 1e-3), (1e300, 1e-5)):
        with pytest.raises(ValueError, match=r"t_end=.*, step=.* and sample_every=1 ask for "
                                             r"\d+ samples, more than memory holds"):
            integrate(sys, kuramoto_model(), u0, t_end, step)
        with pytest.raises(ValueError, match="samples, more than memory holds"):
            integrate_meanfield(sys, MeasureState(np.zeros((2, 3))), t_end, step)
    # 1.6 PB of samples: still more than any machine holds
    with pytest.raises(ValueError, match="sample_every=10 ask for 100000000000001 samples"):
        integrate(sys, kuramoto_model(), u0, 1e12, 1e-3, sample_every=10)


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


def reference_segment_rhs(system, model, u):
    """The product-form RHS of large Kuramoto systems, every factor derived afresh per call."""
    sin_u, cos_u = np.sin(u), np.cos(u)
    ca, sa = np.cos(model.alpha), np.sin(model.alpha)
    sin_a = sin_u * ca + cos_u * sa
    cos_a = cos_u * ca - sin_u * sa
    row_len = np.diff(system.indptr)
    pair = sin_a[system.indices]
    pair *= np.repeat(cos_u, row_len)
    cross = cos_a[system.indices]
    cross *= np.repeat(sin_u, row_len)
    pair -= cross
    pair *= system.weights
    starts = system.indptr[:-1]
    nonempty = starts < system.indptr[1:]
    if nonempty.all():
        s = np.add.reduceat(pair, starts)
    else:
        s = np.zeros(system.n)
        s[nonempty] = np.add.reduceat(pair, starts[nonempty])
    return model.f(u, s)


def same_bits(a, b):
    """Bitwise equality: np.array_equal would take -0.0 for +0.0."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def assert_bound_rhs_is_reference(system, model, u, reference):
    want = reference(system, model, u)
    assert same_bits(_rhs_fn(system, model)(u), want)
    assert same_bits(rhs(system, model, u), want)


def test_bound_small_kuramoto_rhs_is_the_gather_reference():
    rng = np.random.Generator(np.random.Philox(51))
    for sys in (sample_er(23, 0.5, 52), empty_row_system(), two_node_system()):
        assert sys.indices.size < _SEGMENT_NNZ
        for omega, alpha in ((0.7, 0.3), (-1.1, -2.1), (0.0, 1.0), (0.4, 0.0), (0.0, 0.0)):
            for base in (0.0, 1e4):
                u = base + rng.uniform(-20.0, 20.0, sys.n)
                assert_bound_rhs_is_reference(sys, kuramoto_model(omega, alpha), u, reference_rhs)


def test_bound_small_kuramoto_rhs_keeps_signed_zeros():
    # at alpha = 0 the reference forms (v - u) + 0.0, which turns a -0.0 difference into +0.0;
    # the bound path skips that add, so the sums must not see the sign
    sys = sample_er(23, 0.5, 53)
    u = np.where(np.arange(sys.n) % 3 == 0, -0.0, 0.0)
    assert np.any(np.signbit(u[sys.indices] - u[sys.row_of_entry]))
    for model in (kuramoto_model(0.0, 0.0), kuramoto_model(0.0, -0.0), kuramoto_model(0.5, 0.0)):
        assert_bound_rhs_is_reference(sys, model, u, reference_rhs)
    # on the large path a one-entry row sums to its pair term, here -0.0 at alpha = -0.0,
    # and only the add of omega = 0 turns it into +0.0
    n = 2 * _SEGMENT_NNZ
    pairs = from_rows(uniform_space(n), [([j], [1.0 / n]) for j in np.arange(n) ^ 1])
    u = np.where(np.arange(n) % 2, -0.0, 0.0)
    model = kuramoto_model(0.0, -0.0)
    assert np.any(np.signbit(model.g(u[pairs.row_of_entry], u[pairs.indices])))
    assert_bound_rhs_is_reference(pairs, model, u, reference_segment_rhs)


def test_bound_generic_rhs_is_the_gather_reference():
    model = ModelFunctions(f=lambda u, s: np.cos(u) + s, g=lambda u, v: np.tanh(v - 0.5 * u))
    rng = np.random.Generator(np.random.Philox(54))
    for sys in (sample_er(23, 0.5, 55), empty_row_system(), LARGE_SYSTEMS["isolated_nodes"]()):
        assert_bound_rhs_is_reference(sys, model, rng.uniform(-20.0, 20.0, sys.n), reference_rhs)


def test_bound_large_kuramoto_rhs_is_the_segment_reference():
    rng = np.random.Generator(np.random.Philox(56))
    for name in ("isolated_nodes", "torus", "er200"):
        sys = LARGE_SYSTEMS[name]()
        assert sys.indices.size >= _SEGMENT_NNZ
        for omega, alpha in ((0.7, 1.0), (0.0, -2.5), (0.0, 0.0)):
            u = rng.uniform(-20.0, 20.0, sys.n)
            assert_bound_rhs_is_reference(sys, kuramoto_model(omega, alpha), u,
                                          reference_segment_rhs)


def test_bound_rhs_belongs_to_its_own_system():
    # two systems of one size under one model object, bound and called in turn
    model = kuramoto_model(0.3, 0.4)
    rng = np.random.Generator(np.random.Philox(60))
    for a, b, reference in ((sample_er(20, 0.5, 57), sample_er(20, 0.5, 58), reference_rhs),
                            (sample_er(200, 0.3, 5), sample_er(200, 0.3, 59),
                             reference_segment_rhs)):
        assert a.n == b.n and not np.array_equal(a.dense(), b.dense())
        u = rng.uniform(0, 2 * np.pi, a.n)
        fa, fb = _rhs_fn(a, model), _rhs_fn(b, model)
        for sys, fn in ((a, fa), (b, fb), (a, fa)):
            assert same_bits(fn(u), reference(sys, model, u))
            assert same_bits(rhs(sys, model, u), reference(sys, model, u))
        for sys in (a, b, a):
            traj = integrate(sys, model, u, 0.05, 1e-2)
            want = textbook_rk4(lambda x: reference(sys, model, x), u, 0.05, 1e-2)
            assert same_bits(traj.states, want)


def test_rhs_is_the_first_rk4_stage_of_integrate(monkeypatch):
    seen = []
    core = dynamics._integrate_core

    def spy(fn, y0, *args):
        seen.append(fn(np.array(y0)))
        return core(fn, y0, *args)

    monkeypatch.setattr(dynamics, "_integrate_core", spy)
    rng = np.random.Generator(np.random.Philox(61))
    custom = ModelFunctions(f=lambda u, s: u + s, g=lambda u, v: np.sin(v - u))
    for sys, model in ((sample_er(23, 0.5, 62), kuramoto_model(0.2, 0.3)),
                       (LARGE_SYSTEMS["isolated_nodes"](), kuramoto_model(0.2, 0.3)),
                       (sample_er(16, 0.5, 63), custom)):
        u0 = rng.uniform(0, 2 * np.pi, sys.n)
        integrate(sys, model, u0, 0.01, 1e-2)
        assert same_bits(seen.pop(), rhs(sys, model, u0))


def test_dirac_clouds_follow_the_gather_reference_bitwise():
    sys = sample_er(23, 0.5, 64)
    u0 = np.random.Generator(np.random.Philox(65)).uniform(0, 2 * np.pi, sys.n)
    model = kuramoto_model(0.0, 0.0)
    want = textbook_rk4(lambda u: reference_rhs(sys, model, u), u0, 0.5, 1e-2, 5)
    traj = integrate_meanfield(sys, MeasureState(u0[:, None]), 0.5, 1e-2, sample_every=5)
    assert same_bits(traj.states[:, :, 0].copy(), want)
    assert same_bits(meanfield_rhs(sys, u0[:, None]), reference_rhs(sys, model, u0)[:, None])


def row_length_system(lengths, seed):
    """System whose row i holds ``lengths[i]`` random neighbors of mass 1/n each."""
    n = len(lengths)
    rng = np.random.Generator(np.random.Philox(seed))
    rows = [(np.sort(rng.choice(n, k, replace=False)), np.full(k, 1 / n)) for k in lengths]
    return from_rows(uniform_space(n), rows)


def blocked_rhs_cases():
    """Row layouts that put block edges on awkward rows at block sizes 7 and 64."""
    rng = np.random.Generator(np.random.Philox(70))
    ragged = [0, 0, 200, 3] + rng.integers(0, 13, 250).tolist() + [150, 0, 0, 0]
    return {
        # a row longer than a block; empty rows at the start and the end
        "long_rows": ragged,
        # empty rows on either side of four rows of 16: at size 64 the first block
        # starts with an empty row and every block ends with empty rows
        "empty_edges": [0, 16, 16, 16, 16, 0, 0] * 24 + [0, 0],
        # nnz = 1792 = 28 * 64 = 256 * 7; rows of 8 fill blocks of 64 exactly
        "exact_multiple": [8] * 224,
        "one_entry_rows": [1] * (2 * _SEGMENT_NNZ),
    }


def test_row_blocks_hold_whole_rows(monkeypatch):
    for size in (7, 64):
        monkeypatch.setattr(systems, "_BLOCK_ENTRIES", size)
        for name, lengths in blocked_rhs_cases().items():
            indptr = np.concatenate([[0], np.cumsum(lengths)])
            blocks = systems._row_blocks(indptr)
            edges = [lo for lo, _ in blocks] + [blocks[-1][1]]
            assert edges == sorted(set(edges)) and edges[0] == 0 and edges[-1] == len(lengths)
            for lo, hi in blocks:
                entries = indptr[hi] - indptr[lo]
                assert entries <= size or hi == lo + 1, (name, size, lo, hi)
                # greedy: the next row would not have fit
                assert hi == len(lengths) or entries + lengths[hi] > size, (name, size, lo, hi)
            if name == "empty_edges" and size == 64:  # a block opens on empty rows, all close so
                assert lengths[0] == 0 and all(lengths[hi - 1] == 0 for _, hi in blocks)
    rows_of_8 = np.arange(0, 8 * 56 + 1, 8)
    assert systems._row_blocks(rows_of_8) == [(lo, lo + 8) for lo in range(0, 56, 8)]
    monkeypatch.setattr(systems, "_BLOCK_ENTRIES", 7)
    assert systems._row_blocks(rows_of_8) == [(lo, lo + 1) for lo in range(56)]


@pytest.mark.parametrize("size", [7, 64])
@pytest.mark.parametrize("name", sorted(blocked_rhs_cases()))
def test_blocked_rhs_is_the_segment_reference_bitwise(monkeypatch, size, name):
    monkeypatch.setattr(systems, "_BLOCK_ENTRIES", size)
    sys = row_length_system(blocked_rhs_cases()[name], 71)
    assert sys.indices.size >= _SEGMENT_NNZ
    assert len(systems._row_blocks(sys.indptr)) > 1
    rng = np.random.Generator(np.random.Philox(72))
    for omega in (0.0, 0.7):
        for alpha in (0.0, 0.3):
            model = kuramoto_model(omega, alpha)
            u = rng.uniform(-20.0, 20.0, sys.n)
            assert_bound_rhs_is_reference(sys, model, u, reference_segment_rhs)
            traj = integrate(sys, model, u, 0.03, 1e-2)
            want = textbook_rk4(lambda x: reference_segment_rhs(sys, model, x), u, 0.03, 1e-2)
            assert same_bits(traj.states, want), (name, size, omega, alpha)


UNCOUPLED = {
    "er_p0": lambda: sample_er(12, 0.0, 1),
    "constant_zero": lambda: discretize(ConstantKernel(0.0), uniform_space(9)),
}


@pytest.mark.parametrize("omega", [0.0, 0.5])
@pytest.mark.parametrize("name", sorted(UNCOUPLED))
def test_uncoupled_network_turns_at_its_frequency(name, omega):
    # np.bincount of no entries counts in int64, which an in-place add of omega cannot take
    sys = UNCOUPLED[name]()
    assert sys.indices.size == 0
    u0 = np.random.Generator(np.random.Philox(80)).uniform(-3.0, 3.0, sys.n)
    generic = ModelFunctions(f=lambda u, s: np.cos(u) + s, g=lambda u, v: np.sin(v - u))
    for model in (kuramoto_model(omega, 0.0), kuramoto_model(omega, 0.3), generic):
        assert_bound_rhs_is_reference(sys, model, u0, reference_rhs)
        traj = integrate(sys, model, u0, 0.2, 0.05)
        want = textbook_rk4(lambda x: reference_rhs(sys, model, x), u0, 0.2, 0.05)
        assert same_bits(traj.states, want)
    assert same_bits(rhs(sys, kuramoto_model(omega, 0.3), u0), np.full(sys.n, omega))


@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("name", sorted(UNCOUPLED))
def test_uncoupled_clouds_stand_still(name, m):
    sys = UNCOUPLED[name]()
    clouds = np.random.Generator(np.random.Philox(81)).uniform(-3.0, 3.0, (sys.n, m))
    du = meanfield_rhs(sys, clouds)
    assert du.dtype == np.float64 and np.array_equal(du, np.zeros((sys.n, m)))
    traj = integrate_meanfield(sys, MeasureState(clouds), 0.2, 0.05)
    assert traj.states.dtype == np.float64
    assert np.array_equal(traj.states, np.stack([clouds] * 5))


def rk4_step_loop(fn, y0, t_end, step, sample_every=1):
    """(times, states) of a plain loop of ``dynamics._rk4_step``: every step taken, none skipped."""
    nsteps = max(1, int(round(abs(t_end) / step)))
    h = t_end / nsteps
    y = np.array(y0, dtype=np.float64)
    out, scratch = np.empty_like(y), [np.empty_like(y) for _ in range(4)]
    times, states = [0.0], [y.copy()]
    for k in range(1, nsteps + 1):
        y, out = dynamics._rk4_step(fn, y, h, out, scratch), y
        if k % sample_every == 0 or k == nsteps:
            times.append(k * h)
            states.append(y.copy())
    return np.array(times), np.stack(states)


def fixed_point_cases():
    """(name, system, model, state, t_end, step, steps the driver should take)."""
    er16, er400 = sample_er(16, 0.5, 90), sample_er(400, 0.5, 91)
    sync16, zero = np.full(16, 1.0), kuramoto_model(0.0, 0.0)
    generic = ModelFunctions(f=lambda u, s: s, g=lambda u, v: np.sin(v - u))
    # decays to exact zeros at step 398 of 1,000; the check at step 512 sees it
    decaying = ModelFunctions(f=lambda u, s: 0.1 * s - 1.6 * u, g=lambda u, v: np.sin(v - u))
    signed_zeros = np.zeros(16)
    signed_zeros[::3] = -0.0  # the first step turns them into +0.0: == would stop one step early
    return [("small_path", er16, zero, sync16, 2.0, 1e-3, 1),
            ("product_path", er400, zero, np.full(400, -2.5), 0.5, 1e-2, 1),
            ("generic", er16, generic, sync16, 2.0, 1e-3, 1),
            ("signed_zeros", er16, zero, signed_zeros, 2.0, 1e-3, 2),
            ("backward", er16, zero, sync16, -2.0, 1e-3, 1),
            ("decaying", er16, decaying, 1e-100 * np.linspace(-1.0, 2.0, 16), 1000.0, 1.0, 512),
            ("moving_control", er16, kuramoto_model(0.5, 0.0), sync16, 0.3, 1e-3, 300)]


@pytest.mark.parametrize("every", [1, 7, 10])
@pytest.mark.parametrize("case", fixed_point_cases(), ids=lambda case: case[0])
def test_fixed_point_stop_keeps_every_sample_bitwise(monkeypatch, case, every):
    name, sys, model, u0, t_end, step, want_steps = case
    steps = []
    step_fn = dynamics._rk4_step
    monkeypatch.setattr(dynamics, "_rk4_step", lambda *args: steps.append(1) or step_fn(*args))
    traj = integrate(sys, model, u0, t_end, step, sample_every=every)
    monkeypatch.undo()
    times, states = rk4_step_loop(_rhs_fn(sys, model), u0, t_end, step, every)
    assert same_bits(traj.times, times) and same_bits(traj.states, states), name
    assert len(steps) == want_steps, (name, len(steps))


def test_fixed_point_stop_fills_cloud_samples_bitwise(monkeypatch):
    sys = sample_er(16, 0.5, 92)
    clouds = np.full((sys.n, 3), 0.75)  # synchrony: every particle of every node at 0.75
    steps = []
    step_fn = dynamics._rk4_step
    monkeypatch.setattr(dynamics, "_rk4_step", lambda *args: steps.append(1) or step_fn(*args))
    traj = integrate_meanfield(sys, MeasureState(clouds), 0.5, 1e-3, sample_every=7)
    monkeypatch.undo()
    times, states = rk4_step_loop(lambda p: meanfield_rhs(sys, p), clouds, 0.5, 1e-3, 7)
    assert same_bits(traj.times, times) and same_bits(traj.states, states)
    assert len(steps) == 1


def ensemble_cases():
    """(name, system, model, whether the bound RHS may run members on threads)."""
    torus = discretize(geodesic_kernel("torus", 0.15, dim=2), make_grid_space("torus", (30, 30)))
    generic = ModelFunctions(f=lambda u, s: 0.2 + s, g=lambda u, v: np.sin(v - u + 0.4))
    return [("small_path", sample_er(23, 0.5, 60), kuramoto_model(0.3, 0.5), False),
            ("product_one_block", sample_er(120, 0.2, 61), kuramoto_model(0.0, 1.0), False),
            ("product_blocks", torus, kuramoto_model(0.7, 0.3), True),
            ("generic_large", torus, generic, False)]


def ensemble_states(n, k, seed=62):
    """An (n, k) ensemble, column j member j; a transposed view, so not C-contiguous."""
    return np.random.Generator(np.random.Philox(seed)).uniform(0.0, 2.0 * np.pi, (k, n)).T


@pytest.mark.parametrize("t_end", [0.1, -0.1])
@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("case", ensemble_cases(), ids=lambda case: case[0])
def test_ensemble_members_are_single_runs_bytewise(case, every, t_end):
    name, sys, model, parallel = case
    assert getattr(_rhs_fn(sys, model), "parallel", False) is parallel
    assert len(systems._row_blocks(sys.indptr)) > 1 or not parallel
    for k in (1, 2, 3):
        u0 = ensemble_states(sys.n, k)
        for ensemble in (u0, np.ascontiguousarray(u0)):
            traj = integrate(sys, model, ensemble, t_end, 1e-2, sample_every=every)
            assert traj.states.shape == (traj.times.size, sys.n, k)
            for i in range(k):
                single = integrate(sys, model, u0[:, i], t_end, 1e-2, sample_every=every)
                assert same_bits(traj.times, single.times), (name, k, i)
                assert same_bits(traj.states[:, :, i], single.states), (name, k, i)


def test_ensemble_threads_follow_the_rhs_path(monkeypatch):
    import threading
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    seen, errstates = [], []
    core = dynamics._integrate_core

    def recording(*args):
        seen.append(threading.get_ident())
        errstates.append(np.geterr()["over"])
        return core(*args)

    monkeypatch.setattr(dynamics, "_integrate_core", recording)
    for name, sys, model, parallel in ensemble_cases():
        seen.clear()
        with np.errstate(over="raise"):  # the caller's error state holds on every thread
            integrate(sys, model, ensemble_states(sys.n, 3), 0.02, 1e-2)
        assert len(seen) == 3 and len(set(seen)) == (min(3, cpus) if parallel else 1), name
    assert set(errstates) == {"raise"}


def test_ensemble_member_at_a_fixed_point_beside_a_moving_one(monkeypatch):
    sys = sample_er(400, 0.5, 91)
    u0 = np.stack([np.full(400, -2.5), ensemble_states(400, 1)[:, 0]], axis=1)
    steps = []
    step_fn = dynamics._rk4_step
    monkeypatch.setattr(dynamics, "_rk4_step", lambda *args: steps.append(1) or step_fn(*args))
    traj = integrate(sys, kuramoto_model(0.0, 0.0), u0, 0.5, 1e-2, sample_every=7)
    monkeypatch.undo()
    assert len(steps) == 1 + 50  # synchrony stops after one step, the other member takes 50
    for i in range(2):
        single = integrate(sys, kuramoto_model(0.0, 0.0), u0[:, i], 0.5, 1e-2, sample_every=7)
        assert same_bits(traj.times, single.times) and same_bits(traj.states[:, :, i],
                                                                 single.states)
    assert np.all(traj.states[:, :, 0] == -2.5)


def test_ensemble_bytes_do_not_depend_on_the_cpu_count():
    import hashlib
    import subprocess
    import sys
    if not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two CPUs to compare against one")
    code = (
        "import hashlib, os\n"
        "import numpy as np\n"
        "import graphlim as gl\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "space = gl.make_grid_space('torus', (30, 30))\n"
        "system = gl.discretize(gl.geodesic_kernel('torus', 0.15, dim=2), space)\n"
        "u0 = np.random.Generator(np.random.Philox(62)).uniform(0.0, 2.0 * np.pi, (3, 900)).T\n"
        "traj = gl.integrate(system, gl.kuramoto_model(0.7, 0.3), u0, 0.1, 1e-2)\n"
        "print(len(os.sched_getaffinity(0)), hashlib.sha256(traj.states.tobytes()).hexdigest())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         check=True, capture_output=True, text=True).stdout.split()
    torus = ensemble_cases()[2][1]
    traj = integrate(torus, kuramoto_model(0.7, 0.3), ensemble_states(900, 3), 0.1, 1e-2)
    assert out == ["1", hashlib.sha256(traj.states.tobytes()).hexdigest()]


@pytest.mark.parametrize("errors", [(NumericError, ValueError), (ValueError, NumericError)],
                         ids=["numeric_first", "value_first"])
@pytest.mark.parametrize("case", ensemble_cases()[:3], ids=lambda case: case[0])
def test_ensemble_raises_the_lowest_failing_member_and_joins_every_thread(monkeypatch, case,
                                                                          errors):
    import threading
    import time
    name, sys, model, parallel = case
    core = dynamics._integrate_core

    def failing(fn, y0, *span):
        if y0[0] == 10.0:  # member 1 fails after member 2 on a second thread
            time.sleep(0.05)
            raise errors[0]("member 1")
        if y0[0] == 20.0:
            raise errors[1]("member 2")
        return core(fn, y0, *span)

    u0 = ensemble_states(sys.n, 3)
    u0[0, 1], u0[0, 2] = 10.0, 20.0
    before = threading.active_count()
    monkeypatch.setattr(dynamics, "_integrate_core", failing)
    with pytest.raises(errors[0], match="member 1"):
        integrate(sys, model, u0, 0.02, 1e-2)
    assert threading.active_count() == before
    monkeypatch.undo()
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite state"):
        integrate(sys, kuramoto_model(1e308, 0.0), u0, 0.02, 1e-2)  # every member overflows
    assert threading.active_count() == before
    integrate(sys, model, u0, 0.02, 1e-2)
    assert threading.active_count() == before


def test_ensemble_states_are_checked_before_any_work(monkeypatch):
    sys = ensemble_cases()[2][1]
    calls = []
    monkeypatch.setattr(dynamics, "_integrate_core", lambda *args: calls.append(1))
    u0 = ensemble_states(sys.n, 3)
    u0[5, 2] = np.nan
    with pytest.raises(ValueError, match="initial state must be finite"):
        integrate(sys, kuramoto_model(), u0, 0.1, 1e-2)
    with pytest.raises(ValueError, match=r"\(900, 0\) does not match system size"):
        integrate(sys, kuramoto_model(), np.zeros((sys.n, 0)), 0.1, 1e-2)
    with pytest.raises(ValueError, match="does not match system size"):
        integrate(sys, kuramoto_model(), np.zeros((sys.n, 2, 2)), 0.1, 1e-2)
    with pytest.raises(ValueError, match="does not match system size"):
        integrate(sys, kuramoto_model(), np.zeros((sys.n + 1, 2)), 0.1, 1e-2)
    with pytest.raises(ValueError, match=r"\(2,\) does not match system size"):  # member rows
        integrate(sys, kuramoto_model(), np.zeros((2, sys.n)), 0.1, 1e-2)
    assert calls == []
    monkeypatch.undo()
    with pytest.raises(ValueError, match="t_end must be finite"):
        integrate(sys, kuramoto_model(), ensemble_states(sys.n, 2), np.inf, 1e-2)


def test_ensemble_trajectory_csv_is_the_long_form(tmp_path):
    # member j of an (n, k) ensemble is the particle column j, as in a k-particle cloud
    import csv
    u0 = np.array([[0.1, 0.2, 0.3], [1.0, 2.0, 3.0]])
    traj = integrate(two_node_system(), kuramoto_model(0.3, 0.1), u0, 0.1, 0.05)
    traj.to_csv(tmp_path / "t.csv")
    with open(tmp_path / "t.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "node", "particle", "value"]
    assert rows[1:] == [[repr(t), str(i), str(j), repr(frame[i][j])]
                        for t, frame in zip(traj.times.tolist(), traj.states.tolist())
                        for i in range(2) for j in range(3)]
