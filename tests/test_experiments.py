import json
import math

import numpy as np
import pytest

from graphlim import (
    AutomorphismReport,
    ConstantKernel,
    ExperimentReport,
    MatrixKernel,
    NormResult,
    continuity_experiment,
    discretize,
    ghost_experiment,
    gronwall_bound,
    inf_to_one_norm_exact,
    integrate,
    kuramoto_model,
    l1_distance,
    make_grid_space,
    sample_er,
    swap_map,
    symmetry_drift_experiment,
    twisted_residual,
    twisted_state,
    uniform_space,
)


def test_twisted_state_on_four_point_circle():
    space = make_grid_space("torus", (4,))
    theta = twisted_state(space, [1])
    assert np.allclose(theta, [0.0, math.pi / 2, math.pi, 3 * math.pi / 2],
                       rtol=0, atol=1e-15)


def test_twisted_state_formula_in_two_dimensions():
    space = make_grid_space("torus", (5, 5))
    theta = twisted_state(space, [1, 3])
    expected = 2 * math.pi * (space.coords[:, 0] + 3.0 * space.coords[:, 1])
    assert np.array_equal(theta, expected)


def test_twisted_state_rejects_zero_entry():
    space = make_grid_space("torus", (4, 4))
    with pytest.raises(ValueError):
        twisted_state(space, [1, 0])
    with pytest.raises(ValueError):
        twisted_state(space, [1])
    with pytest.raises(ValueError):
        twisted_state(make_grid_space("interval", (4,)), [1])


@pytest.mark.parametrize("resolution,delta,q", [
    ((30,), 0.2, [1]),
    ((30,), 0.2, [2]),
    ((30,), 0.2, [3]),
    ((30, 30), 0.15, [1, 3]),
    ((12, 12, 12), 0.15, [2, 1, 1]),
])
def test_twisted_residuals_vanish(resolution, delta, q):
    space = make_grid_space("torus", resolution)
    assert twisted_residual(space, delta, q) <= 1e-12


def test_twisted_residual_stays_at_floor_under_refinement():
    coarse = twisted_residual(make_grid_space("torus", (30,)), 0.2, [1])
    fine = twisted_residual(make_grid_space("torus", (60,)), 0.2, [1])
    assert fine <= max(coarse, 1e-13)


def test_ghost_experiment_passes_with_exact_norm():
    rng = np.random.Generator(np.random.Philox(100))
    n = 16
    m = swap_map(n, 1, 9)
    u0 = rng.uniform(0, 2 * np.pi, n)
    u0[9] = u0[1]
    rep = ghost_experiment(n, 0.5, 3, u0, m, 2.0, 1e-3, sample_every=20)
    assert rep.passed is True
    assert rep.parameters["norm_method"] == "exact_bruteforce"
    assert rep.measured[0] == 0.0
    assert np.all(rep.measured <= rep.bound)


def test_ghost_experiment_rejects_unfixed_state():
    n = 16
    m = swap_map(n, 1, 9)
    u0 = np.arange(float(n))
    with pytest.raises(ValueError):
        ghost_experiment(n, 0.5, 3, u0, m, 1.0, 1e-2)


def test_ghost_experiment_heuristic_is_informational():
    rng = np.random.Generator(np.random.Philox(101))
    n = 30  # above the exact-norm limit
    m = swap_map(n, 0, 1)
    u0 = rng.uniform(0, 2 * np.pi, n)
    u0[1] = u0[0]
    rep = ghost_experiment(n, 0.5, 4, u0, m, 0.5, 1e-2, sample_every=10)
    assert rep.passed is None
    assert "informational" in rep.notes


def test_continuity_identical_kernels():
    space = uniform_space(6)
    u0 = np.linspace(0, 2, 6)
    rep = continuity_experiment(space, ConstantKernel(0.7), ConstantKernel(0.7),
                                u0, u0, 1.0, 1e-2)
    assert rep.passed is True
    assert np.max(rep.measured) == 0.0
    assert rep.parameters["norm"] <= 1e-12


def test_continuity_constant_vs_empty():
    rng = np.random.Generator(np.random.Philox(7))
    space = uniform_space(10)
    u0 = rng.uniform(0, 2 * np.pi, 10)
    rep = continuity_experiment(space, ConstantKernel(1.0), ConstantKernel(0.0),
                                u0, u0, 1.0, 1e-3, sample_every=10)
    assert abs(rep.parameters["norm"] - 1.0) <= 1e-12
    assert rep.passed is True


def test_continuity_random_pairs_pass():
    rng = np.random.Generator(np.random.Philox(8))
    space = uniform_space(12)
    for trial in range(5):
        a = rng.uniform(0, 1, (12, 12))
        b = rng.uniform(0, 1, (12, 12))
        a = (a + a.T) / 2
        b = (b + b.T) / 2
        u0 = rng.uniform(0, 2 * np.pi, 12)
        rep = continuity_experiment(space, MatrixKernel(a), MatrixKernel(b),
                                    u0, u0, 2.0, 1e-2)
        assert rep.passed is True


def reference_continuity(space, kernel_w, kernel_u, u0, v0, t_end, step, sample_every=1):
    """Measured and bound series of W and U integrated by two separate ``integrate`` calls."""
    model = kuramoto_model(0.0, 0.0)
    traj_w = integrate(discretize(kernel_w, space), model, u0, t_end, step, sample_every)
    traj_u = integrate(discretize(kernel_u, space), model, v0, t_end, step, sample_every)
    measured = [l1_distance(space, a, b) for a, b in zip(traj_w.states, traj_u.states)]
    norm = inf_to_one_norm_exact(space, kernel_w.matrix(space) - kernel_u.matrix(space)).value
    return np.array(measured), gronwall_bound(l1_distance(space, u0, v0), norm, traj_w.times)


@pytest.mark.parametrize("seed, sample_every", [(0, 1), (1, 7), (2, 1), (3, 50)])
def test_continuity_union_matches_two_integrations_bitwise(seed, sample_every):
    rng = np.random.Generator(np.random.Philox(seed))
    space = uniform_space(12)
    a, b = rng.uniform(0, 1, (2, 12, 12))
    kw, ku = MatrixKernel((a + a.T) / 2), MatrixKernel((b + b.T) / 2)
    u0 = rng.uniform(0, 2 * np.pi, 12)
    v0 = u0 if seed % 2 else rng.uniform(0, 2 * np.pi, 12)
    rep = continuity_experiment(space, kw, ku, u0, v0, 1.0, 1e-3, sample_every=sample_every)
    measured, bound = reference_continuity(space, kw, ku, u0, v0, 1.0, 1e-3, sample_every)
    assert np.array_equal(rep.measured, measured)
    assert np.array_equal(rep.bound, bound)
    assert rep.passed is True


def test_continuity_checks_each_initial_state():
    space = uniform_space(12)
    with pytest.raises(ValueError, match="does not match system size 12"):
        continuity_experiment(space, ConstantKernel(1.0), ConstantKernel(0.5),
                              np.zeros(11), np.zeros(13), 1.0, 1e-2)
    with pytest.raises(ValueError, match="finite"):
        continuity_experiment(space, ConstantKernel(1.0), ConstantKernel(0.5),
                              np.zeros(12), np.full(12, np.nan), 1.0, 1e-2)


@pytest.mark.parametrize("t_end", [-1.0, 0.0, float("nan")])
def test_bounded_experiments_reject_a_backward_span_before_any_work(t_end, monkeypatch):
    # the bounds hold for t >= 0; the ghost norm and backward integration ran first before
    def refuse(*args, **kwargs):
        raise AssertionError("integrated")

    monkeypatch.setattr("graphlim.experiments.integrate", refuse)
    with pytest.raises(ValueError, match="t_end must be positive"):
        ghost_experiment(23, 0.5, 3, np.ones(23), swap_map(23, 0, 1), t_end, 1e-2)
    with pytest.raises(ValueError, match="t_end must be positive"):
        continuity_experiment(uniform_space(6), ConstantKernel(1.0), ConstantKernel(0.5),
                              np.zeros(6), np.ones(6), t_end, 1e-2)


def test_report_verdict_recomputable_from_series(tmp_path):
    rng = np.random.Generator(np.random.Philox(9))
    space = uniform_space(8)
    u0 = rng.uniform(0, 2 * np.pi, 8)
    rep = continuity_experiment(space, ConstantKernel(0.9), ConstantKernel(0.2),
                                u0, u0, 1.0, 1e-2, sample_every=5)
    doc = json.loads(rep.to_json())
    recomputed = all(m <= b for m, b in zip(doc["measured"], doc["bound"]))
    assert recomputed == doc["passed"]

    path = tmp_path / "series.csv"
    rep.series_to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,measured,bound"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == len(rep.times)
    assert all(float(r[1]) <= float(r[2]) for r in rows)


def test_series_csv_matches_csv_writer(tmp_path):
    """series_to_csv writes the bytes csv.writer writes for rows of repr floats."""
    import csv
    u0 = np.random.Generator(np.random.Philox(12)).uniform(0, 2 * np.pi, 8)
    bounded = continuity_experiment(uniform_space(8), ConstantKernel(0.9), ConstantKernel(0.2),
                                    u0, u0, 0.5, 1e-2, sample_every=7)
    informational = symmetry_drift_experiment(sample_er(10, 0.5, 4), swap_map(10, 0, 1),
                                              u0[:2].repeat(5), t_end=0.3, step=1e-2)
    assert bounded.bound is not None and informational.bound is None
    times = np.array([-0.0, 1e-300, 0.1, 2.5e17, 1e300])
    measured = np.array([5e-324, np.nan, np.inf, -np.inf, 0.1 + 0.2])
    odd_bounded = ExperimentReport.from_series(
        "odd", {}, times, measured, bound=np.array([np.inf, -0.0, 1e300, np.nan, 5e-324]))
    odd_informational = ExperimentReport.from_series("odd", {}, times, measured)
    for k, rep in enumerate((bounded, informational, odd_bounded, odd_informational)):
        path, ref = tmp_path / f"s{k}.csv", tmp_path / f"r{k}.csv"
        rep.series_to_csv(path)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "measured", "bound"])
            for i, t in enumerate(rep.times):
                b = "" if rep.bound is None else repr(float(rep.bound[i]))
                writer.writerow([repr(float(t)), repr(float(rep.measured[i])), b])
        assert path.read_bytes() == ref.read_bytes()


def test_symmetry_drift_informational_run():
    sys = sample_er(12, 0.6, 5)
    m = swap_map(12, 0, 1)
    u0 = np.random.Generator(np.random.Philox(10)).uniform(0, 2 * np.pi, 12)
    rep = symmetry_drift_experiment(sys, m, u0, t_end=1.0, step=1e-2)
    assert rep.passed is None
    assert rep.bound is None
    rep2 = symmetry_drift_experiment(sys, m, u0, t_end=1.0, step=1e-2, threshold=1e9)
    assert rep2.passed is True


def test_sphere_drift_run_reports_without_verdict():
    # a latitude profile on a discretized sphere: drift is tracked but the
    # run never claims a certified bound
    from graphlim import kuramoto_model, spherical_graphop, sphere_rotation_map
    space = make_grid_space("sphere2", (160,), symmetry_order=4)
    fs = spherical_graphop(space)
    rot = sphere_rotation_map(space)
    u0 = np.sin(4.0 * space.coords[:, 2])
    rep = symmetry_drift_experiment(fs, rot, u0, model=kuramoto_model(0.0, 1.0),
                                    t_end=2.0, step=1e-2)
    assert rep.passed is None
    assert np.max(rep.measured) <= 1e-8  # the grid rotation is exact here


def test_ghost_checks_its_initial_state_before_any_work(monkeypatch):
    # a NaN passed the map check (NaN > 1e-12 is False) and the exact norm ran first
    def refuse(*args, **kwargs):
        raise AssertionError("computed a norm")

    monkeypatch.setattr("graphlim.experiments._norm_for", refuse)
    u0 = np.ones(23)
    u0[5] = np.nan
    with pytest.raises(ValueError, match="initial state must be finite"):
        ghost_experiment(23, 0.5, 3, u0, swap_map(23, 0, 1), 1.0, 1e-2)
    with pytest.raises(ValueError, match="does not match system size 23"):
        ghost_experiment(23, 0.5, 3, np.ones(22), swap_map(23, 0, 1), 1.0, 1e-2)


def test_report_json_is_the_hand_built_document_bytewise():
    # the documents the reports wrote when each listed its keys by hand
    def automorphism_doc(r):
        return json.dumps({k: getattr(r, k) for k in (
            "invertible", "measure_preserving", "mass_discrepancy",
            "adjacency_preserving", "adjacency_discrepancy",
            "fiber_preserving", "fiber_discrepancy", "verdict")})

    def experiment_doc(r):
        return json.dumps({
            "name": r.name, "parameters": r.parameters,
            "times": [float(t) for t in r.times],
            "measured": [float(v) for v in r.measured],
            "bound": None if r.bound is None else [float(v) for v in r.bound],
            "comparison": r.comparison, "passed": r.passed, "notes": r.notes})

    def norm_doc(r):
        return json.dumps({
            "value": r.value, "method": r.method,
            "witness_f": [int(v) for v in np.atleast_1d(r.witness_f)],
            "witness_g": [int(v) for v in np.atleast_1d(r.witness_g)]})

    odd = [-0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0]
    for r in (AutomorphismReport(True, False, -0.0, True, math.nan, False, math.inf,
                                 "neither"),
              AutomorphismReport(False, True, 5e-324, False, -math.inf, True, 0.0,
                                 "measure_preserving_only")):
        assert r.to_json() == automorphism_doc(r)
    params = {"resolution": (3, 4), "q": [1, 3], "nested": {"pair": (0.5, -0.0)},
              "threshold": None, "label": "W"}
    for r in (ExperimentReport.from_series("x", params, np.arange(6.0), odd),
              ExperimentReport.from_series("x", params, odd, odd, threshold=1e-12),
              ExperimentReport.from_series("x", {}, odd, odd, bound=np.array(odd),
                                           certified=False),
              ExperimentReport.from_series("x", {}, [], [])):
        assert r.to_json() == experiment_doc(r)
    signs = np.array([1.0, -1.0, -1.0, 1.0])
    for r in (NormResult(-0.0, "exact_bruteforce", signs, -signs),
              NormResult(5e-324, "greedy_alternation", signs[:1], signs[:1]),
              NormResult(0.0, "greedy_alternation", np.zeros(0), np.zeros(0))):
        assert r.to_json() == norm_doc(r)
