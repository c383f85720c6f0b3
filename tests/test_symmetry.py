import json
import tracemalloc

import numpy as np
import pytest

from graphlim import (
    AutomorphismReport,
    ClusterSubspace,
    ConstantKernel,
    FixedPointSubspace,
    ImageSubspace,
    IndexMap,
    MatrixKernel,
    PartitionSubspace,
    check_automorphism,
    discretize,
    equivariance_audit,
    from_rows,
    geodesic_kernel,
    grid_shift_map,
    identity_map,
    interval_reflection_map,
    invariance_audit,
    kuramoto_model,
    l1_distance,
    make_finite_space,
    make_grid_space,
    permutation_map,
    project_fixed,
    pullback,
    sample_er,
    scaling_map,
    sphere_reflection_map,
    sphere_rotation_map,
    spherical_graphop,
    subspace_distance,
    swap_map,
    torus_flip_map,
    torus_rotation_map,
    uniform_space,
)
from graphlim import symmetry


def test_pullback_identity():
    u = np.array([3.0, 1.0, 4.0])
    assert np.array_equal(pullback(identity_map(3), u), u)


def test_pullback_doubling_on_six_nodes():
    m = scaling_map(uniform_space(6), 2)
    u = np.arange(6.0)
    assert pullback(m, u).tolist() == [0.0, 2.0, 4.0, 0.0, 2.0, 4.0]


def test_pullback_cyclic_shift():
    m = permutation_map([1, 2, 0])
    assert pullback(m, np.array([10.0, 20.0, 30.0])).tolist() == [20.0, 30.0, 10.0]


def test_index_map_targets_must_be_one_dimensional():
    with pytest.raises(ValueError, match="1-D"):
        IndexMap(np.array([[0, 1], [1, 0]]))


def test_index_lists_must_be_integers():
    # a plain int64 cast reads 1.7 as 1 and True as 1
    space = make_grid_space("torus", (3, 3))
    bad = [(IndexMap, [1.7, 0.2], "map targets"), (IndexMap, [1, True], "map targets"),
           (IndexMap, np.array([True, False]), "map targets"),
           (IndexMap, np.array([0.0, np.nan]), "map targets"),
           (permutation_map, [1, 0.5], "map targets"), (permutation_map, ["1", "0"], "map targets"),
           (lambda s: grid_shift_map(space, s), [1.9, 0], "shift steps"),
           (lambda s: grid_shift_map(space, s), [True, 0], "shift steps"),
           (lambda s: grid_shift_map(space, s), [np.inf, 0], "shift steps"),
           (lambda b: ClusterSubspace([b, [2, 3]]), [0.6, 1.2], "cluster blocks"),
           (lambda b: ClusterSubspace([b, [2, 3]]), [0, False], "cluster blocks")]
    for build, values, what in bad:
        with pytest.raises(ValueError, match=f"{what} must be integers"):
            build(values)
    # integer lists, and floats with integer values, keep their meaning
    assert permutation_map([1, 0, 2]).targets.tolist() == [1, 0, 2]
    assert IndexMap(np.array([2.0, 2.0, 0.0])).targets.tolist() == [2, 2, 0]
    assert grid_shift_map(space, [1, 0]).targets.tolist() == \
        grid_shift_map(space, np.array([1.0, 0.0])).targets.tolist()
    assert ClusterSubspace([[0, 1], [2, 3]]).labels.tolist() == [0, 0, 2, 2]


def test_invertible_agrees_with_unique_counts():
    rng = np.random.Generator(np.random.Philox(21))
    seen = set()
    for n in (1, 2, 3, 7, 50, 3600):
        for targets in (rng.integers(0, n, n), rng.permutation(n),
                        np.where(np.arange(n) == 0, n - 1, rng.permutation(n))):
            m = IndexMap(targets)
            assert m.invertible == (np.unique(targets).size == n), (n, targets)
            seen.add(m.invertible)
    assert seen == {True, False}
    assert not IndexMap(np.array([0, 0])).targets.flags.writeable


def test_pullback_length_check():
    with pytest.raises(ValueError):
        pullback(identity_map(3), np.zeros(4))


def test_pullback_is_isometry_for_mass_compatible_permutations():
    rng = np.random.Generator(np.random.Philox(14))
    space = make_finite_space([0.25, 0.25, 0.3, 0.2])
    m = swap_map(4, 0, 1)  # swaps equal-mass nodes
    for _ in range(20):
        u = rng.normal(size=4)
        v = rng.normal(size=4)
        lhs = l1_distance(space, pullback(m, u), pullback(m, v))
        assert abs(lhs - l1_distance(space, u, v)) <= 1e-15


def test_identity_is_always_a_graphon_automorphism():
    for sys in (discretize(ConstantKernel(0.8), uniform_space(5)),
                sample_er(10, 0.4, 2)):
        r = check_automorphism(sys, identity_map(sys.n), 1e-12)
        assert r.verdict == "graphon_automorphism"
        assert r.mass_discrepancy == 0.0
        assert r.adjacency_discrepancy == 0.0


def test_any_permutation_fixes_the_constant_kernel():
    sys = discretize(ConstantKernel(0.5), uniform_space(6))
    rng = np.random.Generator(np.random.Philox(3))
    for _ in range(10):
        m = permutation_map(rng.permutation(6))
        assert check_automorphism(sys, m, 1e-12).verdict == "graphon_automorphism"


def test_mass_mismatch_detected():
    sys = discretize(ConstantKernel(0.5), make_finite_space([0.5, 0.3, 0.2]))
    r = check_automorphism(sys, permutation_map([1, 0, 2]), 1e-12)
    assert not r.measure_preserving
    assert r.mass_discrepancy == pytest.approx(0.2)
    assert r.verdict == "neither"


def test_adjacency_break_detected():
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    sys = discretize(MatrixKernel(w), uniform_space(3))
    r = check_automorphism(sys, permutation_map([0, 2, 1]), 1e-12)
    assert r.measure_preserving
    assert not r.adjacency_preserving
    assert r.verdict == "measure_preserving_only"


def test_noninvertible_map_is_not_measure_preserving_on_uniform_grid():
    sys = discretize(ConstantKernel(1.0), uniform_space(6))
    r = check_automorphism(sys, scaling_map(sys.space, 2), 1e-12)
    assert not r.invertible
    assert not r.measure_preserving


def test_report_json():
    sys = discretize(ConstantKernel(0.5), uniform_space(4))
    doc = json.loads(check_automorphism(sys, identity_map(4), 1e-12).to_json())
    assert doc["verdict"] == "graphon_automorphism"
    assert doc["mass_discrepancy"] == 0.0


def test_check_automorphism_rejects_bad_tolerances():
    sys = discretize(ConstantKernel(0.5), uniform_space(4))
    for tol in (-1.0, -1e-300, float("nan"), float("inf"), 10 ** 400):
        with pytest.raises(ValueError, match="tol must be finite and nonnegative"):
            check_automorphism(sys, identity_map(4), tol)
    assert check_automorphism(sys, identity_map(4), 0).verdict == "graphon_automorphism"


def reference_check_automorphism(system, imap, tol):
    """The dense row-by-row comparison: two length-n scratch rows per node."""
    n = system.n
    t = imap.targets
    mu = system.space.weights

    push = np.bincount(t, weights=mu, minlength=n)
    mass_disc = float(np.max(np.abs(push - mu)))
    mp_ok = mass_disc <= tol

    adj_disc = 0.0
    fib_disc = 0.0
    row_i = np.zeros(n)
    row_p = np.zeros(n)
    for i in range(n):
        idx, w = system.row(i)
        pidx, pw = system.row(int(t[i]))

        row_i[:] = 0.0
        row_p[:] = 0.0
        row_i[idx] = w / mu[idx]
        row_p[pidx] = pw / mu[pidx]
        adj_disc = max(adj_disc, float(np.max(np.abs(row_p[t] - row_i))))

        push_row = np.bincount(t[idx], weights=w, minlength=n)
        row_p[:] = 0.0
        row_p[pidx] = pw
        fib_disc = max(fib_disc, float(np.max(np.abs(push_row - row_p))))
    adj_ok = adj_disc <= tol
    fib_ok = fib_disc <= tol

    inv = imap.invertible
    if inv and mp_ok and adj_ok:
        verdict = "graphon_automorphism"
    elif inv and fib_ok:
        verdict = "graphop_automorphism"
    elif mp_ok:
        verdict = "measure_preserving_only"
    else:
        verdict = "neither"
    return AutomorphismReport(inv, mp_ok, mass_disc, adj_ok, adj_disc,
                              fib_ok, fib_disc, verdict)


def random_rows_system(rng, space, empty=()):
    """Asymmetric random rows with row mass below one; rows in ``empty`` have no entries."""
    n = space.n
    rows = []
    for i in range(n):
        size = 0 if i in empty else int(rng.integers(0, n + 1))
        cols = rng.choice(n, size=size, replace=False)
        rows.append((cols, rng.uniform(0.0, 1.0, size) / max(1, size)))
    return from_rows(space, rows)


def automorphism_cases():
    """(system, map) pairs: permutations and non-invertible maps on kernel and fiber systems."""
    rng = np.random.Generator(np.random.Philox(41))
    torus = make_grid_space("torus", (9, 7))
    sphere = make_grid_space("sphere2", (96,), symmetry_order=4)
    interval = make_grid_space("interval", (10,))
    kernel_torus = discretize(geodesic_kernel("torus", 0.25, dim=2), torus)
    kernel_sphere = discretize(geodesic_kernel("sphere2", np.pi / 3), sphere)
    fiber = spherical_graphop(sphere)
    er = sample_er(40, 0.3, 5)
    sparse = rng.uniform(0, 1, (12, 12)) * (rng.random((12, 12)) < 0.6)
    # w_ij = W(x_i, x_j) mu_j is asymmetric on unequal masses
    asym = discretize(MatrixKernel(np.maximum(sparse, sparse.T)),
                      make_finite_space(rng.uniform(0.5, 1.5, 12)))
    cases = [
        (kernel_torus, grid_shift_map(torus, (2, 5))),
        (kernel_torus, torus_flip_map(torus, 0)),
        (kernel_torus, torus_flip_map(torus, 1)),
        (kernel_sphere, sphere_rotation_map(sphere, 1)),
        (kernel_sphere, sphere_reflection_map(sphere)),
        (fiber, sphere_rotation_map(sphere, 3)),
        (fiber, sphere_reflection_map(sphere)),
        (er, swap_map(40, 3, 17)),
        (er, permutation_map(rng.permutation(40))),
        (asym, permutation_map(rng.permutation(12))),
        (discretize(ConstantKernel(0.7), interval), scaling_map(interval, 2)),
        (discretize(ConstantKernel(0.7), interval), interval_reflection_map(interval)),
        (kernel_torus, scaling_map(torus, 3)),
        (fiber, scaling_map(sphere, 2)),
        (er, IndexMap(np.full(40, 7))),
        (asym, IndexMap(np.full(12, 0))),
    ]
    for _ in range(4):
        cases.append((er, IndexMap(rng.integers(0, 40, 40))))
        cases.append((asym, IndexMap(rng.integers(0, 12, 12))))
        cases.append((fiber, IndexMap(rng.integers(0, sphere.n, sphere.n))))
    for empty in ((0,), (4,), (10,), (0, 4, 5, 10), tuple(range(11))):
        sys = random_rows_system(rng, make_finite_space(rng.uniform(0.5, 1.5, 11)), empty)
        cases.append((sys, permutation_map(rng.permutation(11))))
        cases.append((sys, IndexMap(rng.integers(0, 11, 11))))
        cases.append((sys, identity_map(11)))
    one = from_rows(uniform_space(1), [([0], [0.5])])
    cases += [(one, identity_map(1)), (from_rows(uniform_space(1), [([], [])]), identity_map(1))]
    return cases


@pytest.mark.parametrize("block", [7, 64, 1000, None])
def test_check_automorphism_is_the_row_reference_bytewise(monkeypatch, block):
    # 7 slots give one row per block; 64 give a few rows per block on the small
    # systems and one row per block on the larger ones
    if block is not None:
        monkeypatch.setattr(symmetry, "_CHECK_ENTRIES", block)
    for sys, imap in automorphism_cases():
        for tol in (1e-12, 0.3):
            want = reference_check_automorphism(sys, imap, tol).to_json()
            assert check_automorphism(sys, imap, tol).to_json() == want, (sys.label, imap)


def test_check_automorphism_memory_is_block_bounded():
    space = make_grid_space("torus", (60, 60))
    sys = discretize(geodesic_kernel("torus", 0.1, dim=2), space)
    imap = grid_shift_map(space, (7, 31))
    check_automorphism(sys, imap, 1e-12)
    tracemalloc.start()
    try:
        report = check_automorphism(sys, imap, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.verdict == "graphon_automorphism"
    # the buffer is 8 bytes a slot; entries are 608,400, or 4.9 MB at 8 bytes each
    assert peak <= 2 * 8 * symmetry._CHECK_ENTRIES, peak


def test_project_fixed_reflection_orbits():
    m = permutation_map([3, 2, 1, 0])
    out = project_fixed([m], np.array([1.0, 2.0, 3.0, 4.0]))
    assert out.tolist() == [2.5, 2.5, 2.5, 2.5]
    out = project_fixed([m], np.array([1.0, 2.0, 4.0, 8.0]))
    assert out.tolist() == [4.5, 3.0, 3.0, 4.5]


def test_project_fixed_half_shift():
    m = permutation_map([2, 3, 0, 1])
    out = project_fixed([m], np.array([1.0, 2.0, 3.0, 4.0]))
    assert out.tolist() == [2.0, 3.0, 2.0, 3.0]


def test_project_fixed_identity_generator():
    u = np.array([0.3, 1.4, -2.0])
    assert np.array_equal(project_fixed([identity_map(3)], u), u)


def test_project_fixed_idempotent_and_commutes():
    rng = np.random.Generator(np.random.Philox(9))
    n = 12
    gens = [permutation_map(np.roll(np.arange(n), 3)), permutation_map(np.arange(n)[::-1])]
    u = rng.normal(size=n)
    p = project_fixed(gens, u)
    assert np.max(np.abs(project_fixed(gens, p) - p)) <= 1e-14
    for g in gens:
        assert np.max(np.abs(pullback(g, p) - p)) <= 1e-14


def test_project_fixed_rejects_noninvertible():
    with pytest.raises(ValueError):
        project_fixed([scaling_map(uniform_space(6), 2)], np.zeros(6))


def test_equivariance_audit_constant_kernel():
    sys = discretize(ConstantKernel(1.0), uniform_space(12))
    rng = np.random.Generator(np.random.Philox(17))
    m = permutation_map(rng.permutation(12))
    u0 = rng.uniform(0, 2 * np.pi, 12)
    dev = equivariance_audit(sys, kuramoto_model(0.0, 0.0), m, u0, 5.0, 1e-2)
    assert dev <= 1e-8


def test_equivariance_audit_block_swap():
    from graphlim import canonical_embedding
    space = make_grid_space("interval", (16,))
    sys = discretize(canonical_embedding(np.array([[0.0, 1.0], [1.0, 0.0]])), space)
    swap_blocks = grid_shift_map(space, (8,))
    rng = np.random.Generator(np.random.Philox(18))
    u0 = rng.uniform(0, 2 * np.pi, 16)
    dev = equivariance_audit(sys, kuramoto_model(0.0, 0.5), swap_blocks, u0, 5.0, 1e-2)
    assert dev <= 1e-8


def test_equivariance_audit_detects_asymmetry():
    sys = sample_er(16, 0.5, 3)
    rng = np.random.Generator(np.random.Philox(77))
    m = permutation_map(rng.permutation(16))
    assert check_automorphism(sys, m, 1e-9).verdict != "graphon_automorphism"
    u0 = rng.uniform(0, 2 * np.pi, 16)
    dev = equivariance_audit(sys, kuramoto_model(0.0, 0.0), m, u0, 5.0, 1e-2)
    assert dev >= 1e-3


def test_map_indices_out_of_range_are_rejected():
    # numpy would wrap i = -1 to node n-1 and axis = -1 to the last axis
    for i, j, bad in ((-1, 0, "i -1"), (0, -4, "j -4"), (4, 0, "i 4"), (0, 99, "j 99")):
        with pytest.raises(ValueError, match=f"swap index {bad} is out of range"):
            swap_map(4, i, j)
    assert swap_map(4, 3, 0).targets.tolist() == [3, 1, 2, 0]
    space = make_grid_space("torus", (6, 6))
    for axis in (-1, -2, 2, 5):
        with pytest.raises(ValueError, match=f"flip axis {axis} is out of range"):
            torus_flip_map(space, axis)


def test_torus_maps_are_permutations():
    space = make_grid_space("torus", (6, 6))
    for m in (grid_shift_map(space, (1, 0)), grid_shift_map(space, (2, 5)),
              torus_flip_map(space, 1), torus_rotation_map(space)):
        assert m.invertible


def twin_block_matrix(rng, n, k):
    """Symmetric kernel whose first k nodes share one neighborhood."""
    w = rng.uniform(0, 1, (n, n))
    w = (w + w.T) / 2
    w[:k, :] = w[0, :]
    w[:, :k] = w[:k, :].T
    w[:k, :k] = 0.6
    return w


def test_invariance_audit_twin_block():
    rng = np.random.Generator(np.random.Philox(19))
    n, k = 10, 4
    w = twin_block_matrix(rng, n, k)
    sys = discretize(MatrixKernel(w), uniform_space(n))
    u0 = rng.uniform(0, 2 * np.pi, n)
    u0[:k] = u0[0]
    drift = invariance_audit(sys, kuramoto_model(0.0, 0.3), ClusterSubspace([np.arange(k)]),
                             u0, 10.0, 1e-3, sample_every=200)
    assert drift <= 1e-10


def test_invariance_audit_half_periodic_image():
    space = make_grid_space("interval", (32,))
    sys = discretize(ConstantKernel(1.0), space)
    rng = np.random.Generator(np.random.Philox(20))
    half = rng.uniform(0, 2 * np.pi, 16)
    u0 = np.concatenate([half, half])
    sub = ImageSubspace(scaling_map(space, 2))
    drift = invariance_audit(sys, kuramoto_model(0.0, 0.2), sub, u0, 10.0, 1e-3,
                             sample_every=200)
    assert drift <= 1e-10


def test_invariance_audit_even_fixed_space():
    space = make_grid_space("interval", (32,))
    sys = discretize(ConstantKernel(1.0), space)
    rng = np.random.Generator(np.random.Philox(22))
    refl = interval_reflection_map(space)
    u0 = project_fixed([refl], rng.uniform(0, 2 * np.pi, 32))
    drift = invariance_audit(sys, kuramoto_model(0.0, 0.2), FixedPointSubspace([refl]),
                             u0, 10.0, 1e-3, sample_every=200)
    assert drift <= 1e-10


def test_invariance_audit_rejects_state_outside_subspace():
    space = make_grid_space("interval", (8,))
    sys = discretize(ConstantKernel(1.0), space)
    sub = ClusterSubspace([np.arange(4)])
    u0 = np.arange(8.0)
    with pytest.raises(ValueError):
        invariance_audit(sys, kuramoto_model(), sub, u0, 1.0, 1e-2)


def test_subspace_distance_zero_on_members():
    space = uniform_space(6)
    sub = ClusterSubspace([np.array([0, 1, 2])])
    u = np.array([1.0, 1.0, 1.0, 4.0, 5.0, 6.0])
    assert subspace_distance(space, sub, u) == 0.0
    v = np.array([1.0, 2.0, 1.0, 4.0, 5.0, 6.0])
    assert subspace_distance(space, sub, v) > 0.0


def union_find_labels(generators, n):
    """Orbit labels by a scalar union-find; each node gets its orbit's smallest node."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for m in generators:
        for i, j in enumerate(m.targets):
            ri, rj = find(i), find(int(j))
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)
    return np.array([find(i) for i in range(n)])


def plain_orbit_means(generators, state):
    labels = union_find_labels(generators, state.size)
    sums = np.bincount(labels, weights=state, minlength=state.size)
    counts = np.bincount(labels, minlength=state.size)
    return sums[labels] / counts[labels]


def random_generators(rng, n):
    """A few permutations, each a product of a few random swaps or one random cycle."""
    gens = []
    for _ in range(int(rng.integers(1, 4))):
        t = np.arange(n)
        if rng.random() < 0.5:
            for _ in range(int(rng.integers(0, max(1, n // 3)))):
                i, j = rng.integers(0, n, size=2)
                t[[i, j]] = t[[j, i]]
        else:
            cyc = rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False)
            t[cyc] = np.roll(cyc, 1)
        gens.append(permutation_map(t))
    return gens


def test_orbit_labels_match_union_find():
    rng = np.random.Generator(np.random.Philox(31))
    cases = [random_generators(rng, int(rng.integers(1, 80))) for _ in range(40)]
    cases.append([permutation_map(np.roll(np.arange(500), 1))])
    cases.append(random_generators(rng, 2000))
    cases.append([permutation_map(np.roll(np.arange(2000), 1)), swap_map(2000, 3, 1999)])
    for gens in cases:
        n = gens[0].n
        want = union_find_labels(gens, n)
        assert np.array_equal(FixedPointSubspace(gens).labels, want)
        state = rng.uniform(0, 2 * np.pi, n)
        assert np.array_equal(project_fixed(gens, state), plain_orbit_means(gens, state))


def test_cluster_labels_match_union_find():
    rng = np.random.Generator(np.random.Philox(32))
    for _ in range(20):
        n = int(rng.integers(2, 60))
        blocks = [rng.choice(n, size=int(rng.integers(1, min(6, n + 1))), replace=False)
                  for _ in range(int(rng.integers(1, 6)))]
        pairs = [IndexMap(np.where(np.isin(np.arange(n), b), b[0], np.arange(n)))
                 for b in blocks]
        labels = ClusterSubspace(blocks).labels
        assert np.array_equal(labels, union_find_labels(pairs, n)[:labels.size])


def test_overlapping_cluster_blocks_merge():
    space = uniform_space(4)
    sub = ClusterSubspace([[0, 1], [1, 2]])
    u = np.array([0.3, -1.0, 2.5, 4.0])
    p = sub.project(space, u)
    assert np.array_equal(sub.project(space, p), p)
    assert p[0] == p[1] == p[2]
    assert np.isclose(p[0], np.mean(u[:3]), rtol=0, atol=1e-15)
    assert p[3] == u[3]
    assert subspace_distance(space, sub, p) == 0.0


def test_partition_projection_is_weighted_block_mean():
    space = make_finite_space([0.1, 0.2, 0.3, 0.4])
    sub = PartitionSubspace([7, 3, 7, 3])
    u = np.array([1.0, 2.0, 3.0, 4.0])
    p = sub.project(space, u)
    assert np.allclose(p, [2.5, 20 / 6, 2.5, 20 / 6], rtol=0, atol=1e-15)
    assert np.array_equal(sub.project(space, p), p)
    with pytest.raises(ValueError):
        sub.project(uniform_space(3), u[:3])
