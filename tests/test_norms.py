import math

import numpy as np
import pytest

from graphlim import (
    SizeLimitError,
    ghost_bound,
    gronwall_bound,
    inf_to_one_norm_exact,
    inf_to_one_norm_lower,
    l1_distance,
    make_finite_space,
    uniform_space,
)
from graphlim import norms


def full_enumeration_norm(space, matrix):
    """Oracle: scan every (f, g) sign pair; feasible for n <= 12."""
    n = space.n
    mu = space.weights
    b = mu[:, None] * np.asarray(matrix) * mu[None, :]
    ids = np.arange(1 << n)
    signs = 1.0 - 2.0 * ((ids[None, :] >> np.arange(n)[:, None]) & 1)
    table = signs.T @ b @ signs
    return float(np.max(np.abs(table)))


def chunked_matmul_norm(space, matrix):
    """The previous exact scan: one BLAS product b @ g per chunk of 2^16 candidates.

    Candidate ids and tie-breaking match the current routine, but the
    scores round in a different order, so tied optima may pick another g.
    """
    n = space.n
    mu = space.weights
    b = mu[:, None] * np.asarray(matrix) * mu[None, :]
    total = 1 << max(0, n - 1)
    chunk = 1 << min(16, max(0, n - 1))
    best_score, best_g = -1.0, None
    bits = np.arange(max(1, n - 1), dtype=np.uint64)
    for start in range(0, total, chunk):
        ids = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        g = np.ones((n, ids.size))
        if n > 1:
            g[:-1, :] = 1.0 - 2.0 * ((ids[None, :] >> bits[:, None]) & 1)
        scores = np.abs(b @ g).sum(axis=0)
        k = int(np.argmax(scores))
        if scores[k] > best_score:
            best_score, best_g = float(scores[k]), g[:, k].copy()
    f = np.where(b @ best_g >= 0, 1.0, -1.0)
    return float(abs(f @ b @ best_g))


def random_symmetric(rng, n, scale=1.0):
    d = rng.uniform(-scale, scale, (n, n))
    return (d + d.T) / 2


def norm_cases(n, count):
    """(space, matrix) pairs: uniform and weighted spaces, dense and +-1/2 matrices.

    The +-1/2 matrices (adjacency minus 1/2, as in W - U for ER graphs) have
    many tied optima.
    """
    for seed in range(count):
        rng = np.random.Generator(np.random.Philox(1000 * n + seed))
        weighted = make_finite_space(rng.uniform(0.2, 1.0, n))
        a = np.triu(rng.random((n, n)) < 0.5, 1).astype(np.float64)
        for space in (uniform_space(n), weighted):
            yield space, random_symmetric(rng, n)
            yield space, a + a.T - 0.5 * (1.0 - np.eye(n))


def test_l1_distance_examples():
    s = uniform_space(4)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    assert l1_distance(s, u, u) == 0.0
    v = u - np.array([1.0, -1.0, 1.0, -1.0])
    assert l1_distance(s, u, v) == 1.0
    w = make_finite_space([0.3, 0.5, 0.2])
    assert abs(l1_distance(w, np.array([1.0, 0.0, 2.0]), np.zeros(3)) - 0.7) <= 1e-15


def test_l1_distance_length_check():
    with pytest.raises(ValueError):
        l1_distance(uniform_space(3), np.zeros(3), np.zeros(4))
    for u, v in ((np.zeros((5, 3)), np.zeros((5, 4))), (np.zeros((5, 3)), np.zeros((4, 3))),
                 (np.zeros((2, 5, 3)), np.zeros((2, 5, 3))), (np.zeros(3), np.zeros((1, 3)))):
        with pytest.raises(ValueError):
            l1_distance(uniform_space(3), u, v)


@pytest.mark.parametrize("n", [1, 12, 16, 23, 24, 130, 400, 3600])
def test_stacked_l1_distance_is_the_per_row_loop_bytewise(n):
    # the experiments measure whole trajectories at once; each row must keep
    # the bits of a lone l1_distance, for strided and reindexed views alike
    rng = np.random.Generator(np.random.Philox(n))
    space = make_finite_space(rng.uniform(0.5, 2.0, n))
    states = rng.normal(0.0, 3.0, (2001 if n <= 400 else 101, 2 * n))
    perm = rng.permutation(n)
    for a, b in ((states[:, :n], states[:, n:]), (states[:, perm], states[:, :n])):
        want = np.array([l1_distance(space, u, v) for u, v in zip(a, b)])
        got = l1_distance(space, a, b)
        assert got.shape == (a.shape[0],) and got.tobytes() == want.tobytes()


def test_exact_norm_of_constant_matrix():
    s = uniform_space(6)
    r = inf_to_one_norm_exact(s, np.full((6, 6), 0.7))
    assert abs(r.value - 0.7) <= 1e-12
    assert np.all(r.witness_f == 1.0) and np.all(r.witness_g == 1.0)


def test_exact_norm_of_zero_matrix():
    r = inf_to_one_norm_exact(uniform_space(5), np.zeros((5, 5)))
    assert r.value == 0.0


def test_exact_norm_matches_full_enumeration():
    s = uniform_space(8)
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(seed))
        d = random_symmetric(rng, 8)
        got = inf_to_one_norm_exact(s, d).value
        want = full_enumeration_norm(s, d)
        assert abs(got - want) <= 1e-13


@pytest.mark.parametrize("n", range(1, 13))
def test_exact_norm_matches_full_enumeration_at_every_small_n(n):
    # small n leaves the high half of the sign split empty, and n = 1 the low half too
    for space, d in norm_cases(n, 2):
        r = inf_to_one_norm_exact(space, d)
        assert abs(r.value - full_enumeration_norm(space, d)) <= 1e-13
        assert r.witness_g.shape == (n,) and r.witness_g[-1] == 1.0


@pytest.mark.parametrize("n", range(13, 21))
def test_exact_norm_matches_chunked_scan(n):
    for space, d in norm_cases(n, 1):
        r = inf_to_one_norm_exact(space, d)
        ref = chunked_matmul_norm(space, d)
        assert abs(r.value - ref) <= 1e-15 * ref
        mu = space.weights
        b = mu[:, None] * d * mu[None, :]
        assert np.array_equal(r.witness_f, np.where(b @ r.witness_g >= 0, 1.0, -1.0))
        assert abs(abs(r.witness_f @ b @ r.witness_g) - r.value) <= 1e-15


def test_exact_norm_ties_go_to_the_lowest_candidate():
    # every g scores the same on a zero or diagonal matrix; candidate 0 is all ones
    for n in (5, 16):
        for d in (np.zeros((n, n)), np.diag(np.linspace(0.5, 1.0, n))):
            r = inf_to_one_norm_exact(uniform_space(n), d)
            assert np.all(r.witness_g == 1.0)


def test_exact_norm_reruns_are_bit_identical():
    for space, d in norm_cases(17, 1):
        a = inf_to_one_norm_exact(space, d)
        b = inf_to_one_norm_exact(space, d)
        assert a.value.hex() == b.value.hex()
        assert np.array_equal(a.witness_f, b.witness_f)
        assert np.array_equal(a.witness_g, b.witness_g)


def test_exact_norm_does_not_depend_on_blas_threads():
    import os
    import subprocess
    import sys
    code = (
        "import numpy as np\n"
        "from graphlim import inf_to_one_norm_exact, make_finite_space\n"
        "rng = np.random.Generator(np.random.Philox(9))\n"
        "d = rng.uniform(-1, 1, (22, 22))\n"
        "r = inf_to_one_norm_exact(make_finite_space(rng.uniform(0.2, 1, 22)), d + d.T)\n"
        "print(r.value.hex(), r.witness_f.tolist(), r.witness_g.tolist())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1] and outs[0]


def test_heuristic_norm_does_not_depend_on_blas_threads():
    import os
    import subprocess
    import sys
    code = (
        "import graphlim as gl\n"
        "system = gl.sample_er(400, 0.5, 3)\n"
        "d = gl.adjacency_matrix(system) - 0.5\n"
        "r = gl.inf_to_one_norm_lower(system.space, d, restarts=32, seed=3)\n"
        "print(r.value.hex(), r.witness_f.tolist(), r.witness_g.tolist())\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        outs.append(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                   capture_output=True, text=True).stdout)
    assert outs[0] == outs[1] and outs[0]


def test_exact_norm_on_weighted_space_matches_full_enumeration():
    rng = np.random.Generator(np.random.Philox(1234))
    s = make_finite_space(rng.uniform(0.2, 1.0, 7))
    for seed in range(20):
        d = random_symmetric(np.random.Generator(np.random.Philox(seed)), 7)
        assert abs(inf_to_one_norm_exact(s, d).value - full_enumeration_norm(s, d)) <= 1e-13


def test_witness_reproduces_value():
    s = uniform_space(9)
    rng = np.random.Generator(np.random.Philox(77))
    d = random_symmetric(rng, 9)
    r = inf_to_one_norm_exact(s, d)
    mu = s.weights
    b = mu[:, None] * d * mu[None, :]
    assert abs(abs(r.witness_f @ b @ r.witness_g) - r.value) <= 1e-12


def test_heuristic_never_exceeds_exact_and_usually_matches():
    s = uniform_space(8)
    hits = 0
    for seed in range(100):
        rng = np.random.Generator(np.random.Philox(seed + 1000))
        d = random_symmetric(rng, 8)
        exact = inf_to_one_norm_exact(s, d).value
        lower = inf_to_one_norm_lower(s, d, restarts=16, seed=seed).value
        assert lower <= exact + 1e-12
        if abs(lower - exact) <= 1e-12:
            hits += 1
    assert hits >= 90


def test_heuristic_constant_matrix_single_restart():
    s = uniform_space(6)
    r = inf_to_one_norm_lower(s, np.full((6, 6), 0.4), restarts=1, seed=0)
    assert abs(r.value - 0.4) <= 1e-12


def test_heuristic_zero_restarts():
    r = inf_to_one_norm_lower(uniform_space(4), np.eye(4), restarts=0, seed=0)
    assert r.value == 0.0
    assert r.witness_f.size == 0 and r.witness_g.size == 0


def test_heuristic_restarts_are_capped():
    # an unbounded count (the CLI reads any JSON integer, 10**20 included) would never return
    for restarts in (2 ** 16 + 1, -1):
        with pytest.raises(ValueError, match="'restarts'"):
            inf_to_one_norm_lower(uniform_space(2), np.eye(2), restarts=restarts, seed=0)


def test_heuristic_deterministic_per_seed():
    s = uniform_space(10)
    d = random_symmetric(np.random.Generator(np.random.Philox(5)), 10)
    a = inf_to_one_norm_lower(s, d, restarts=8, seed=3)
    b = inf_to_one_norm_lower(s, d, restarts=8, seed=3)
    assert a.value == b.value
    assert np.array_equal(a.witness_g, b.witness_g)


def test_norm_is_weaker_than_weighted_l1():
    s = uniform_space(8)
    for seed in range(20):
        rng = np.random.Generator(np.random.Philox(seed + 50))
        d = random_symmetric(rng, 8)
        mu = s.weights
        l1 = float(np.sum(mu[:, None] * mu[None, :] * np.abs(d)))
        assert inf_to_one_norm_exact(s, d).value <= l1 + 1e-13


def test_exact_norm_size_limit():
    with pytest.raises(SizeLimitError):
        inf_to_one_norm_exact(uniform_space(25), np.zeros((25, 25)))


def test_gronwall_bound_values():
    assert gronwall_bound(0.0, 0.0, 5.0) == 0.0
    assert abs(gronwall_bound(0.1, 0.0, 1.0) - 0.1 * math.e**2) <= 1e-15
    assert gronwall_bound(0.3, 0.7, 0.0) == 0.3


def test_ghost_bound_is_twice_gronwall():
    for d0, nm, t in ((0.0, 0.0, 1.0), (0.2, 0.5, 1.7), (0.0, 0.05, 2.0)):
        assert ghost_bound(d0, nm, t) == 2.0 * gronwall_bound(d0, nm, t)
    assert abs(ghost_bound(0.0, 0.05, 2.0) - 0.4 * math.e**4) <= 1e-12


def test_bounds_reject_negative_inputs():
    with pytest.raises(ValueError):
        gronwall_bound(-0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        gronwall_bound(0.1, -1.0, 1.0)
    with pytest.raises(ValueError):
        ghost_bound(0.1, 0.0, -1.0)


def test_norm_result_json():
    import json
    r = inf_to_one_norm_exact(uniform_space(3), np.full((3, 3), 0.5))
    doc = json.loads(r.to_json())
    assert doc["method"] == "exact_bruteforce"
    assert doc["witness_f"] == [1, 1, 1]


def float64_scan_norm(space, matrix):
    """The exact scan without a float32 screen: every high column scanned in float64."""
    n = space.n
    b = norms._bilinear_matrix(space, matrix)
    k = min(norms._LOW_BITS, n - 1)
    low = norms._sign_sums(b, range(k), np.zeros(n))
    high = norms._sign_sums(b, range(k, n - 1), b[:, n - 1])
    best_score, best_id = -1.0, 0
    for h in range(high.shape[1]):
        scores = np.add.reduce(np.abs(low + high[:, h:h + 1]), axis=0)
        c = int(np.argmax(scores))
        if scores[c] > best_score:
            best_score, best_id = float(scores[c]), c + (h << k)
    g = np.append(1.0 - 2.0 * ((best_id >> np.arange(n - 1)) & 1), 1.0)
    f = np.where(b @ g >= 0, 1.0, -1.0)
    return float(abs(f @ b @ g)), f, g


def screen_cases():
    for n in range(13, 25):
        yield from norm_cases(n, 1)
    for n in (5, 16, 23):  # every candidate ties: the screen rules out no column
        for d in (np.zeros((n, n)), np.diag(np.linspace(0.5, 1.0, n)), np.full((n, n), 0.3)):
            yield uniform_space(n), d
    _, half = list(norm_cases(20, 1))[1]
    for scale in (1e-300, 1e300):
        yield uniform_space(20), half * scale
    subnormal = half.copy()
    subnormal[2, 7] = subnormal[7, 2] = 1e-310
    yield uniform_space(20), subnormal
    tiny = np.zeros((14, 14))
    tiny[0, 13] = tiny[13, 0] = 1e-310
    yield uniform_space(14), tiny


def test_screened_exact_norm_is_the_float64_scan_bytewise():
    for space, d in screen_cases():
        r = inf_to_one_norm_exact(space, d)
        value, f, g = float64_scan_norm(space, d)
        assert r.value.hex() == value.hex(), (space.n, r.value, value)
        assert np.array_equal(r.witness_f, f) and np.array_equal(r.witness_g, g)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_norms_reject_non_finite_matrices(bad):
    # NaN - NaN and inf - inf are NaN, which passes a "> 1e-12" symmetry check
    d = np.array([[0.0, bad], [1.0 if math.isnan(bad) else bad, 0.0]])
    for norm in (inf_to_one_norm_exact, inf_to_one_norm_lower):
        with pytest.raises(ValueError, match="matrix must be finite"):
            norm(uniform_space(2), d)
