import math
import tracemalloc

import numpy as np
import pytest

from graphlim import (
    BlockKernel,
    ConstantKernel,
    CoupledSystem,
    CustomKernel,
    MatrixKernel,
    adjacency_matrix,
    canonical_embedding,
    discretize,
    from_rows,
    geodesic_kernel,
    graphop_from_weighted,
    make_finite_space,
    make_grid_space,
    sample_er,
    spherical_graphop,
    uniform_space,
)
from graphlim import graphop
from graphlim.systems import _BLOCK_ENTRIES


def path_system():
    w = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.9], [0.0, 0.9, 0.0]])
    space = make_finite_space([3 / 10, 1 / 2, 1 / 5])
    return discretize(MatrixKernel(w), space)


def test_constant_kernel_rows_are_uniform():
    sys = discretize(ConstantKernel(1.0), uniform_space(7))
    for i in range(7):
        idx, w = sys.row(i)
        assert idx.tolist() == list(range(7))
        assert np.allclose(w, 1 / 7, rtol=0, atol=0)


def test_weighted_path_rows():
    sys = path_system()
    assert sys.row(0)[0].tolist() == [1]
    assert sys.row(0)[1].tolist() == [0.5]
    assert sys.row(1)[0].tolist() == [0, 2]
    assert np.allclose(sys.row(1)[1], [0.3, 0.18], rtol=1e-15, atol=0)
    assert sys.row(2)[0].tolist() == [1]
    assert np.allclose(sys.row(2)[1], [0.45], rtol=1e-15, atol=0)


def test_zero_kernel_rows_are_empty():
    sys = discretize(ConstantKernel(0.0), uniform_space(5))
    assert sys.indices.size == 0
    assert all(sys.row(i)[0].size == 0 for i in range(5))


def test_er_empty_and_complete():
    empty = sample_er(4, 0.0, 1)
    assert empty.indices.size == 0
    full = sample_er(4, 1.0, 1)
    dense = adjacency_matrix(full)
    assert np.array_equal(dense, np.ones((4, 4)) - np.eye(4))


def test_er_seeded_reproducibility():
    a = sample_er(16, 0.5, 7)
    b = sample_er(16, 0.5, 7)
    assert np.array_equal(a.dense(), b.dense())
    edges = a.indices.size // 2
    assert 40 <= edges <= 80
    c = sample_er(16, 0.5, 8)
    assert not np.array_equal(a.dense(), c.dense())


def test_er_validation():
    with pytest.raises(ValueError):
        sample_er(0, 0.5, 1)
    with pytest.raises(ValueError):
        sample_er(4, 1.5, 1)


def test_detailed_balance_of_kernel_rows():
    rng = np.random.Generator(np.random.Philox(2))
    vals = rng.uniform(0, 1, (8, 8))
    vals = (vals + vals.T) / 2
    space = make_finite_space(rng.uniform(0.1, 1.0, 8))
    sys = discretize(MatrixKernel(vals), space)
    w = sys.dense()
    mu = space.weights
    lhs = w * mu[:, None]
    assert np.max(np.abs(lhs - lhs.T)) <= 1e-14


def test_row_sums_are_subprobabilities():
    sys = discretize(ConstantKernel(1.0), uniform_space(9))
    assert np.max(sys.row_sums()) <= 1.0 + 1e-9


def test_system_rejects_negative_weights():
    space = uniform_space(2)
    with pytest.raises(ValueError):
        CoupledSystem(space, np.array([0, 1, 2]), np.array([0, 1]), np.array([0.5, -0.1]))


def test_system_rejects_repeated_or_unsorted_neighbors():
    # a repeated neighbor would be summed by the dynamics but overwritten by dense()
    space = uniform_space(2)
    with pytest.raises(ValueError, match="strictly increase"):
        from_rows(space, [([1, 1], [0.3, 0.2]), ([0], [0.5])])
    with pytest.raises(ValueError, match="strictly increase"):
        CoupledSystem(space, np.array([0, 2, 2]), np.array([1, 0]), np.array([0.2, 0.3]))
    # a row may start below where the previous row ended, and rows may be empty
    ok = CoupledSystem(uniform_space(3), np.array([0, 0, 2, 3]), np.array([1, 2, 0]),
                       np.array([0.2, 0.3, 0.4]))
    assert ok.dense().tolist() == [[0.0, 0.0, 0.0], [0.0, 0.2, 0.3], [0.4, 0.0, 0.0]]


def reference_discretize(kernel, space):
    """Row-at-a-time quadrature, assembled through from_rows."""
    mu = space.weights
    rows = []
    for i in range(space.n):
        w = kernel.eval_rows(space, i, i + 1)[0] * mu
        keep = np.nonzero(w)[0]
        rows.append((keep, w[keep]))
    return from_rows(space, rows)


def reference_sample_er(n, p, seed):
    """Dense n x n draw of the upper triangle, as one Philox call."""
    rng = np.random.Generator(np.random.Philox(seed))
    a = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    a[iu] = (rng.random(iu[0].size) < p).astype(np.float64)
    a = a + a.T
    space = uniform_space(n)
    mu = space.weights
    rows = []
    for i in range(n):
        keep = np.nonzero(a[i])[0]
        rows.append((keep, a[i, keep] * mu[keep]))
    return from_rows(space, rows)


def assert_same_csr(got, want):
    """Byte equality of the CSR arrays: array_equal would take -0.0 for +0.0."""
    for name in ("indptr", "indices", "weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), name


def _symmetric(n, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    v = rng.uniform(0, 1, (n, n))
    v = (v + v.T) / 2
    v[v < 0.4] = 0.0
    return v


@pytest.mark.parametrize("kernel, space", [
    (geodesic_kernel("interval", 0.25), make_grid_space("interval", (40,))),
    (geodesic_kernel("torus", 0.15, dim=2), make_grid_space("torus", (30, 30))),
    (geodesic_kernel("torus", 0.2, dim=3), make_grid_space("torus", (8, 7, 6))),
    (geodesic_kernel("sphere2", math.pi / 2), make_grid_space("sphere2", (468,),
                                                              symmetry_order=12)),
    (BlockKernel([0, 0.3, 0.5, 1], [[1, 0, 0.5], [0, 0.2, 1], [0.5, 1, 0]]),
     make_grid_space("interval", (37,))),
    (canonical_embedding(_symmetric(12, 3) > 0), make_grid_space("interval", (60,))),
    (MatrixKernel(_symmetric(9, 4)), make_finite_space(np.arange(1, 10) / 45)),
    (ConstantKernel(0.7), uniform_space(33)),
    (CustomKernel(lambda x, y: float(abs(x[0] - y[0]) < 0.3), "interval"),
     make_grid_space("interval", (25,))),
], ids=["interval", "torus2", "torus3", "sphere", "block", "canonical", "matrix",
        "constant", "custom"])
def test_discretize_matches_row_reference(kernel, space):
    assert_same_csr(discretize(kernel, space), reference_discretize(kernel, space))


@pytest.mark.parametrize("n, p, seed", [(1, 0.5, 0), (4, 0.0, 1), (4, 1.0, 1),
                                        (16, 0.5, 7), (300, 0.1, 5)])
def test_sample_er_matches_dense_reference(n, p, seed):
    assert_same_csr(sample_er(n, p, seed), reference_sample_er(n, p, seed))


# The builders as they stood before the flat-mask rewrite: a 2-D np.nonzero
# per dense row block, ER hits re-blocked densely, spherical fibers through
# from_rows. The current builders must reproduce their CSR arrays byte for byte.

def blocked_reference_from_row_blocks(space, row_block):
    n = space.n
    step = max(1, _BLOCK_ENTRIES // n)
    counts = np.zeros(n + 1, dtype=np.int64)
    indices, weights = [], []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block = row_block(lo, hi)
        r, c = np.nonzero(block)
        counts[lo + 1:hi + 1] = np.bincount(r, minlength=hi - lo)
        indices.append(c)
        weights.append(block[r, c])
    return CoupledSystem(space, np.cumsum(counts), np.concatenate(indices),
                         np.concatenate(weights))


def blocked_reference_sample_er(n, p, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    step = max(1, _BLOCK_ENTRIES // n)
    heads, tails = [], []
    for lo in range(0, n, step):
        r, c = np.nonzero(np.triu(np.ones((min(n, lo + step) - lo, n), dtype=bool), k=lo + 1))
        hit = rng.random(r.size) < p
        heads.append(r[hit] + lo)
        tails.append(c[hit])
    rows = np.concatenate(heads + tails)
    cols = np.concatenate(tails + heads)
    order = np.argsort(rows, kind="stable")
    rows, cols = rows[order], cols[order]
    space = uniform_space(n)

    def row_block(lo, hi):
        a, b = np.searchsorted(rows, (lo, hi))
        block = np.zeros((hi - lo, n))
        block[rows[a:b] - lo, cols[a:b]] = 1.0
        return block * space.weights

    return blocked_reference_from_row_blocks(space, row_block)


def reference_spherical_graphop(space):
    eps = 1.5 * graphop._max_grid_spacing(space)
    rows = []
    for i in range(space.n):
        keep = np.nonzero(np.abs(space.coords @ space.coords[i]) <= eps)[0]
        masses = space.weights[keep]
        rows.append((keep, masses / math.fsum(masses.tolist())))
    return from_rows(space, rows)


@pytest.mark.parametrize("n", [1, 2, 3, 16, 23, 400])
@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("seed", [4, 11])
def test_sample_er_is_the_blocked_reference_bytewise(n, p, seed):
    assert_same_csr(sample_er(n, p, seed), blocked_reference_sample_er(n, p, seed))


@pytest.mark.parametrize("kernel, space", [
    (geodesic_kernel("interval", 0.25), make_grid_space("interval", (300,))),
    (geodesic_kernel("torus", 0.15, dim=2), make_grid_space("torus", (30, 30))),
    (geodesic_kernel("sphere2", math.pi / 2), make_grid_space("sphere2", (468,),
                                                              symmetry_order=12)),
    (BlockKernel([0, 0.3, 0.5, 1], [[1, 0, 0.5], [0, 0, 1], [0.5, 1, 0]]),
     make_grid_space("interval", (97,))),
    (MatrixKernel(_symmetric(40, 5)), make_finite_space(np.arange(1, 41) / 820)),
], ids=["interval", "torus", "sphere", "block", "matrix"])
def test_discretize_is_the_blocked_reference_bytewise(kernel, space):
    mu = space.weights
    want = blocked_reference_from_row_blocks(space,
                                             lambda lo, hi: kernel.eval_rows(space, lo, hi) * mu)
    assert want.indices.size < space.n ** 2  # the kernel's exact zeros are dropped
    assert_same_csr(discretize(kernel, space), want)


def test_graphop_from_weighted_is_the_blocked_reference_bytewise():
    for n, seed in ((9, 6), (250, 7)):
        values, space = _symmetric(n, seed), make_finite_space(np.arange(1, n + 1))
        want = blocked_reference_from_row_blocks(space,
                                                 lambda lo, hi: values[lo:hi] * space.weights)
        assert_same_csr(graphop_from_weighted(values, space), want)


def test_spherical_graphop_is_the_row_reference_bytewise():
    space = make_grid_space("sphere2", (468,), symmetry_order=12)
    got, want = spherical_graphop(space), reference_spherical_graphop(space)
    assert_same_csr(got, want)
    assert got.fiber_normalization == "probability"


def test_sample_er_peak_memory_is_linear_in_nnz():
    # ER n = 2000, p = 0.1: about 400k entries. The CSR arrays the system
    # keeps (indices, weights, the cached row of every entry) are 3 x nnz x 8
    # bytes; the dense re-blocking build peaked above 12 x nnz x 8, and
    # read-only copies inside the row-sum check added 2 x nnz x 8.
    for seed in (1, 2):
        tracemalloc.start()
        try:
            sys = sample_er(2000, 0.1, seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * sys.indices.size * 8, (seed, peak / (sys.indices.size * 8))


def test_row_sums_copy_no_entry_arrays():
    # np.bincount copies read-only inputs; row_sums counts with writable aliases
    for seed in (1, 2):
        sys = sample_er(2000, 0.1, seed)
        want = np.bincount(sys.row_of_entry, weights=sys.weights, minlength=sys.n)
        tracemalloc.start()
        try:
            sums = sys.row_sums()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sys.indices.size * 8, (seed, peak / (sys.indices.size * 8))
        assert np.array_equal(sums, want)
        assert not (sys.weights.flags.writeable or sys.row_of_entry.flags.writeable)
