import dataclasses
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
    ModelFunctions,
    adjacency_matrix,
    canonical_embedding,
    check_automorphism,
    discretize,
    disjoint_union,
    from_rows,
    geodesic_kernel,
    graphop_from_weighted,
    grid_shift_map,
    integrate,
    integrate_meanfield,
    kuramoto_model,
    make_finite_space,
    make_grid_space,
    rhs,
    sample_er,
    spherical_graphop,
    swap_map,
    uniform_space,
)
from graphlim import GeodesicKernel, IndexSpace, dynamics, graphop, systems
from graphlim.kernels import circle_distance
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


def test_er_rejects_n_whose_edge_keys_overflow_int64():
    # the keys row * n + col need n^2 <= 2^63 - 1; 10^20 overflowed np.cumsum before
    for n in (10**20, 2**32, 3037000500, np.int64(2**40)):
        with pytest.raises(ValueError, match=f"n={n} is too large"):
            sample_er(n, 0.5, 1)


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


def test_system_checks_column_order_only_within_rows():
    # five rows of uniform_space(5); 0.1 per entry keeps every row mass below 1
    def build(indptr, indices):
        return CoupledSystem(uniform_space(5), np.array(indptr), np.array(indices),
                             np.full(len(indices), 0.1))
    bad = [([0, 2, 2, 4, 4, 6], [3, 3, 0, 1, 2, 4]),  # repeated column, first row
           ([0, 3, 3, 5, 5, 7], [0, 4, 2, 0, 1, 2, 4]),  # decreasing column, first row
           ([0, 2, 2, 4, 4, 6], [0, 1, 3, 4, 4, 2]),  # decreasing column in the last row
           ([0, 2, 2, 4, 4, 6], [0, 1, 3, 4, 2, 2]),  # repeated column in the last row
           ([0, 0, 0, 2, 2, 4], [4, 1, 0, 3]),  # decreasing column after two empty rows
           ([0, 0, 0, 0, 0, 2], [1, 1])]  # repeated column after four empty rows
    for indptr, indices in bad:
        with pytest.raises(ValueError, match="strictly increase"):
            build(indptr, indices)
    good = [([0, 2, 4, 6, 8, 10], [3, 4, 0, 1, 2, 3, 0, 4, 1, 2]),  # drops at every row start
            ([0, 2, 2, 4, 4, 6], [3, 4, 0, 4, 0, 1]),  # drops across empty rows
            ([0, 0, 1, 1, 2, 2], [4, 4]),  # a column repeated across an empty row
            ([0, 0, 0, 0, 0, 0], [])]
    for indptr, indices in good:
        sys = build(indptr, indices)
        assert sys.dense()[sys.row_of_entry, sys.indices].tolist() == [0.1] * len(indices)


def row_length_system(lengths, seed):
    """Sorted random columns and row masses below 1; zero-length rows pad it to a square."""
    n = max(len(lengths), max(lengths, default=0))
    lengths = list(lengths) + [0] * (n - len(lengths))
    rng = np.random.Generator(np.random.Philox(seed))
    indices = [np.sort(rng.choice(n, size=k, replace=False)) for k in lengths]
    weights = [rng.uniform(0.0, 1.0, k) / (k + 1) for k in lengths]
    return CoupledSystem(uniform_space(n), np.concatenate([[0], np.cumsum(lengths)]),
                         np.concatenate(indices), np.concatenate(weights))


@pytest.mark.parametrize("size", [None, 7, 64])
def test_row_sums_are_the_whole_bincount_bytewise(monkeypatch, size):
    if size is not None:
        monkeypatch.setattr(systems, "_BLOCK_ENTRIES", size)
    block = systems._BLOCK_ENTRIES
    cases = {
        "one_node": [1],
        "one_node_empty": [0],
        "no_entries": [0] * 9,
        # rows longer than a block, between empty first, middle and trailing rows
        "long_rows": [0, 0, block + 5, 3, 0, 0, 17, block + 1, 0, 0, 2],
        "empty_edges": [0, 16, 16, 0, 0, 16, 16, 0] * 24 + [0, 0],
        "exact_multiple": [8] * 224,
    }
    for name, lengths in cases.items():
        sys = row_length_system(lengths, len(name))
        want = np.bincount(sys.row_of_entry, weights=sys.weights, minlength=sys.n)
        assert sys.row_sums().tobytes() == want.tobytes(), (name, size)
        assert sys.n >= len(lengths) and sys.indices.size == sum(lengths)


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


def reference_spherical_graphop(space, eps=None):
    eps = 1.5 * graphop._max_grid_spacing(space) if eps is None else eps
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
    # at halfwidth 1.0 whether a fiber holds x itself or -x turns on the last bit of a dot
    for resolution, order in ((40, 1), (120, 4), (468, 12), (1000, 1), (2016, 12), (3000, 6)):
        space = make_grid_space("sphere2", (resolution,), symmetry_order=order)
        for halfwidth in (None, 0.2, 1.0):
            got = spherical_graphop(space, band_halfwidth=halfwidth)
            assert_same_csr(got, reference_spherical_graphop(space, halfwidth))


def traced_peak(build):
    """``build()`` and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def warm_traced(build):
    """``build()``, the bytes it keeps and its peak, traced on a second call: the first
    call's lazy imports (about 0.7 MB under ``numpy.random``) are not the build's."""
    build()
    tracemalloc.start()
    try:
        out = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept, peak


def test_sample_er_peak_memory_is_linear_in_nnz():
    # ER n = 2000, p = 0.1: about 400k entries. The system keeps its columns and one
    # shared weight, 1 x nnz x 8 bytes (its own weights were 1 x nnz x 8 more). The
    # peak, 2.01 x nnz x 8, is the edge-key blocks and their concatenation; the bound
    # is that plus 10%. The dense re-blocking build peaked above 12 x nnz x 8.
    for seed in (1, 2):
        sys, kept, peak = warm_traced(lambda: sample_er(2000, 0.1, seed))
        unit = sys.indices.size * 8
        assert peak <= 2.22 * unit and kept <= 1.1 * unit, (seed, peak / unit, kept / unit)


def test_spherical_graphop_build_peak_memory():
    # the row-block builder holds its block lists and one concatenation at a time:
    # 3.08 x nnz x 8 at 2016 nodes, where both lists and both copies peaked at 4.08
    space = make_grid_space("sphere2", (2016,), symmetry_order=12)
    sys, kept, peak = warm_traced(lambda: spherical_graphop(space))
    unit = sys.indices.size * 8
    assert peak <= 3.2 * unit and kept <= 2.1 * unit, (peak / unit, kept / unit)


# An unweighted system stores its one weight once, as a read-only zero-stride view.

UNWEIGHTED = {
    "er": lambda: sample_er(2000, 0.1, 1),
    "torus": lambda: discretize(geodesic_kernel("torus", 0.1, dim=2),
                                make_grid_space("torus", (60, 60))),
}


@pytest.mark.parametrize("build", UNWEIGHTED.values(), ids=UNWEIGHTED.keys())
def test_unweighted_builds_keep_one_shared_weight(build):
    sys, kept, _ = warm_traced(build)
    unit = sys.indices.size * 8
    assert sys.weights.strides == (0,) and not sys.weights.flags.writeable
    assert sys.weights.shape == sys.indices.shape
    assert sys.weights.tobytes() == sys.space.weights[sys.indices].tobytes()
    assert kept <= 1.1 * unit, kept / unit


def test_weighted_spaces_keep_full_weights():
    grid = make_grid_space("torus", (12, 9))
    masses = np.arange(1, grid.n + 1) / (grid.n * (grid.n + 1) / 2)
    points = np.random.Generator(np.random.Philox(4)).random((300, 2))
    kernel = geodesic_kernel("torus", 0.2, dim=2)
    spaces = [IndexSpace("torus", grid.coords, masses),  # a product grid, masses not uniform
              IndexSpace("torus", points, np.full(300, 1 / 300))]  # no grid: row blocks
    assert systems._grid_axes(spaces[0]) is not None
    for space in spaces:
        sys = discretize(kernel, space)
        assert sys.weights.strides == (8,)
        assert_same_csr(sys, max_metric_reference(kernel, space))
    for sys in (discretize(geodesic_kernel("sphere2", 0.5), make_grid_space("sphere2", (400,))),
                spherical_graphop(make_grid_space("sphere2", (400,)))):
        assert sys.weights.strides == (8,) and sys.weights.flags.c_contiguous


def test_shared_weight_is_kept_and_writable_arrays_are_copied():
    er = sample_er(300, 0.2, 1)
    assert CoupledSystem(er.space, er.indptr, er.indices, er.weights).weights is er.weights
    assert dataclasses.replace(er, label="copy").weights is er.weights
    full = np.array(er.weights)
    writable_view = np.lib.stride_tricks.as_strided(np.array([er.weights[0]]),
                                                    shape=er.weights.shape, strides=(0,))
    assert writable_view.flags.writeable
    for weights in (full, writable_view):
        sys = CoupledSystem(er.space, er.indptr, er.indices, weights)
        assert sys.weights is not weights and sys.weights.strides == (8,)
        assert sys.weights.tobytes() == er.weights.tobytes() and weights.flags.writeable


SHARED = {
    "er_small": (lambda: sample_er(23, 0.5, 3), lambda n: swap_map(n, 0, 1)),
    "er_product": (lambda: sample_er(400, 0.3, 11), lambda n: swap_map(n, 3, 7)),
    "torus_product": (lambda: discretize(geodesic_kernel("torus", 0.15, dim=2),
                                         make_grid_space("torus", (30, 30))),
                      lambda n: grid_shift_map(make_grid_space("torus", (30, 30)), [1, 2])),
}


@pytest.mark.parametrize("build, make_map", SHARED.values(), ids=SHARED.keys())
def test_shared_weight_reads_like_full_weights_bytewise(build, make_map):
    shared = build()
    full = CoupledSystem(shared.space, shared.indptr, shared.indices, np.array(shared.weights))
    assert shared.weights.strides == (0,) and full.weights.strides == (8,)
    assert (shared.indices.size < dynamics._SEGMENT_NNZ) == (shared.n == 23)  # small or product
    rng = np.random.Generator(np.random.Philox(5))
    u0 = rng.uniform(0, 2 * np.pi, shared.n)
    kuramoto = kuramoto_model(0.3, 1.0)
    for model in (kuramoto, ModelFunctions(kuramoto.f, kuramoto.g)):  # generic path second
        assert rhs(shared, model, u0).tobytes() == rhs(full, model, u0).tobytes()
        a, b = (integrate(s, model, u0, 0.2, 0.01).states for s in (shared, full))
        assert a.tobytes() == b.tobytes()
    for m in (1, 3):
        clouds = rng.uniform(0, 2 * np.pi, (shared.n, m))
        a, b = (integrate_meanfield(s, clouds, 0.1, 0.01).states for s in (shared, full))
        assert a.tobytes() == b.tobytes()
    assert shared.row_sums().tobytes() == full.row_sums().tobytes()
    assert shared.dense().tobytes() == full.dense().tobytes()
    other = sample_er(50, 0.4, 2)
    assert_same_csr(disjoint_union([shared, other])[0], disjoint_union([full, other])[0])
    imap = make_map(shared.n)
    reports = [check_automorphism(s, imap, 1e-12).to_json() for s in (shared, full)]
    assert reports[0] == reports[1]


def test_system_from_read_only_arrays_allocates_nothing_per_entry():
    # the arrays are reused, not copied; the checks and row sums work in
    # bool masks and blocks of whole rows, no nnz-length int or float temporary
    for seed in (1, 2):
        er = sample_er(2000, 0.1, seed)
        assert not (er.indices.flags.writeable or er.weights.flags.writeable)
        unit = er.indices.size * 8
        sys, peak = traced_peak(lambda: CoupledSystem(er.space, er.indptr, er.indices,
                                                      er.weights))
        assert sys.weights is er.weights and peak <= 0.25 * unit, (seed, peak / unit)
        sums, peak = traced_peak(lambda: dataclasses.replace(er, label="copy").row_sums())
        assert sums.tobytes() == er.row_sums().tobytes() and peak <= 0.25 * unit, \
            (seed, peak / unit)


def test_row_sums_copy_no_entry_arrays():
    # np.bincount copies read-only inputs; row_sums copies one block of rows at a time
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
        assert not sys.weights.flags.writeable


# Geodesic kernels on product torus grids of two or more axes build from per-axis
# supports. The reference evaluates the max-metric ball on dense row blocks, as W
# was defined before the per-axis predicate: same bytes on every grid shape, on the
# grids where distances tie with delta and with the tie slack, and on the spaces that
# fall back to the row-block builder.

def max_metric_reference(kernel, space):
    c, mu = space.coords, space.weights

    def rows(lo, hi):
        d = circle_distance(c[lo:hi, None, 0], c[None, :, 0])
        for k in range(1, space.dim):
            d = np.maximum(d, circle_distance(c[lo:hi, None, k], c[None, :, k]))
        return (d <= kernel.delta + kernel._TIE_TOL).astype(np.float64) * mu

    return blocked_reference_from_row_blocks(space, rows)


GRIDS = [("torus", (30, 30), 0.15), ("torus", (60, 60), 0.1), ("torus", (6, 6), 0.2),
         ("torus", (10, 10), 0.5), ("torus", (60, 60), 1e-9), ("torus", (7, 5, 4), 0.3),
         ("torus", (12,), 0.25), ("interval", (37,), 0.2), ("interval", (1,), 0.1),
         ("torus", (1, 7), 0.3), ("torus", (2, 3000), 0.01), ("torus", (10, 10), 0.2)]


@pytest.mark.parametrize("geometry, resolution, delta", GRIDS,
                         ids=[f"{g}{'x'.join(map(str, r))}-{d}" for g, r, d in GRIDS])
def test_geodesic_grid_build_is_the_max_metric_reference_bytewise(geometry, resolution, delta):
    space = make_grid_space(geometry, resolution)
    kernel = geodesic_kernel(geometry, delta, dim=len(resolution) if geometry == "torus" else None)
    assert_same_csr(discretize(kernel, space), max_metric_reference(kernel, space))


def test_geodesic_fallback_spaces_are_the_max_metric_reference_bytewise():
    grid = make_grid_space("torus", (12, 9))
    perm = np.random.Generator(np.random.Philox(3)).permutation(grid.n)
    points = np.random.Generator(np.random.Philox(4)).random((300, 2))
    kernel = geodesic_kernel("torus", 0.2, dim=2)
    for space in (IndexSpace("torus", grid.coords[perm], grid.weights[perm]),
                  IndexSpace("torus", points, np.full(300, 1 / 300))):
        assert systems._grid_axes(space) is None
        assert_same_csr(discretize(kernel, space), max_metric_reference(kernel, space))


def test_geodesic_grid_build_evaluates_no_row_block(monkeypatch):
    def refuse(*args):
        raise AssertionError("row block evaluated")

    space = make_grid_space("torus", (20, 30))
    want = discretize(geodesic_kernel("torus", 0.1, dim=2), space)
    monkeypatch.setattr(GeodesicKernel, "eval_rows", refuse)
    assert_same_csr(discretize(geodesic_kernel("torus", 0.1, dim=2), space), want)
    with pytest.raises(AssertionError, match="row block"):  # one axis keeps the row builder
        discretize(geodesic_kernel("torus", 0.1, dim=1), make_grid_space("torus", (30,)))


@pytest.mark.parametrize("resolution, delta", [((60, 60), 0.1), ((2, 3000), 0.01)])
def test_geodesic_grid_build_peak_memory_is_linear_in_nnz(resolution, delta):
    # the system keeps its columns and one shared weight, 1 x nnz x 8 bytes; evaluating
    # W on row blocks peaked at 4.2 x nnz x 8 (60 x 60) and 4.4 x nnz x 8 (2 x 3000)
    space = make_grid_space("torus", resolution)
    kernel = geodesic_kernel("torus", delta, dim=2)
    sys, peak = traced_peak(lambda: discretize(kernel, space))
    assert peak <= 3 * sys.indices.size * 8, peak / (sys.indices.size * 8)


@pytest.mark.parametrize("geometry", ["interval", "torus"])
def test_one_axis_geodesic_build_peak_memory_stays_put(geometry):
    # one axis gains nothing from a product and keeps the row-block builder: 3.27 x nnz
    # x 8 with each block dropped once copied (the bound is that plus 10%), 4.27 while
    # the block lists outlived their concatenation, 4.632 before the per-axis predicate
    space = make_grid_space(geometry, (3000,))
    kernel = geodesic_kernel(geometry, 0.01, dim=1 if geometry == "torus" else None)
    sys, peak = traced_peak(lambda: discretize(kernel, space))
    assert peak <= 3.6 * sys.indices.size * 8, peak / (sys.indices.size * 8)


def test_system_copies_writable_caller_arrays():
    space = make_finite_space([1, 1, 1])
    indptr, indices = np.array([0, 1, 2, 3]), np.array([1, 0, 2])
    weights = np.array([0.2, 0.3, 0.1])
    sys = CoupledSystem(space, indptr, indices, weights)
    indptr[1], indices[0], weights[0] = 0, 2, 0.5  # the caller's arrays stay writable
    assert sys.indptr.tolist() == [0, 1, 2, 3] and sys.indices.tolist() == [1, 0, 2]
    assert sys.weights.tolist() == [0.2, 0.3, 0.1]
    assert not (sys.indptr.flags.writeable or sys.indices.flags.writeable
                or sys.weights.flags.writeable)


@pytest.mark.parametrize("build", [
    lambda: discretize(geodesic_kernel("torus", 0.1, dim=2), make_grid_space("torus", (40, 40))),
    lambda: discretize(geodesic_kernel("sphere2", 0.5), make_grid_space("sphere2", (400,))),
    lambda: sample_er(500, 0.2, 1),
    lambda: disjoint_union([sample_er(300, 0.2, 1), sample_er(200, 0.3, 2)])[0],
    lambda: spherical_graphop(make_grid_space("sphere2", (400,))),
], ids=["grid", "row_blocks", "er", "union", "fibers"])
def test_builders_hand_over_frozen_arrays(build, monkeypatch):
    # a build whose arrays reached CoupledSystem writable would copy them: 2 x nnz x 8 bytes
    copies = []
    frozen = systems._frozen

    def spy(a, dtype):
        out = frozen(a, dtype)
        copies.append(out is not a)
        return out

    monkeypatch.setattr(systems, "_frozen", spy)
    build()
    assert copies and not any(copies)
