"""Finite coupled systems: per-node sparse rows of coupling masses.

A :class:`CoupledSystem` stores, for every node i, the weighted neighbor
list {(j, w_ij)}. For a kernel-derived system w_ij = W(x_i, x_j) mu_j; for
fiber systems the rows are the fiber measures themselves. Rows live in CSR
arrays sorted by ascending neighbor index, which pins the summation order
used by the dynamics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import Kernel
from .space import IndexSpace, uniform_space

_ROW_SUM_SLACK = 1e-9
# Dense entries per row block of a build: bounds its transient memory at any n.
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class CoupledSystem:
    """Sparse row storage of a finite coupled network.

    ``indptr``/``indices``/``weights`` follow the CSR convention; row i is
    ``indices[indptr[i]:indptr[i+1]]`` with matching weights, strictly
    increasing in neighbor index (the dynamics would sum a repeated neighbor,
    ``dense`` would keep one). ``fiber_normalization`` records how fiber
    rows were scaled (None for kernel-derived systems).
    """

    space: IndexSpace
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    label: str = ""
    fiber_normalization: str | None = None

    def __post_init__(self):
        indptr = np.ascontiguousarray(self.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(self.indices, dtype=np.int64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.__dict__["_bincount_weights"] = weights.view()  # made before the freeze below
        for name, arr in (("indptr", indptr), ("indices", indices), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.space.n
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed row pointers")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("row pointers must be nondecreasing")
        if indices.ndim != 1 or indices.shape != weights.shape:
            raise ValueError("indices and weights must be 1-D of matching length")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("neighbor index out of range")
        rows = self.row_of_entry  # compared by shifted views: no nnz-length int temporaries
        if np.any((indices[1:] <= indices[:-1]) & (rows[1:] == rows[:-1])):
            raise ValueError("neighbor indices must strictly increase within a row")
        if not np.all(np.isfinite(weights)) or np.any(weights < 0):
            raise ValueError("weights must be finite and nonnegative")
        sums = self.row_sums()
        if sums.size and sums.max() > 1.0 + _ROW_SUM_SLACK:
            raise ValueError("row masses must not exceed 1")

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def row_of_entry(self) -> np.ndarray:
        """Row index of every CSR entry; cached for the dynamics."""
        cached = self.__dict__.get("_row_of_entry")
        if cached is None:
            cached = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))
            self.__dict__["_bincount_rows"] = cached.view()
            cached.setflags(write=False)
            self.__dict__["_row_of_entry"] = cached
        return cached

    def _bincount_args(self):
        """Views of ``row_of_entry`` and ``weights`` taken before the freeze; never written to.

        ``np.bincount`` copies a read-only input: 2 x nnz x 8 bytes per row sum.
        The views are writable unless the arrays came in read-only.
        """
        self.row_of_entry
        return self.__dict__["_bincount_rows"], self.__dict__["_bincount_weights"]

    def row(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def row_sums(self) -> np.ndarray:
        rows, weights = self._bincount_args()
        return np.bincount(rows, weights=weights, minlength=self.n)

    def dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        rows = self.row_of_entry
        m[rows, self.indices] = self.weights
        return m


def from_rows(space: IndexSpace, rows, label: str = "",
              fiber_normalization: str | None = None) -> CoupledSystem:
    """Build a system from per-node (indices, weights) pairs."""
    indptr = np.zeros(space.n + 1, dtype=np.int64)
    all_idx = []
    all_w = []
    for i, (idx, w) in enumerate(rows):
        idx = np.asarray(idx, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        order = np.argsort(idx, kind="stable")
        all_idx.append(idx[order])
        all_w.append(w[order])
        indptr[i + 1] = indptr[i] + idx.size
    indices = np.concatenate(all_idx) if all_idx else np.zeros(0, dtype=np.int64)
    weights = np.concatenate(all_w) if all_w else np.zeros(0)
    return CoupledSystem(space, indptr, indices, weights, label=label,
                         fiber_normalization=fiber_normalization)


def disjoint_union(systems) -> tuple[CoupledSystem, np.ndarray]:
    """Block-diagonal union of ``systems`` and its node offsets.

    Component k holds nodes ``offsets[k]`` to ``offsets[k + 1] - 1`` and keeps
    its rows, entry for entry, with columns shifted by ``offsets[k]``. The
    union lies on ``uniform_space`` of the total size; that space only fixes
    the node count, since the dynamics read nothing but the CSR arrays.
    """
    offsets = np.cumsum([0] + [s.n for s in systems])
    entry_offsets = np.cumsum([0] + [s.indices.size for s in systems])
    indptr = np.concatenate([[0]] + [s.indptr[1:] + e for s, e in zip(systems, entry_offsets)])
    indices = np.concatenate([s.indices + o for s, o in zip(systems, offsets)])
    weights = np.concatenate([s.weights for s in systems])
    union = CoupledSystem(uniform_space(int(offsets[-1])), indptr, indices, weights,
                          label="+".join(s.label for s in systems))
    return union, offsets


def _from_row_blocks(space: IndexSpace, row_block, label: str) -> CoupledSystem:
    """CSR system from the dense masses ``row_block(lo, hi)`` of rows lo..hi-1, asked in order.

    Rows come in blocks of about ``_BLOCK_ENTRIES`` dense entries. Exact zeros
    are dropped; the flat row-major positions of the rest sort each row by neighbor.
    """
    n = space.n
    step = max(1, _BLOCK_ENTRIES // n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, weights = [], []
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        block = row_block(lo, hi).ravel()
        flat = np.flatnonzero(block != 0)
        indptr[lo + 1:hi + 1] = indptr[lo] + np.searchsorted(flat, np.arange(1, hi - lo + 1) * n)
        indices.append(flat % n)
        weights.append(block[flat])
    return CoupledSystem(space, indptr, np.concatenate(indices), np.concatenate(weights),
                         label=label)


def discretize(kernel: Kernel, space: IndexSpace, label: str = "") -> CoupledSystem:
    """Quadrature rows w_ij = W(x_i, x_j) mu_j; exact zeros are dropped."""
    kernel.check_space(space)
    mu = space.weights
    return _from_row_blocks(space, lambda lo, hi: kernel.eval_rows(space, lo, hi) * mu,
                            label or "graphon")


def sample_er(n: int, p: float, seed: int) -> CoupledSystem:
    """Erdos-Renyi graph on the uniform n-point space, rows A_ij / n.

    Edges are drawn independently with probability p using the Philox
    counter-based generator, so a given (n, p, seed) reproduces the exact
    same adjacency on any platform. The upper triangle is drawn in row-major
    order, in blocks of rows of about ``_BLOCK_ENTRIES`` pairs, and each hit
    is mapped to its (row, col) by index arithmetic. The CSR arrays come from
    the sorted edge keys row * n + col, so memory stays O(edges) and no dense
    block is ever formed. No self-loops.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(seed))
    step = max(1, _BLOCK_ENTRIES // n)
    keys = []
    for lo in range(0, n, step):
        # pair (i, j), i < j, of rows lo..hi-1 is draw first[i - lo] + j - i - 1 of the block
        i = np.arange(lo, min(n, lo + step))
        first = np.concatenate([[0], np.cumsum(n - 1 - i)])
        hit = np.flatnonzero(rng.random(first[-1]) < p)
        r = np.searchsorted(first, hit, side="right") - 1
        head = r + lo
        tail = hit - first[r] + head + 1
        keys += [head * n + tail, tail * n + head]  # both orientations of every edge
    keys = np.concatenate(keys)
    keys.sort()
    space = uniform_space(n)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    cols = keys % n
    del keys  # before the validation temporaries of CoupledSystem: a lower peak
    return CoupledSystem(space, indptr, cols, space.weights[cols],
                         label=f"er(n={n},p={p},seed={seed})")


def adjacency_matrix(system: CoupledSystem) -> np.ndarray:
    """Recover the kernel values w_ij / mu_j as a dense matrix."""
    return system.dense() / system.space.weights[None, :]
