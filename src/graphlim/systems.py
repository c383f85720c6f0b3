"""Finite coupled systems: per-node sparse rows of coupling masses.

A :class:`CoupledSystem` stores, for every node i, the weighted neighbor
list {(j, w_ij)}. For a kernel-derived system w_ij = W(x_i, x_j) mu_j; for
fiber systems the rows are the fiber measures themselves. Rows live in CSR
arrays sorted by ascending neighbor index, which pins the summation order
used by the dynamics.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError
from .kernels import Kernel
from .space import IndexSpace, uniform_space

_ROW_SUM_SLACK = 1e-9
_DENSE_CSV_MAX = 2000
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
            cached.setflags(write=False)
            self.__dict__["_row_of_entry"] = cached
        return cached

    def row(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.row_of_entry, weights=self.weights, minlength=self.n)

    def dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        rows = self.row_of_entry
        m[rows, self.indices] = self.weights
        return m

    def to_json(self) -> str:
        rows = []
        for i in range(self.n):
            idx, w = self.row(i)
            rows.append([[int(j), float(v)] for j, v in zip(idx, w)])
        doc = {
            "label": self.label,
            "fiber_normalization": self.fiber_normalization,
            "space": json.loads(self.space.to_json()),
            "rows": rows,
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "CoupledSystem":
        doc = json.loads(text)
        space = IndexSpace.from_json(json.dumps(doc["space"]))
        rows = [
            (np.array([e[0] for e in row], dtype=np.int64),
             np.array([e[1] for e in row], dtype=np.float64))
            for row in doc["rows"]
        ]
        return from_rows(space, rows, label=doc.get("label", ""),
                         fiber_normalization=doc.get("fiber_normalization"))

    def to_csv(self, path):
        """Dense n x n weight matrix as CSV; refuses n > 2000."""
        if self.n > _DENSE_CSV_MAX:
            raise SizeLimitError(f"dense CSV export is limited to n <= {_DENSE_CSV_MAX}")
        dense = self.dense()
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            for row in dense:
                writer.writerow([repr(float(v)) for v in row])


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

    Exact zeros are dropped; np.nonzero's row-major order sorts each row by neighbor.
    """
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
                         np.concatenate(weights), label=label)


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
    same adjacency on any platform. The upper triangle is drawn row by row in
    blocks and kept as an edge list, so memory stays O(edges). No self-loops.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(seed))
    step = max(1, _BLOCK_ENTRIES // n)
    heads, tails = [], []
    for lo in range(0, n, step):
        r, c = np.nonzero(np.triu(np.ones((min(n, lo + step) - lo, n), dtype=bool), k=lo + 1))
        hit = rng.random(r.size) < p
        heads.append(r[hit] + lo)
        tails.append(c[hit])
    # both orientations of every edge, grouped by row
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

    return _from_row_blocks(space, row_block, f"er(n={n},p={p},seed={seed})")


def adjacency_matrix(system: CoupledSystem) -> np.ndarray:
    """Recover the kernel values w_ij / mu_j as a dense matrix."""
    return system.dense() / system.space.weights[None, :]
