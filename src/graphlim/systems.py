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

from .kernels import GeodesicKernel, Kernel
from .space import IndexSpace, _frozen, uniform_space

_ROW_SUM_SLACK = 1e-9
# Entries per block of whole rows: dense ones in a build, stored ones in row sums and the
# large RHS (`_row_blocks`). Bounds transient memory at any n.
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class CoupledSystem:
    """Sparse row storage of a finite coupled network.

    ``indptr``/``indices``/``weights`` follow the CSR convention; row i is
    ``indices[indptr[i]:indptr[i+1]]`` with matching weights, strictly
    increasing in neighbor index (the dynamics would sum a repeated neighbor,
    ``dense`` would keep one). A system keeps these three arrays and nothing
    per entry besides them: the row of every entry (``row_of_entry``) is
    built only where a path reads it. The unweighted builds (``sample_er``, and
    geodesic kernels on uniform interval, circle and torus grids) store their one weight
    once: ``weights`` is then a read-only zero-stride view (``np.broadcast_to``),
    8 bytes in all, with the values and ``tobytes()`` of the full array.
    """

    space: IndexSpace
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    label: str = ""

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int64), ("weights", np.float64)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))
        indptr, indices, weights = self.indptr, self.indices, self.weights
        n = self.space.n
        if indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != indices.size:
            raise ValueError("malformed row pointers")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("row pointers must be nondecreasing")
        if indices.ndim != 1 or indices.shape != weights.shape:
            raise ValueError("indices and weights must be 1-D of matching length")
        if indices.size and (indices.min() < 0 or indices.max() >= n):
            raise ValueError("neighbor index out of range")
        drops = np.flatnonzero(indices[1:] <= indices[:-1]) + 1  # must all be row starts
        if np.any(indptr[np.searchsorted(indptr, drops)] != drops):
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
        """Row index of every CSR entry, built anew on each call: the system keeps none."""
        return np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self.indptr))

    def row(self, i: int):
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.weights[lo:hi]

    def row_sums(self) -> np.ndarray:
        """Row masses by ``np.bincount`` per block of whole rows: its bits, block-sized buffers."""
        indptr, sums = self.indptr, np.empty(self.n)
        for lo, hi in _row_blocks(indptr):
            rows = np.repeat(np.arange(hi - lo), np.diff(indptr[lo:hi + 1]))
            sums[lo:hi] = np.bincount(rows, weights=self.weights[indptr[lo]:indptr[hi]],
                                      minlength=hi - lo)
        return sums

    def dense(self) -> np.ndarray:
        m = np.zeros((self.n, self.n))
        rows = self.row_of_entry
        m[rows, self.indices] = self.weights
        return m


def _row_blocks(indptr):
    """(lo, hi) row ranges of about ``_BLOCK_ENTRIES`` entries each, every row whole.

    A row longer than that is a block of its own; a block may end in empty rows."""
    n, edges = indptr.size - 1, [0]
    while edges[-1] < n:
        lo = edges[-1]
        hi = int(np.searchsorted(indptr, indptr[lo] + _BLOCK_ENTRIES, side="right")) - 1
        edges.append(max(hi, lo + 1))
    return list(zip(edges[:-1], edges[1:]))


def from_rows(space: IndexSpace, rows, label: str = "") -> CoupledSystem:
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
    return _sealed(space, indptr, indices, weights, label)


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
    union = _sealed(uniform_space(int(offsets[-1])), indptr, indices, weights,
                    "+".join(s.label for s in systems))
    return union, offsets


def _sealed(space: IndexSpace, indptr, indices, weights, label: str) -> CoupledSystem:
    """A system on arrays built here, frozen in place so that ``CoupledSystem`` copies none."""
    for a in (indptr, indices, weights):
        a.setflags(write=False)
    return CoupledSystem(space, indptr, indices, weights, label=label)


def _nonzeros(n: int, row_block):
    """CSR ``(indptr, indices, values)`` of the dense rows ``row_block(lo, hi)``, asked in order.

    Rows come in blocks of about ``_BLOCK_ENTRIES`` dense entries. Exact zeros
    are dropped; the flat row-major positions of the rest sort each row by neighbor.
    """
    indptr = np.zeros(n + 1, dtype=np.int64)
    indices, values = [], []
    for lo, hi in _row_blocks(n * np.arange(n + 1)):
        block = row_block(lo, hi).ravel()
        flat = np.flatnonzero(block != 0)
        indptr[lo + 1:hi + 1] = indptr[lo] + np.searchsorted(flat, np.arange(1, hi - lo + 1) * n)
        indices.append(flat % n)
        values.append(block[flat])
    return indptr, _drained(indices), _drained(values)


def _drained(parts, out=None) -> np.ndarray:
    """``np.concatenate(parts)`` of parts of one dtype, into ``out`` if given, emptying the
    list: each part is dropped once copied, so the parts and their concatenation are held
    together only one part at a time."""
    if out is None:
        out = np.empty(sum(part.size for part in parts), dtype=parts[0].dtype)
    at = 0
    parts.reverse()
    while parts:
        part = parts.pop()
        out[at:at + part.size] = part
        at += part.size
    return out


def _grid_axes(space: IndexSpace):
    """The sorted distinct coordinates of each axis when ``space`` is their row-major
    product grid (last axis fastest, as ``make_grid_space`` builds it), else None."""
    columns = space.coords.T
    axes = [u[np.concatenate([[True], np.diff(u) != 0])] for u in np.sort(columns)]
    if np.prod([u.size for u in axes], dtype=np.float64) != space.n:  # no int64 wraparound
        return None
    mesh = np.meshgrid(*axes, indexing="ij")
    return axes if all(map(np.array_equal, (m.ravel() for m in mesh), columns)) else None


def _axis_tables(kernel: GeodesicKernel, space: IndexSpace):
    """Per axis of a product grid (``_grid_axes``), the (m, L) table of each value's
    sorted neighbours under ``kernel._near``; None unless every value has L of them."""
    axes, tables = _grid_axes(space), []
    for u in axes or ():
        ptr, near, _ = _nonzeros(u.size, lambda lo, hi: kernel._near(u[lo:hi, None], u))
        if np.any(np.diff(ptr) != ptr[1]):
            return None
        tables.append(near.reshape(u.size, -1))
    return axes and tables


def _from_axis_tables(space: IndexSpace, tables, label: str) -> CoupledSystem:
    """System with W = 1 exactly on the products of per-axis neighbour tables: row
    (a_0, .., a_{d-1}) of the row-major grid keeps the columns (..(b_0 m_1 + b_1) m_2 + ..)
    over b_k in row a_k of table k, a broadcast Horner sum that lists them in ascending
    order, each with weight mu_j. All rows have one length, so blocks of whole rows fill
    preallocated CSR arrays in O(nnz + n). Uniform masses give one shared weight."""
    mu, n = space.weights, space.n
    sizes, lengths = zip(*(t.shape for t in tables))
    indptr = np.arange(n + 1, dtype=np.int64) * int(np.prod(lengths))
    indices = np.empty(indptr[-1], dtype=np.int64)
    shared = mu.min() == mu.max()
    weights = np.broadcast_to(mu[0], indices.shape) if shared else np.empty(indices.shape)
    for lo, hi in _row_blocks(indptr):
        cols = np.zeros((hi - lo, 1), dtype=np.int64)
        for table, m, digit in zip(tables, sizes, np.unravel_index(np.arange(lo, hi), sizes)):
            cols = (cols[:, :, None] * m + table[digit][:, None, :]).reshape(hi - lo, -1)
        indices.reshape(n, -1)[lo:hi] = cols
        if not shared:
            np.take(mu, cols, out=weights.reshape(n, -1)[lo:hi])
    return _sealed(space, indptr, indices, weights, label)


def discretize(kernel: Kernel, space: IndexSpace, label: str = "") -> CoupledSystem:
    """Quadrature rows w_ij = W(x_i, x_j) mu_j; exact zeros are dropped.

    A geodesic kernel on an interval, circle or torus grid where each axis value has as
    many neighbours as the others builds from per-axis tables (``_from_axis_tables``);
    every other kernel and space, the sphere included, evaluates W on row blocks. Both
    give the same bytes.
    """
    kernel.check_space(space)
    label = label or "graphon"
    tables = (isinstance(kernel, GeodesicKernel) and kernel.geometry != "sphere2"
              and _axis_tables(kernel, space))
    if tables:
        return _from_axis_tables(space, tables, label)
    mu = space.weights
    return _sealed(space, *_nonzeros(space.n, lambda lo, hi: kernel.eval_rows(space, lo, hi) * mu),
                   label)


def sample_er(n: int, p: float, seed: int) -> CoupledSystem:
    """Erdos-Renyi graph on the uniform n-point space, rows A_ij / n.

    Edges are drawn independently with probability p using the Philox
    counter-based generator, so a given (n, p, seed) reproduces the exact
    same adjacency on any platform. The upper triangle is drawn in row-major
    order, in blocks of rows of about ``_BLOCK_ENTRIES`` pairs, and each hit
    is mapped to its (row, col) by index arithmetic. The CSR arrays come from
    the sorted edge keys row * n + col, so memory stays O(edges) and no dense
    block is ever formed; every weight is the one mass 1/n, stored once. No
    self-loops.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if int(n) ** 2 > np.iinfo(np.int64).max:
        raise ValueError(f"n={n} is too large: the edge keys row * n + col must fit in int64")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.Generator(np.random.Philox(seed))
    upper = []
    for lo, hi in _row_blocks(n * np.arange(n + 1)):
        # pair (i, j), i < j, of rows lo..hi-1 is draw first[i - lo] + j - i - 1 of the block
        i = np.arange(lo, hi)
        first = np.concatenate([[0], np.cumsum(n - 1 - i)])
        hit = np.flatnonzero(rng.random(first[-1]) < p)
        r = np.searchsorted(first, hit, side="right") - 1
        head = r + lo
        tail = hit - first[r] + head + 1
        upper.append(head * n + tail)  # each edge once, tail > head
    m = sum(part.size for part in upper)
    keys = np.empty(2 * m, dtype=np.int64)  # both orientations of every edge
    _drained(upper, out=keys[:m])
    for lo in range(0, m, _BLOCK_ENTRIES):  # the transposes tail * n + head, block by block
        head, tail = np.divmod(keys[lo:min(m, lo + _BLOCK_ENTRIES)], n)
        keys[m + lo:m + lo + head.size] = tail * n + head
    keys.sort()
    space = uniform_space(n)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    cols = np.remainder(keys, n, out=keys)
    weights = np.broadcast_to(space.weights[0], cols.shape)
    return _sealed(space, indptr, cols, weights, f"er(n={n},p={p},seed={seed})")


def adjacency_matrix(system: CoupledSystem) -> np.ndarray:
    """Recover the kernel values w_ij / mu_j as a dense matrix."""
    m = system.dense()
    m /= system.space.weights[None, :]
    return m
