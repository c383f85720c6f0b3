"""Fiber-measure systems.

A fiber system assigns each node a measure nu_i on the node set, stored as
the rows of a :class:`~graphlim.systems.CoupledSystem`. A weighted graph's
graphop is nu_i = W(i, .) mu, which ``discretize`` builds from a
``MatrixKernel``. Fibers need not have that form: the spherical graphop,
which no kernel gives, places uniform probability mass on the discretized
great circle orthogonal to each node. They plug into ``dynamics.integrate``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFiberError
from .kernels import MatrixKernel
from .space import IndexSpace
from .systems import CoupledSystem, _row_blocks, _sealed, discretize


def graphop_from_weighted(values, space: IndexSpace, label: str = "graphop") -> CoupledSystem:
    """Fibers nu_i = W(i, .) mu from a symmetric weight matrix on a space of any geometry.

    ``discretize(MatrixKernel(values), space, label)``: the matrix must be symmetric with
    entries in [0, 1] and one row per node; zero-mass entries are dropped.
    """
    return discretize(MatrixKernel(values), space, label)


def _max_grid_spacing(space: IndexSpace) -> float:
    counts = np.array(space.band_counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("space has no latitude band structure; pass band_halfwidth")
    nb = counts.size
    radial = math.pi / nb
    radii = np.sin((np.arange(nb) + 0.5) * math.pi / nb)
    azimuthal = float(np.max(2.0 * math.pi * radii / counts))
    return max(radial, azimuthal)


def spherical_graphop(space: IndexSpace, band_halfwidth: float | None = None,
                      label: str = "spherical-graphop") -> CoupledSystem:
    """Uniform probability on each discretized great circle.

    The fiber of node x collects the grid nodes y with |<x, y>| <=
    band_halfwidth, weighted by their masses and renormalized to total mass
    one. The default halfwidth is 1.5 times the maximal grid spacing, which
    keeps every fiber nonempty on a band grid; a too-small halfwidth raises
    DegenerateFiberError listing the offending nodes.
    """
    if space.geometry != "sphere2":
        raise ValueError("spherical graphop needs a sphere2 space")
    eps = band_halfwidth if band_halfwidth is not None else 1.5 * _max_grid_spacing(space)
    if not eps > 0:
        raise ValueError("band_halfwidth must be positive")
    coords, mu, n = space.coords, space.weights, space.n
    # pass 1 keeps the bit-packed band (n^2/8 bytes), row lengths and masses; pass 2 fills the CSR
    blocks = _row_blocks(n * np.arange(n + 1))
    indptr, mass, packed = np.zeros(n + 1, dtype=np.int64), np.empty(n), []
    for lo, hi in blocks:
        # one gemv per row, the bits of coords @ coords[i]; a gemm rounds some dots otherwise
        dots = coords @ coords[lo:hi, :, None]
        band = np.abs(dots, out=dots)[..., 0] <= eps
        mass[lo:hi] = [math.fsum(mu[row].tolist()) for row in band]  # exactly rounded
        indptr[lo + 1:hi + 1] = np.count_nonzero(band, axis=1)
        packed.append(np.packbits(band))
    empty = np.flatnonzero(indptr[1:] == 0).tolist()
    if empty:
        raise DegenerateFiberError(
            f"band halfwidth {eps} leaves {len(empty)} empty fibers", nodes=empty
        )
    np.cumsum(indptr, out=indptr)
    indices, weights = np.empty(indptr[-1], dtype=np.int64), np.empty(indptr[-1])
    for (lo, hi), bits in zip(blocks, packed):
        flat = np.flatnonzero(np.unpackbits(bits, count=(hi - lo) * n).view(bool))  # row-major
        at = slice(indptr[lo], indptr[hi])
        np.remainder(flat, n, out=indices[at])
        np.divide(mu[indices[at]], mass[lo + flat // n], out=weights[at])
    return _sealed(space, indptr, indices, weights, label)
