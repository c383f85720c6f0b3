"""Fiber-measure systems.

A fiber system assigns each node a measure nu_i on the node set, stored as
the rows of a :class:`~graphlim.systems.CoupledSystem`. Unlike
kernel-derived rows, fibers need not have the form W(x_i, .) mu; the
spherical construction places uniform probability mass on the discretized
great circle orthogonal to each node. Fiber systems plug into
``dynamics.integrate`` unchanged.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateFiberError
from .kernels import _unit_symmetric
from .space import IndexSpace
from .systems import CoupledSystem, _from_row_blocks, from_rows


def graphop_from_weighted(values, space: IndexSpace, label: str = "graphop") -> CoupledSystem:
    """Fibers nu_i = W(i, .) mu from a symmetric weight matrix.

    The matrix must be symmetric with entries in [0, 1]; zero-mass entries
    are dropped.
    """
    w = _unit_symmetric(values, "weight matrix")
    if w.shape != (space.n, space.n):
        raise ValueError("weight matrix shape does not match the space")
    return _from_row_blocks(space, lambda lo, hi: w[lo:hi] * space.weights, label)


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
    if eps <= 0:
        raise ValueError("band_halfwidth must be positive")
    coords = space.coords
    mu = space.weights
    rows = []
    empty = []
    for i in range(space.n):
        dots = coords @ coords[i]
        keep = np.nonzero(np.abs(dots) <= eps)[0]
        if keep.size == 0:
            empty.append(i)
            rows.append((keep, np.zeros(0)))
            continue
        masses = mu[keep]
        masses = masses / math.fsum(masses.tolist())
        rows.append((keep, masses))
    if empty:
        raise DegenerateFiberError(
            f"band halfwidth {eps} leaves {len(empty)} empty fibers", nodes=empty
        )
    return from_rows(space, rows, label=label, fiber_normalization="probability")
