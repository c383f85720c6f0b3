"""Finite weighted index spaces.

An :class:`IndexSpace` is a finite probability space whose points carry
geometric coordinates: plain indices ("abstract"), midpoints of the unit
interval, a product grid on the d-torus, or a latitude-band grid on the
unit sphere. All constructors are pure and the resulting object is
immutable, so spaces can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

GEOMETRIES = ("abstract", "interval", "torus", "sphere2")

_WEIGHT_TOL = 1e-12


def _frozen(a, dtype=np.float64) -> np.ndarray:
    """``a`` as a read-only C-contiguous ``dtype`` array.

    Where the conversion hands back the caller's own memory (``a`` itself or a view) and
    it is writable, the result is a copy, so the caller's array stays writable and its
    later writes reach no space or system. A read-only input is kept, not copied; so is
    a read-only zero-stride ``dtype`` vector (``np.broadcast_to`` of one value), which
    a contiguous copy would expand to one value per entry.
    """
    if (isinstance(a, np.ndarray) and a.dtype == dtype and a.strides == (0,)
            and not a.flags.writeable):
        return a
    out = np.ascontiguousarray(a, dtype=dtype)
    if out.flags.writeable and (out is a or not out.flags.owndata):
        out = out.copy()
    out.setflags(write=False)
    return out


def _index_array(values, what: str) -> np.ndarray:
    """``values`` as a new int64 array. A boolean or non-integral entry raises ValueError,
    where a plain cast would read 1.7 and True as 1."""
    a = np.asarray(values)
    cells = () if isinstance(values, np.ndarray) else np.asarray(values, object).ravel().tolist()
    with np.errstate(invalid="ignore"):  # nan and inf cast to garbage, caught below
        t = a.astype(np.int64, order="C") if a.dtype.kind in "iuf" else None
    if t is None or not np.array_equal(t, a) or any(isinstance(v, bool) for v in cells):
        raise ValueError(f"{what} must be integers, not booleans or fractions")
    return t


@dataclass(frozen=True)
class IndexSpace:
    """Finite probability space with node coordinates.

    Attributes:
        geometry: one of ``abstract``, ``interval``, ``torus``, ``sphere2``.
        coords: (n, d) array of node coordinates. Abstract spaces store the
            node index itself; interval/torus coordinates lie in [0, 1);
            sphere2 coordinates are unit 3-vectors.
        weights: (n,) strictly positive masses summing to 1.
        resolution: grid shape used to build the space, empty otherwise.
        band_counts: nodes per latitude band for sphere grids.
    """

    geometry: str
    coords: np.ndarray
    weights: np.ndarray
    resolution: tuple = ()
    band_counts: tuple = ()

    def __post_init__(self):
        if self.geometry not in GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        coords = np.atleast_2d(_frozen(self.coords))
        weights = _frozen(self.weights).reshape(-1)
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "resolution", tuple(int(r) for r in self.resolution))
        object.__setattr__(self, "band_counts", tuple(int(c) for c in self.band_counts))
        n = coords.shape[0]
        if n < 1:
            raise ValueError("index space needs at least one node")
        if weights.shape != (n,):
            raise ValueError("coords and weights must have matching length")
        if not np.all(weights > 0):
            raise ValueError("weights must be strictly positive")
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1 within {_WEIGHT_TOL}")
        self._check_coords()

    def _check_coords(self):
        c = self.coords
        if self.geometry == "interval":
            if c.shape[1] != 1 or np.any(c < 0) or np.any(c >= 1):
                raise ValueError("interval coordinates must be scalars in [0, 1)")
        elif self.geometry == "torus":
            if np.any(c < 0) or np.any(c >= 1):
                raise ValueError("torus coordinates must lie in [0, 1) per dimension")
        elif self.geometry == "sphere2":
            if c.shape[1] != 3:
                raise ValueError("sphere2 coordinates must be 3-vectors")
            norms = np.linalg.norm(c, axis=1)
            if np.max(np.abs(norms - 1.0)) > _WEIGHT_TOL:
                raise ValueError("sphere2 coordinates must be unit vectors")

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


def make_finite_space(weights) -> IndexSpace:
    """Abstract n-point space with the given (unnormalized) masses.

    Node coordinates are the indices 0..n-1. Raises ValueError for an
    empty list or nonpositive entries.
    """
    w = np.asarray(weights, dtype=np.float64).reshape(-1)
    if w.size == 0:
        raise ValueError("weights must be nonempty")
    if not np.all(w > 0):
        raise ValueError("weights must be strictly positive")
    total = math.fsum(w.tolist())
    w = w / total
    coords = np.arange(w.size, dtype=np.float64).reshape(-1, 1)
    return IndexSpace("abstract", coords, w, resolution=(w.size,))


def uniform_space(n: int) -> IndexSpace:
    """Abstract n-point space with uniform masses 1/n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return make_finite_space(np.ones(n))


def make_grid_space(geometry: str, resolution, *, bands: int | None = None,
                    symmetry_order: int = 1) -> IndexSpace:
    """Uniform grid on the interval or torus, or a band grid on the sphere.

    interval: ``resolution=(n,)`` midpoints (k+1/2)/n with uniform masses.
    torus: product grid k_i/n_i over ``resolution=(n_1,..,n_d)``, uniform.
    sphere2: ``resolution=(target,)`` total node count; nodes sit on
    latitude bands in numbers proportional to the band circumference and
    carry the band's area share split evenly. ``bands`` overrides the band
    count (odd counts recommended) and ``symmetry_order`` forces every band
    population to a multiple of m so the rotation by 2*pi/m permutes the
    grid exactly; it requires m to divide the target. Resolution entries are
    whole numbers, not booleans or fractions.
    """
    if geometry not in ("interval", "torus", "sphere2"):
        raise ValueError(f"unsupported grid geometry {geometry!r}")
    res = _index_array(resolution, "resolution")
    if res.ndim > 1 or res.size == 0 or geometry != "torus" and res.size != 1:
        count = "at least one entry" if geometry == "torus" else "exactly one entry"
        raise ValueError(f"{geometry} resolution must be a flat list of {count}, "
                         f"got {resolution!r}")
    resolution = tuple(np.atleast_1d(res).tolist())
    if any(r < 1 for r in resolution):
        raise ValueError("resolution entries must be at least 1")
    if geometry == "interval":
        (n,) = resolution
        coords = ((np.arange(n) + 0.5) / n).reshape(-1, 1)
        return IndexSpace("interval", coords, np.full(n, 1.0 / n), resolution=resolution)
    if geometry == "torus":
        axes = [np.arange(n) / n for n in resolution]
        mesh = np.meshgrid(*axes, indexing="ij")
        coords = np.stack([m.reshape(-1) for m in mesh], axis=1)
        n = coords.shape[0]
        return IndexSpace("torus", coords, np.full(n, 1.0 / n), resolution=resolution)
    (target,) = resolution
    return _sphere_band_grid(target, bands, symmetry_order)


def _default_band_count(target: int) -> int:
    b = int(round(math.sqrt(math.pi * target) / 2.0))
    b = max(1, b)
    if b % 2 == 0:
        b += 1
    return b


def _apportion_bands(target: int, sines: np.ndarray, m: int) -> np.ndarray:
    """Distribute ``target`` nodes over bands proportionally to ``sines``.

    Counts are multiples of m, at least m each, mirror-symmetric, and sum
    exactly to target. Works in units of m; pairs of mirrored bands adjust
    together and an odd middle band absorbs the remainder.
    """
    nbands = sines.size
    if target % m != 0:
        raise ValueError(f"symmetry order {m} must divide the target node count {target}")
    units_target = target // m
    if units_target < nbands:
        raise ValueError("target too small for the requested band count")
    quota = units_target * sines / math.fsum(sines.tolist())
    units = np.maximum(1, np.rint(quota)).astype(np.int64)
    half = nbands // 2
    units[nbands - 1 - np.arange(half)] = units[:half]
    mid = half if nbands % 2 == 1 else None

    def deficit(b):
        return quota[b] - units[b]

    guard = 0
    while True:
        d = units_target - int(units.sum())
        if d == 0:
            break
        guard += 1
        if guard > 10 * nbands + abs(d) + 100:
            raise ValueError("band apportionment failed to converge")
        step = 1 if d > 0 else -1
        if mid is not None and (d % 2 != 0 or abs(d) == 1):
            if units[mid] + step >= 1:
                units[mid] += step
                continue
        pairs = [b for b in range(half) if step > 0 or units[b] > 1]
        if pairs and abs(d) >= 2:
            key = max if step > 0 else min
            b = key(pairs, key=deficit)
            units[b] += step
            units[nbands - 1 - b] += step
            continue
        if mid is not None and units[mid] + step >= 1:
            units[mid] += step
            continue
        raise ValueError("cannot reach the target node count with these band constraints")
    return units * m


def _sphere_band_grid(target: int, bands: int | None, symmetry_order: int) -> IndexSpace:
    if symmetry_order < 1:
        raise ValueError("symmetry_order must be at least 1")
    if bands is not None:
        nbands = int(bands)
    else:
        nbands = min(_default_band_count(target), max(1, target // symmetry_order))
    if nbands < 1:
        raise ValueError("need at least one band")

    # Mirrored tables: the southern half reuses the northern floats with the
    # z sign flipped, so the reflection z -> -z is an exact grid permutation.
    half = nbands // 2
    theta = (np.arange(nbands) + 0.5) * math.pi / nbands
    z = np.empty(nbands)
    r = np.empty(nbands)
    z[:half] = np.cos(theta[:half])
    r[:half] = np.sin(theta[:half])
    z[nbands - 1 - np.arange(half)] = -z[:half]
    r[nbands - 1 - np.arange(half)] = r[:half]
    if nbands % 2 == 1:
        z[half] = 0.0
        r[half] = 1.0

    counts = _apportion_bands(target, r, symmetry_order)

    edges = np.arange(nbands + 1) * math.pi / nbands
    share = np.empty(nbands)
    share[:half] = (np.cos(edges[:half]) - np.cos(edges[1 : half + 1])) / 2.0
    share[nbands - 1 - np.arange(half)] = share[:half]
    if nbands % 2 == 1:
        share[half] = (np.cos(edges[half]) - np.cos(edges[half + 1])) / 2.0

    coords = []
    weights = []
    for b in range(nbands):
        c = counts[b]
        az = 2.0 * math.pi * np.arange(c) / c
        x = r[b] * np.cos(az)
        y = r[b] * np.sin(az)
        coords.append(np.stack([x, y, np.full(c, z[b])], axis=1))
        weights.append(np.full(c, share[b] / c))
    coords = np.concatenate(coords, axis=0)
    weights = np.concatenate(weights)
    weights = weights / math.fsum(weights.tolist())
    # Renormalize the unit vectors; cos^2+sin^2 drifts by a few ulp.
    coords = coords / np.linalg.norm(coords, axis=1, keepdims=True)
    return IndexSpace(
        "sphere2",
        coords,
        weights,
        resolution=(target,),
        band_counts=tuple(int(c) for c in counts),
    )
