"""Symmetric coupling kernels W(x, y) with values in [0, 1].

Variants: constant, block (piecewise constant on a partition of the unit
interval, which covers embedded finite graphs), geodesic (indicator of
geodesic distance <= delta on the circle, torus, or sphere), explicit
matrix on an abstract space, and user-supplied evaluators. Kernels are
immutable; ``evaluate`` is the pointwise contract and ``eval_rows`` the
vectorized one used by discretization. ``kernel_from_spec`` is the one
parser of kernel specs, behind both ``kernel_from_json`` and the CLI.
"""

from __future__ import annotations

import functools
import json

import numpy as np

from .errors import ConfigError, config_field
from .space import IndexSpace


def _unit_symmetric(values, what: str) -> np.ndarray:
    """Values as a square symmetric float matrix with entries in [0, 1]."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.array_equal(m, m.T):
        raise ValueError(f"{what} must be symmetric")
    if np.min(m) < 0.0 or np.max(m) > 1.0:
        raise ValueError(f"{what} entries must lie in [0, 1]")
    return m


def _point_dim(geometry: str, dim: int | None, what: str) -> int:
    """Coordinate count: 1 on the interval, 3 on the sphere, dim (default 2) on the torus."""
    if geometry not in ("interval", "torus", "sphere2"):
        raise ValueError(f"{what} does not support geometry {geometry!r}")
    return {"interval": 1, "sphere2": 3}.get(geometry, 2 if dim is None else dim)


class Kernel:
    """Base class; subclasses fix geometry compatibility and evaluation."""

    geometry: str | None = None  # None means any geometry
    dim: int | None = None

    def evaluate(self, x, y) -> float:
        raise NotImplementedError

    def eval_rows(self, space: IndexSpace, lo: int, hi: int) -> np.ndarray:
        """Rows W(x_i, .) for lo <= i < hi; callers check the space, subclasses vectorize."""
        c = space.coords
        return np.array([[self.evaluate(c[i], y) for y in c] for i in range(lo, hi)])

    def matrix(self, space: IndexSpace) -> np.ndarray:
        self.check_space(space)
        return self.eval_rows(space, 0, space.n)

    def check_space(self, space: IndexSpace):
        if self.geometry is not None and space.geometry != self.geometry:
            raise ValueError(
                f"kernel expects geometry {self.geometry!r}, space has {space.geometry!r}"
            )
        if self.dim is not None and space.dim != self.dim:
            raise ValueError(f"kernel expects dimension {self.dim}, space has {space.dim}")

    def to_json(self) -> str:
        raise ValueError(f"{type(self).__name__} does not serialize")


class ConstantKernel(Kernel):
    """W(x, y) = c on any index space."""

    def __init__(self, value: float):
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError("constant kernel value must lie in [0, 1]")
        self.value = value

    def evaluate(self, x, y) -> float:
        return self.value

    def eval_rows(self, space, lo, hi):
        return np.full((hi - lo, space.n), self.value)

    def to_json(self):
        return json.dumps({"variant": "constant", "value": self.value})


class MatrixKernel(Kernel):
    """Explicit symmetric values W[i, j] on an abstract n-point space."""

    geometry = "abstract"

    def __init__(self, values):
        self.values = _unit_symmetric(values, "matrix kernel")

    def check_space(self, space):
        super().check_space(space)
        if space.n != self.values.shape[0]:
            raise ValueError("matrix kernel size does not match the space")

    def evaluate(self, x, y) -> float:
        return float(self.values[int(np.asarray(x).reshape(-1)[0]),
                                 int(np.asarray(y).reshape(-1)[0])])

    def eval_rows(self, space, lo, hi):
        return self.values[lo:hi].copy()

    def to_json(self):
        return json.dumps({"variant": "matrix", "values": self.values.tolist()})


class BlockKernel(Kernel):
    """Piecewise-constant kernel on a partition of the unit interval.

    ``boundaries`` is an increasing array from 0 to 1 delimiting the cells,
    ``values`` the symmetric cell-by-cell coupling matrix.
    """

    geometry = "interval"

    def __init__(self, boundaries, values):
        boundaries = np.asarray(boundaries, dtype=np.float64).reshape(-1)
        values = _unit_symmetric(values, "block matrix")
        k = boundaries.size - 1
        if k < 1 or boundaries[0] != 0.0 or boundaries[-1] != 1.0:
            raise ValueError("boundaries must start at 0 and end at 1")
        if np.any(np.diff(boundaries) <= 0):
            raise ValueError("boundaries must be strictly increasing")
        if values.shape != (k, k):
            raise ValueError("block matrix shape must match the cell count")
        self.boundaries = boundaries
        self.values = values

    def _cell(self, x) -> np.ndarray:
        idx = np.searchsorted(self.boundaries, x, side="right") - 1
        return np.clip(idx, 0, self.values.shape[0] - 1)

    def evaluate(self, x, y) -> float:
        cx = self._cell(float(np.asarray(x).reshape(-1)[0]))
        cy = self._cell(float(np.asarray(y).reshape(-1)[0]))
        return float(self.values[cx, cy])

    def eval_rows(self, space, lo, hi):
        cells = self._cell(space.coords[:, 0])
        return self.values[np.ix_(cells[lo:hi], cells)]

    def to_json(self):
        return json.dumps({
            "variant": "block",
            "boundaries": self.boundaries.tolist(),
            "values": self.values.tolist(),
        })


def circle_distance(a, b):
    """Distance on the circle of unit circumference, values in [0, 1/2]."""
    d = np.abs(np.asarray(a) - np.asarray(b))
    return np.minimum(d, 1.0 - d)


class GeodesicKernel(Kernel):
    """Indicator of geodesic distance <= delta (closed ball).

    The circle and the torus use coordinates in [0, 1) with the product
    max-metric (arc distance for one dimension); the sphere uses arc length
    between unit vectors. Pairs sitting exactly on the ball boundary count
    as connected; the comparison carries a 1e-12 slack so that grid pairs
    whose true distance equals delta are included consistently despite
    coordinate rounding.
    """

    _TIE_TOL = 1e-12

    def __init__(self, geometry: str, delta: float, dim: int | None = None):
        if delta <= 0:
            raise ValueError("delta must be positive")
        self.dim = _point_dim(geometry, dim, "geodesic kernel")
        self.geometry = geometry
        self.delta = float(delta)

    def _distance(self, x, y):
        """Distances between points x (..., dim) and y (..., dim), broadcast."""
        if self.geometry == "sphere2":
            dot = np.clip(np.sum(x * y, axis=-1), -1.0, 1.0)
            return np.arccos(dot)
        # max-metric folded one axis at a time: no (..., dim) temporary
        d = circle_distance(x[..., 0], y[..., 0])
        for k in range(1, self.dim):
            d = np.maximum(d, circle_distance(x[..., k], y[..., k]))
        return d

    def evaluate(self, x, y) -> float:
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if x.shape != (self.dim,) or y.shape != (self.dim,):
            raise ValueError(f"points must have dimension {self.dim}")
        d = self._distance(x, y)
        return 1.0 if d <= self.delta + self._TIE_TOL else 0.0

    def eval_rows(self, space, lo, hi):
        d = self._distance(space.coords[lo:hi, None, :], space.coords[None, :, :])
        return (d <= self.delta + self._TIE_TOL).astype(np.float64)

    def to_json(self):
        return json.dumps({
            "variant": "geodesic",
            "geometry": self.geometry,
            "dim": self.dim,
            "delta": self.delta,
        })


class CustomKernel(Kernel):
    """Wraps a user evaluator f(x, y) -> [0, 1].

    The evaluator must be symmetric; construction samples 100 random point
    pairs of the declared geometry and rejects evaluators that break
    symmetry or range. Evaluators must be pure.
    """

    _SYMMETRY_SAMPLES = 100

    def __init__(self, fn, geometry: str, dim: int | None = None):
        self.dim = _point_dim(geometry, dim, "custom kernel")
        self.fn = fn
        self.geometry = geometry
        self._verify()

    def _sample_points(self, rng, k):
        if self.geometry == "sphere2":
            v = rng.normal(size=(k, 3))
            return v / np.linalg.norm(v, axis=1, keepdims=True)
        return rng.random((k, self.dim))

    def _verify(self):
        rng = np.random.Generator(np.random.Philox(0))
        xs = self._sample_points(rng, self._SYMMETRY_SAMPLES)
        ys = self._sample_points(rng, self._SYMMETRY_SAMPLES)
        for x, y in zip(xs, ys):
            a = float(self.fn(x, y))
            b = float(self.fn(y, x))
            if abs(a - b) > 1e-12:
                raise ValueError("custom kernel evaluator is not symmetric")
            if not -1e-12 <= a <= 1.0 + 1e-12:
                raise ValueError("custom kernel value outside [0, 1]")

    def evaluate(self, x, y) -> float:
        return float(self.fn(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)))


def canonical_embedding(adjacency) -> BlockKernel:
    """Block kernel on the unit interval with n equal cells valued A[k, j].

    Accepts 0/1 adjacency matrices and, more generally, symmetric weight
    matrices with entries in [0, 1].
    """
    a = _unit_symmetric(adjacency, "adjacency")
    n = a.shape[0]
    boundaries = np.arange(n + 1, dtype=np.float64) / n
    boundaries[-1] = 1.0
    return BlockKernel(boundaries, a)


def geodesic_kernel(geometry: str, delta: float, dim: int | None = None) -> GeodesicKernel:
    """Indicator kernel of geodesic distance <= delta; see GeodesicKernel."""
    return GeodesicKernel(geometry, delta, dim=dim)


def kernel_from_spec(spec: dict) -> Kernel:
    """Build a kernel from a spec dict such as ``{"variant": "constant", "value": 0.5}``.

    Variants and their fields: ``constant`` (value), ``matrix`` (values),
    ``block`` (boundaries, values), ``canonical`` (adjacency), ``geodesic``
    (geometry, delta, optional dim). A missing or mistyped field raises
    :class:`~graphlim.errors.ConfigError`, a ValueError naming the field.
    """
    get = functools.partial(config_field, spec)
    number = (int, float)
    variant = get("variant", str)
    if variant == "constant":
        return ConstantKernel(get("value", number))
    if variant == "matrix":
        return MatrixKernel(get("values", list))
    if variant == "block":
        return BlockKernel(get("boundaries", list), get("values", list))
    if variant == "canonical":
        return canonical_embedding(get("adjacency", list))
    if variant == "geodesic":
        return GeodesicKernel(get("geometry", str), get("delta", number),
                              dim=get("dim", int, None))
    raise ConfigError("variant", f"unknown kernel variant {variant!r}")


def kernel_from_json(text: str) -> Kernel:
    """Parse a JSON kernel spec; see :func:`kernel_from_spec`."""
    spec = json.loads(text)
    if not isinstance(spec, dict):
        raise ValueError("kernel spec must be a JSON object")
    return kernel_from_spec(spec)
