"""Symmetric coupling kernels W(x, y) with values in [0, 1].

Variants: constant, block (piecewise constant on a partition of the unit
interval, which covers embedded finite graphs), geodesic (indicator of
geodesic distance <= delta on the circle, torus, or sphere), and explicit
matrix W[i, j], read by node position on any n-node space. Kernels are
immutable and keep read-only copies of their arrays. Each defines W once:
in ``_table``, where points x (a, d) and y (b, d) give the (a, b) matrix of
W(x_i, y_j), or, for the matrix, in the row blocks ``eval_rows`` that
discretization and ``matrix`` read. ``kernel_from_spec`` parses every spec.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, config_field
from .space import IndexSpace, _frozen


def _unit_symmetric(values, what: str) -> np.ndarray:
    """Values as a square symmetric float matrix with entries in [0, 1]."""
    m = np.asarray(values, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{what} must be a square matrix")
    if not np.array_equal(m, m.T):
        raise ValueError(f"{what} must be symmetric")
    if np.min(m) < 0.0 or np.max(m) > 1.0:
        raise ValueError(f"{what} entries must lie in [0, 1]")
    return _frozen(m)


class Kernel:
    """Base class; subclasses fix geometry compatibility and define W in ``_table``."""

    geometry: str | None = None  # None means any geometry
    dim: int | None = None

    def _table(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """W(x_i, y_j) for float points x (a, d) and y (b, d), as an (a, b) matrix."""
        raise NotImplementedError

    def eval_rows(self, space: IndexSpace, lo: int, hi: int) -> np.ndarray:
        """Rows W(x_i, .) for lo <= i < hi as a fresh array; callers check the space."""
        return self._table(space.coords[lo:hi], space.coords)

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


class ConstantKernel(Kernel):
    """W(x, y) = c on any index space."""

    def __init__(self, value: float):
        value = float(value)
        if not 0.0 <= value <= 1.0:
            raise ValueError("constant kernel value must lie in [0, 1]")
        self.value = value

    def _table(self, x, y):
        return np.full((len(x), len(y)), self.value)


class MatrixKernel(Kernel):
    """Explicit symmetric values W[i, j], read by node position on any n-node space: a
    finite weighted graph, whose graphop is its ``discretize`` rows w_ij = W[i, j] mu_j."""

    def __init__(self, values):
        self.values = _unit_symmetric(values, "matrix kernel")

    def check_space(self, space):
        if space.n != self.values.shape[0]:
            raise ValueError("matrix kernel size does not match the space")

    def eval_rows(self, space, lo, hi):
        return self.values[lo:hi].copy()  # fresh: ``matrix`` hands back a writable array


class BlockKernel(Kernel):
    """Piecewise-constant kernel on a partition of the unit interval.

    ``boundaries`` is an increasing array from 0 to 1 delimiting the cells,
    ``values`` the symmetric cell-by-cell coupling matrix.
    """

    geometry = "interval"
    dim = 1

    def __init__(self, boundaries, values):
        boundaries = _frozen(boundaries).reshape(-1)
        values = _unit_symmetric(values, "block matrix")
        k = boundaries.size - 1
        if k < 1 or boundaries[0] != 0.0 or boundaries[-1] != 1.0:
            raise ConfigError("boundaries", "must start at 0 and end at 1")
        if not np.all(np.diff(boundaries) > 0):  # also False for NaN
            raise ConfigError("boundaries", "must be strictly increasing")
        if values.shape != (k, k):
            raise ValueError("block matrix shape must match the cell count")
        self.boundaries = boundaries
        self.values = values

    def _table(self, x, y):
        cells = [np.clip(np.searchsorted(self.boundaries, p[:, 0], side="right") - 1,
                         0, self.values.shape[0] - 1) for p in (x, y)]
        return self.values[np.ix_(*cells)]


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
        if not delta > 0:  # also False for NaN
            raise ConfigError("delta", f"must be positive, got {delta!r}")
        if geometry not in ("interval", "torus", "sphere2"):
            raise ValueError(f"geodesic kernel does not support geometry {geometry!r}")
        fixed = {"interval": 1, "sphere2": 3}.get(geometry)  # torus: any dim, default 2
        if dim is not None and (dim < 1 or fixed not in (None, dim)):
            raise ConfigError("dim", f"geodesic kernel on {geometry} needs dim "
                                     f"{fixed or '>= 1'}, got {dim!r}")
        self.dim = fixed or (2 if dim is None else dim)
        self.geometry = geometry
        self.delta = float(delta)

    def _near(self, a, b):
        """Per-axis ball of the circle and the torus: arc distance <= delta, with the slack.

        The max-metric ball is the product of these, so ``_table`` and the product-grid
        builder of ``systems.discretize`` both read W from here.
        """
        return circle_distance(a, b) <= self.delta + self._TIE_TOL

    def _table(self, x, y):
        x, y = x[:, None, :], y[None, :, :]
        if self.geometry == "sphere2":
            d = np.arccos(np.clip(np.sum(x * y, axis=-1), -1.0, 1.0))
            return (d <= self.delta + self._TIE_TOL).astype(np.float64)
        inside = self._near(x[..., 0], y[..., 0])
        for k in range(1, self.dim):  # one axis at a time: no (a, b, dim) temporary
            inside &= self._near(x[..., k], y[..., k])
        return inside.astype(np.float64)


def canonical_embedding(adjacency) -> BlockKernel:
    """Block kernel on the unit interval with n equal cells valued A[k, j].

    Accepts 0/1 adjacency matrices and, more generally, symmetric weight
    matrices with entries in [0, 1].
    """
    a = np.asarray(adjacency, dtype=np.float64)  # BlockKernel checks it as its block matrix
    n = max([1, *a.shape[:1]])  # 1 for a 0-d or empty input, which BlockKernel rejects
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
