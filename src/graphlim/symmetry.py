"""Index maps, pullbacks, automorphism checks, and symmetry audits.

An :class:`IndexMap` is a self-map of node indices; its pullback acts on
states by (phi* u)_i = u[phi(i)]. Maps need not be invertible. The module
also provides constructors for the standard grid maps (shifts, flips,
rotations, reflections, index scalings) and the audit routines that
measure how well a candidate symmetry commutes with the flow or how far a
trajectory drifts from an invariant subspace.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .dynamics import ModelFunctions, integrate
from .norms import l1_distance
from .space import IndexSpace
from .systems import CoupledSystem


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
class IndexMap:
    """Self-map of node indices: targets[i] = phi(i); ``invertible`` is set once."""

    targets: np.ndarray
    invertible: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t = _index_array(self.targets, "map targets")
        object.__setattr__(self, "targets", t)
        n = t.size
        if t.ndim != 1:
            raise ValueError("map targets must be a 1-D array")
        if n < 1:
            raise ValueError("index map needs at least one node")
        if t.min() < 0 or t.max() >= n:
            raise ValueError("map targets out of range")
        object.__setattr__(self, "invertible", bool(np.bincount(t, minlength=n).max() == 1))
        t.setflags(write=False)  # after bincount, which would copy a read-only input

    @property
    def n(self) -> int:
        return self.targets.size


def identity_map(n: int) -> IndexMap:
    return IndexMap(np.arange(n))


def permutation_map(targets) -> IndexMap:
    m = IndexMap(targets)
    if not m.invertible:
        raise ValueError("targets do not form a permutation")
    return m


def _check_index(value: int, size: int, what: str) -> None:
    """Reject ``value`` outside [0, size): numpy would wrap a negative one."""
    if not 0 <= value < size:
        raise ValueError(f"{what} {value} is out of range [0, {size})")


def swap_map(n: int, i: int, j: int) -> IndexMap:
    """Transposition of nodes i and j, both in [0, n)."""
    _check_index(i, n, "swap index i")
    _check_index(j, n, "swap index j")
    t = np.arange(n)
    t[i], t[j] = t[j], t[i]
    return IndexMap(t)


def scaling_map(space: IndexSpace, factor: int) -> IndexMap:
    """i -> factor * i mod n; factor 2 is the classical doubling map."""
    n = space.n
    return IndexMap((int(factor) * np.arange(n)) % n)


def interval_reflection_map(space: IndexSpace) -> IndexMap:
    """x -> 1 - x on a midpoint grid: index i -> n-1-i."""
    if space.geometry not in ("interval", "abstract"):
        raise ValueError("reflection map needs an interval or abstract space")
    return IndexMap(np.arange(space.n)[::-1].copy())


def _grid_indices(space: IndexSpace) -> np.ndarray:
    res = space.resolution
    return np.stack(np.unravel_index(np.arange(space.n), res), axis=1)


def grid_shift_map(space: IndexSpace, steps) -> IndexMap:
    """Translation by one grid cell per axis entry, wrapping around."""
    if space.geometry not in ("interval", "torus"):
        raise ValueError("shift map needs an interval or torus grid")
    res = np.array(space.resolution)
    steps = np.atleast_1d(_index_array(steps, "shift steps"))
    if steps.size != res.size:
        raise ValueError("steps must match the grid dimension")
    idx = (_grid_indices(space) + steps[None, :]) % res[None, :]
    return IndexMap(np.ravel_multi_index(idx.T, tuple(res)))


def torus_flip_map(space: IndexSpace, axis: int) -> IndexMap:
    """Coordinate sign flip x_axis -> -x_axis on a torus grid, axis in [0, dim)."""
    if space.geometry != "torus":
        raise ValueError("flip map needs a torus grid")
    res = np.array(space.resolution)
    _check_index(axis, res.size, "flip axis")
    idx = _grid_indices(space).copy()
    idx[:, axis] = (res[axis] - idx[:, axis]) % res[axis]
    return IndexMap(np.ravel_multi_index(idx.T, tuple(res)))


def torus_rotation_map(space: IndexSpace) -> IndexMap:
    """Quarter turn (x, y) -> (-y, x) on a square 2-torus grid."""
    if space.geometry != "torus" or len(space.resolution) != 2:
        raise ValueError("rotation map needs a 2-dimensional torus grid")
    n1, n2 = space.resolution
    if n1 != n2:
        raise ValueError("rotation map needs a square grid")
    idx = _grid_indices(space)
    new = np.stack([(n1 - idx[:, 1]) % n1, idx[:, 0]], axis=1)
    return IndexMap(np.ravel_multi_index(new.T, (n1, n2)))


def _band_offsets(space: IndexSpace):
    counts = np.array(space.band_counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("space has no latitude band structure")
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return counts, offsets


def sphere_rotation_map(space: IndexSpace, steps: int = 1) -> IndexMap:
    """Rotation about the z axis by steps * 2*pi/g, g = gcd of band counts."""
    counts, offsets = _band_offsets(space)
    g = int(np.gcd.reduce(counts))
    t = np.empty(space.n, dtype=np.int64)
    for b, c in enumerate(counts):
        k = np.arange(c)
        t[offsets[b]:offsets[b + 1]] = offsets[b] + (k + steps * (c // g)) % c
    return IndexMap(t)


def sphere_reflection_map(space: IndexSpace) -> IndexMap:
    """z -> -z on a band grid: band b pairs with its mirror band."""
    counts, offsets = _band_offsets(space)
    nb = counts.size
    t = np.empty(space.n, dtype=np.int64)
    for b, c in enumerate(counts):
        mb = nb - 1 - b
        if counts[mb] != c:
            raise ValueError("band populations are not mirror-symmetric")
        t[offsets[b]:offsets[b + 1]] = offsets[mb] + np.arange(c)
    return IndexMap(t)


def pullback(imap: IndexMap, state: np.ndarray) -> np.ndarray:
    """(phi* u)_i = u[phi(i)]; also reindexes the rows of stacked states."""
    state = np.asarray(state)
    if state.shape[0] != imap.n:
        raise ValueError("state length does not match the map")
    return state[imap.targets]


# ---------------------------------------------------------------------------
# automorphism verification

VERDICTS = ("graphon_automorphism", "graphop_automorphism", "measure_preserving_only",
            "neither")
# Dense (row, column) slots per block of ``check_automorphism``: its buffer
# is 8 bytes a slot. Speed only; every size gives the same report.
_CHECK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class AutomorphismReport:
    """Outcome of the three structural checks for a candidate map.

    measure_preserving: pushed-forward node masses equal the original ones.
    adjacency_preserving: kernel values w_ij/mu_j survive the relabeling.
    fiber_preserving: pushed-forward rows equal the rows at the images.
    """

    invertible: bool
    measure_preserving: bool
    mass_discrepancy: float
    adjacency_preserving: bool
    adjacency_discrepancy: float
    fiber_preserving: bool
    fiber_discrepancy: float
    verdict: str

    def to_json(self) -> str:
        doc = {k: getattr(self, k) for k in (
            "invertible", "measure_preserving", "mass_discrepancy",
            "adjacency_preserving", "adjacency_discrepancy",
            "fiber_preserving", "fiber_discrepancy", "verdict")}
        return json.dumps(doc)


def _gathered_abs_max(buf: np.ndarray, keys: np.ndarray) -> float:
    """max |buf[keys]|, 0.0 for no keys."""
    values = buf[keys]
    return float(np.abs(values, out=values).max(initial=0.0))


def check_automorphism(system: CoupledSystem, imap: IndexMap, tol: float) -> AutomorphismReport:
    """Classify a candidate index map t against a coupled system.

    Verdicts: ``graphon_automorphism`` (invertible, measure preserving,
    adjacency preserving), ``graphop_automorphism`` (invertible, pushes
    every row onto the row at the image), ``measure_preserving_only``, or
    ``neither``. ``tol`` must be finite and nonnegative.

    With A[i, j] = w_ij / mu_j, the adjacency discrepancy is the largest
    |A[i, c] - A[t_i, t_c]| and the fiber discrepancy the largest entry of
    |t_* w_i - w_{t_i}|, over all rows i and columns. Only the union of the
    supports is visited; every other position compares 0 with 0. Rows go in
    blocks of ``_CHECK_ENTRIES // n`` rows that share one zeroed buffer,
    keyed ``r * n + column`` for row r of the block. Each pass writes the
    entries (c, w_ic) of the block's rows at ``t_c`` and the entries (k, v)
    of their image rows t_i at ``k``, reads both key sets and zeroes them
    again. A column k of row t_i meets a 0 in row i exactly when fewer
    entries of row i land on k than k has preimages; a count in the buffer
    finds those. Work is O(nnz(W) + nnz(W o t)) for any map, and transient
    memory O(``_CHECK_ENTRIES`` + n). Pushed rows are summed in entry order
    from 0.0 and |a - b| = |b - a|, so each discrepancy is bit for bit the
    one of a dense row-by-row comparison.
    """
    n = system.n
    if imap.n != n:
        raise ValueError("map size does not match the system")
    if not 0 <= tol <= sys.float_info.max:  # False for NaN
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    t = imap.targets
    mu = system.space.weights
    ptr, cols, w = system.indptr, system.indices, system.weights

    push = np.bincount(t, weights=mu, minlength=n)
    mass_disc = float(np.max(np.abs(push - mu)))
    mp_ok = mass_disc <= tol

    pre_cnt = np.bincount(t, minlength=n)
    deg = np.diff(ptr)
    step = min(n, max(1, _CHECK_ENTRIES // n))
    base = np.arange(step) * n
    buf = np.zeros(step * n)
    adj_disc = fib_disc = 0.0
    for lo in range(0, n, step):
        hi = min(n, lo + step)
        r, ti = base[:hi - lo], t[lo:hi]
        c, wc = cols[ptr[lo]:ptr[hi]], w[ptr[lo]:ptr[hi]]
        img_deg = deg[ti]
        ends = np.cumsum(img_deg)
        img = np.arange(ends[-1]) + np.repeat(ptr[ti] - ends + img_deg, img_deg)
        k, v = cols[img], w[img]
        pushed = np.repeat(r, deg[lo:hi]) + t[c]
        img_keys = np.repeat(r, img_deg) + k

        np.add.at(buf, pushed, wc)
        buf[img_keys] -= v
        fib_disc = max(fib_disc, _gathered_abs_max(buf, pushed),
                       _gathered_abs_max(buf, img_keys))
        buf[img_keys] = 0.0  # the count reads only these; the pushed keys are zeroed after it

        np.add.at(buf, pushed, 1.0)
        a_img = v / mu[k]
        missed = a_img[buf[img_keys] < pre_cnt[k]]
        buf[pushed] = 0.0
        buf[img_keys] = a_img
        a_own = wc / mu[c]
        a_own -= buf[pushed]
        adj_disc = max(adj_disc, float(np.abs(a_own, out=a_own).max(initial=0.0)),
                       float(missed.max(initial=0.0)))
        buf[img_keys] = 0.0
    adj_ok = adj_disc <= tol
    fib_ok = fib_disc <= tol

    inv = imap.invertible
    if inv and mp_ok and adj_ok:
        verdict = "graphon_automorphism"
    elif inv and fib_ok:
        verdict = "graphop_automorphism"
    elif mp_ok:
        verdict = "measure_preserving_only"
    else:
        verdict = "neither"
    return AutomorphismReport(inv, mp_ok, mass_disc, adj_ok, adj_disc,
                              fib_ok, fib_disc, verdict)


# ---------------------------------------------------------------------------
# fixed spaces, images, clusters


_NO_NODES = np.zeros(0, dtype=np.int64)


def _merge_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Label every node by the smallest node joined to it through pairs a[k] ~ b[k].

    Rounds of hooking larger roots onto smaller ones, then pointer jumping.
    """
    labels = np.arange(n)
    while True:
        la, lb = labels[a], labels[b]
        if np.array_equal(la, lb):
            return labels
        np.minimum.at(labels, np.maximum(la, lb), np.minimum(la, lb))
        jumped = labels[labels]
        while not np.array_equal(jumped, labels):
            labels, jumped = jumped, jumped[jumped]


def _orbit_labels(generators, n: int) -> np.ndarray:
    for m in generators:
        if m.n != n:
            raise ValueError("generator size mismatch")
        if not m.invertible:
            raise ValueError("orbits need invertible maps")
    nodes = np.tile(np.arange(n), len(generators))
    images = np.concatenate([_NO_NODES] + [m.targets for m in generators])
    return _merge_labels(n, nodes, images)


def project_fixed(generators, state: np.ndarray) -> np.ndarray:
    """Project onto the joint fixed space of the generated group.

    Every value is replaced by the plain mean over its index orbit; the
    result is fixed by every generator and the projection is idempotent up
    to roundoff. All generators must be invertible. For measure-preserving
    generators it matches :func:`FixedPointSubspace` up to roundoff.
    """
    state = np.asarray(state, dtype=np.float64)
    n = state.shape[0]
    labels = _orbit_labels(list(generators), n)
    sums = np.bincount(labels, weights=state, minlength=n)
    counts = np.bincount(labels, minlength=n)
    return sums[labels] / counts[labels]


class PartitionSubspace:
    """States constant on every block of a partition of the nodes.

    ``labels[i]`` names the block of node i (any integers); nodes past the
    end of ``labels`` are singleton blocks. The projection replaces each
    value by the mu-weighted mean over its block. It is computed as an
    offset from one member per block, so states already in the subspace
    come back unchanged and projecting twice equals projecting once.
    """

    def __init__(self, labels):
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        # canonical labels: the smallest node of each block
        _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
        self.labels = first[inverse.reshape(-1)]

    def project(self, space: IndexSpace, state: np.ndarray) -> np.ndarray:
        state = np.asarray(state, dtype=np.float64)
        n = space.n
        if state.shape != (n,) or self.labels.size > n:
            raise ValueError("state or partition does not fit the space")
        labels = np.concatenate([self.labels, np.arange(self.labels.size, n)])
        base = state[labels]
        mass = np.bincount(labels, weights=space.weights, minlength=n)
        shift = np.bincount(labels, weights=space.weights * (state - base), minlength=n)
        return base + shift[labels] / mass[labels]


def FixedPointSubspace(generators) -> PartitionSubspace:
    """States fixed by every generator, u[phi(i)] = u[i]: constant on the orbits."""
    generators = list(generators)
    n = generators[0].n if generators else 0
    return PartitionSubspace(_orbit_labels(generators, n))


def ImageSubspace(imap: IndexMap) -> PartitionSubspace:
    """States that factor through a map, u = v o phi: constant on the level sets of phi."""
    return PartitionSubspace(imap.targets)


def ClusterSubspace(blocks) -> PartitionSubspace:
    """States constant on each prescribed node block; overlapping blocks merge."""
    blocks = [_index_array(b, "cluster blocks").reshape(-1) for b in blocks]
    nodes = np.concatenate([_NO_NODES] + blocks)
    heads = np.concatenate([_NO_NODES] + [np.repeat(b[:1], b.size) for b in blocks])
    if nodes.min(initial=0) < 0:
        raise ValueError("cluster blocks must hold nonnegative node indices")
    return PartitionSubspace(_merge_labels(int(nodes.max(initial=-1)) + 1, nodes, heads))


def subspace_distance(space: IndexSpace, subspace, state: np.ndarray) -> float:
    """Weighted L1 distance from a state to its subspace projection."""
    return l1_distance(space, state, subspace.project(space, state))


# ---------------------------------------------------------------------------
# audits


def _equivariance_series(system: CoupledSystem, model: ModelFunctions, imap: IndexMap,
                         state0, t_end: float, step: float = 1e-3, sample_every: int = 1):
    """Sample times and commutator deviations ||phi*(Phi_t u) - Phi_t(phi* u)||_1."""
    u0 = np.asarray(state0, dtype=np.float64)
    direct = integrate(system, model, u0, t_end, step, sample_every)
    mapped = integrate(system, model, pullback(imap, u0), t_end, step, sample_every)
    return direct.times, np.array([l1_distance(system.space, pullback(imap, a), b)
                                   for a, b in zip(direct.states, mapped.states)])


def equivariance_audit(system: CoupledSystem, model: ModelFunctions, imap: IndexMap,
                       state0, t_end: float, step: float = 1e-3,
                       sample_every: int = 1) -> float:
    """Largest commutator deviation ||phi*(Phi_t u) - Phi_t(phi* u)||_1.

    Integrates from the state and from its pullback and compares the two
    trajectories samplewise; a true automorphism leaves only integrator
    noise.
    """
    return float(np.max(_equivariance_series(system, model, imap, state0, t_end, step,
                                             sample_every)[1]))


def _invariance_series(system: CoupledSystem, model: ModelFunctions, subspace, state0,
                       t_end: float, step: float = 1e-3, sample_every: int = 1):
    """Sample times and distances from the subspace along the trajectory."""
    u0 = np.asarray(state0, dtype=np.float64)
    d0 = subspace_distance(system.space, subspace, u0)
    if d0 > 1e-12:
        raise ValueError(f"initial state is {d0} away from the subspace")
    traj = integrate(system, model, u0, t_end, step, sample_every)
    return traj.times, np.array([subspace_distance(system.space, subspace, s)
                                 for s in traj.states])


def invariance_audit(system: CoupledSystem, model: ModelFunctions, subspace,
                     state0, t_end: float, step: float = 1e-3,
                     sample_every: int = 1) -> float:
    """Largest distance from the subspace along the trajectory.

    ``state0`` must already lie in the subspace (within 1e-12).
    """
    return float(np.max(_invariance_series(system, model, subspace, state0, t_end, step,
                                           sample_every)[1]))
