"""Evolution law and time integration.

Each node obeys du_i/dt = f(u_i, sum_j w_ij g(u_i, u_j)) where f is the
activation and g the coupling function. Integration is classical
fixed-step fourth-order Runge-Kutta; summation within a row runs in
ascending neighbor order, so identical inputs give bit-identical
trajectories. The RK4 update makes no temporaries of its own and keeps
the textbook formula's bits. Rows never mix, so a ``systems.disjoint_union`` integrates each part
as a separate run would, while it stays on that part's RHS path.
``integrate`` binds the derivative once (``_rhs_fn``). Small systems under
the Kuramoto preset form their pair terms in place in one nnz-length buffer:
on tiny systems numpy call overhead, not arithmetic, is the cost of a step.

Large systems (at least ``_SEGMENT_NNZ`` nonzeros) under the Kuramoto
preset skip the nnz-length ``sin``: each pair term sin(u_j - u_i + alpha)
is formed as sin(u_j + alpha) cos(u_i) - cos(u_j + alpha) sin(u_i) from
length-n trig arrays, the shifted factors by angle addition so that their
error stays near eps however large |u| grows, and each CSR row is summed
as one ``np.add.reduceat`` segment in numpy's pairwise order. That order is
fixed and uses no threads either, so reruns stay bit-identical and results
do not depend on the thread count. Pulling cos(u_i) and sin(u_i) out of the
row sum would be cheaper still, but the product form keeps synchrony an
exact fixed point (at u_j = u_i the two products are the same float) and
keeps each pair term exactly antisymmetric when alpha = 0.

That path walks the rows in blocks of whole rows of about
``systems._BLOCK_ENTRIES`` entries, fixed at bind time, so its per-call
temporaries stay cache-sized and come from the heap without page faults.
A row is never split, so the block size changes no bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError
from .systems import _BLOCK_ENTRIES, CoupledSystem


@dataclass(frozen=True)
class ModelFunctions:
    """Activation f(u, s) and coupling g(u, v), both numpy-vectorized."""

    f: object
    g: object


@dataclass(frozen=True)
class KuramotoModel(ModelFunctions):
    """Sine coupling: f(u, s) = omega + s, g(u, v) = sin(v - u + alpha).

    ``f`` and ``g`` are built from ``omega`` and ``alpha``; declaring the
    coupling lets large systems take the product-form pair terms.
    """

    f: object = field(init=False, repr=False, compare=False)
    g: object = field(init=False, repr=False, compare=False)
    omega: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        omega = float(self.omega)
        alpha = float(self.alpha)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "f", lambda u, s: omega + s)
        object.__setattr__(self, "g", lambda u, v: np.sin(v - u + alpha))


def kuramoto_model(omega: float = 0.0, alpha: float = 0.0) -> KuramotoModel:
    """Phase oscillators: f(u, s) = omega + s, g(u, v) = sin(v - u + alpha)."""
    return KuramotoModel(omega=omega, alpha=alpha)


@dataclass(frozen=True)
class Trajectory:
    """Sampled states: times (k,) strictly increasing, states (k, n)."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.ascontiguousarray(self.times, dtype=np.float64)
        states = np.ascontiguousarray(self.states, dtype=np.float64)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or states.shape[0] != times.size:
            raise ValueError("times and states must have matching length")
        if times.size > 1:
            d = np.diff(times)
            # backward runs carry decreasing times
            if not (np.all(d > 0) or np.all(d < 0)):
                raise ValueError("times must be strictly monotone")

    def to_csv(self, path):
        """CSV with header t,u_0,...,u_{n-1}; scalars keep full precision."""
        write_csv(path, ["t"] + [f"u_{i}" for i in range(self.states.shape[1])],
                  ([t] + row.tolist() for t, row in zip(self.times.tolist(), self.states)))


def write_csv(path, header, rows):
    """CSV artifact: comma-joined header and rows, "\\r\\n" line ends as in ``csv.writer``.

    Cells go through ``str``: a string is written as is, and a Python float as its
    ``repr`` (the same text since Python 3.2), so it reads back bit for bit."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\r\n")


def rhs(system: CoupledSystem, model: ModelFunctions, state: np.ndarray) -> np.ndarray:
    """Derivative f(u_i, sum_j w_ij g(u_i, u_j)) at one state."""
    u = np.asarray(state, dtype=np.float64)
    if u.shape != (system.n,):
        raise ValueError(f"state length {u.shape} does not match system size {system.n}")
    du = _rhs_fn(system, model)(u)
    if not np.all(np.isfinite(du)):
        bad = int(np.flatnonzero(~np.isfinite(du))[0])
        raise NumericError(f"non-finite derivative at node {bad}", node=bad)
    return du


# Nonzeros from which the Kuramoto preset takes the product-form pair terms
# and CSR segment sums. Measured crossover on dense ER and all-to-all
# systems: between nnz 1,326 and 1,534, with alpha = 0 and alpha != 0 alike.
_SEGMENT_NNZ = 1400


def _rhs_fn(system, model):
    """The derivative u -> du of ``model`` on ``system``, everything but u bound once.

    Skipping a zero alpha or omega changes only a -0.0, which no row sum from +0.0 sees."""
    rows, cols, w, n = system._bincount_args()[0], system.indices, system.weights, system.n
    if not isinstance(model, KuramotoModel):
        return lambda u: model.f(u, np.bincount(rows, weights=w * model.g(u[rows], u[cols]),
                                                minlength=n))
    omega, alpha = model.omega, model.alpha
    if cols.size < _SEGMENT_NNZ:
        def small(u):
            d = u[cols]
            d -= u[rows]
            if alpha:
                d += alpha
            np.sin(d, out=d)
            d *= w
            s = np.bincount(rows, weights=d, minlength=n)
            if omega:
                s += omega
            return s
        return small
    ca, sa = np.cos(alpha), np.sin(alpha)
    blocks = []
    for lo, hi in _row_blocks(system.indptr):
        ptr = system.indptr[lo:hi + 1]
        lens = np.diff(ptr)  # np.repeat(x[lo:hi], lens) == x[row_of_entry[ptr[0]:ptr[-1]]]
        nonempty = np.flatnonzero(lens)
        blocks.append((lo, hi, cols[ptr[0]:ptr[-1]], w[ptr[0]:ptr[-1]], lens, lo + nonempty,
                       ptr[nonempty] - ptr[0]))
    def large(u):
        sin_u, cos_u = np.sin(u), np.cos(u)
        sin_a = sin_u * ca + cos_u * sa  # sin(u + alpha), error near eps at any |u|
        cos_a = cos_u * ca - sin_u * sa
        s = np.zeros(n)  # reduceat gives an empty row the next entry, or fails past the end
        for lo, hi, c, wb, lens, nonempty, starts in blocks:
            pair = sin_a[c]
            pair *= np.repeat(cos_u[lo:hi], lens)
            cross = cos_a[c]
            cross *= np.repeat(sin_u[lo:hi], lens)
            pair -= cross
            pair *= wb
            s[nonempty] = np.add.reduceat(pair, starts)
        return omega + s  # a one-entry row may sum to -0.0, so omega = 0 is still added
    return large


def _row_blocks(indptr):
    """(lo, hi) row ranges of about ``_BLOCK_ENTRIES`` entries each, every row whole.

    A row longer than that is a block of its own; a block may end in empty rows."""
    n, edges = indptr.size - 1, [0]
    while edges[-1] < n:
        lo = edges[-1]
        hi = int(np.searchsorted(indptr, indptr[lo] + _BLOCK_ENTRIES, side="right")) - 1
        edges.append(max(hi, lo + 1))
    return list(zip(edges[:-1], edges[1:]))


def _rk4_step(fn, y, h, out, scratch):
    """Write y + (h/6)(k1 + 2k2 + 2k3 + k4) into ``out``, same operands in the same order.

    Each stage input has its own scratch array: nothing handed to ``fn`` is
    written again within the step, so an ``fn`` may return its argument.
    """
    y2, y3, y4, k3x2 = scratch
    k1 = fn(y)
    np.multiply(k1, h / 2.0, out=y2)
    y2 += y
    k2 = fn(y2)
    np.multiply(k2, h / 2.0, out=y3)
    y3 += y
    k3 = fn(y3)
    np.multiply(k3, h, out=y4)
    y4 += y
    k4 = fn(y4)
    np.multiply(k2, 2.0, out=out)
    out += k1
    np.multiply(k3, 2.0, out=k3x2)
    out += k3x2
    out += k4
    out *= h / 6.0
    out += y
    return out


def _integrate_core(fn, y0, t_end, step, sample_every):
    """Shared fixed-step RK4 driver; returns (times, stacked states).

    The actual step is t_end / round(|t_end| / step): uniform, lands on
    t_end exactly, and is negative for backward runs.
    """
    for name, value in (("t_end", t_end), ("step", step)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    nsteps = max(1, int(round(abs(t_end) / step)))
    h = t_end / nsteps
    y = np.array(y0, dtype=np.float64)
    out = np.empty_like(y)
    scratch = [np.empty_like(y) for _ in range(4)]
    states = np.empty((1 + -(-nsteps // sample_every),) + y.shape)
    states[0] = y
    times = [0.0]
    for k in range(1, nsteps + 1):
        y, out = _rk4_step(fn, y, h, out, scratch), y
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite state at t={k * h}", time=k * h)
        if k % sample_every == 0 or k == nsteps:
            states[len(times)] = y
            times.append(k * h)
    return np.array(times), states


def _initial_state(state0, n: int) -> np.ndarray:
    """``state0`` as a float64 array, checked to have shape (n,) and finite entries."""
    u0 = np.asarray(state0, dtype=np.float64)
    if u0.shape != (n,):
        raise ValueError(f"state length {u0.shape} does not match system size {n}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial state must be finite")
    return u0


def integrate(system: CoupledSystem, model: ModelFunctions, state0,
              t_end: float, step: float = 1e-3, sample_every: int = 1) -> Trajectory:
    """Integrate the coupled system from state0 over [0, t_end].

    Negative t_end integrates the time-reversed flow. The trajectory always
    contains t=0 and t=t_end; intermediate states are kept every
    ``sample_every`` steps.
    """
    u0 = _initial_state(state0, system.n)
    times, states = _integrate_core(_rhs_fn(system, model), u0, float(t_end), float(step),
                                    int(sample_every))
    return Trajectory(times, states)
