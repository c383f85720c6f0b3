"""Evolution law and time integration.

Each node obeys du_i/dt = f(u_i, sum_j w_ij g(u_i, u_j)) where f is the
activation and g the coupling function. Integration is classical
fixed-step fourth-order Runge-Kutta; summation within a row runs in
ascending neighbor order, so identical inputs give bit-identical
trajectories. The RK4 update makes no temporaries of its own and keeps
the textbook formula's bits. At steps 1, 2, 4, ... the driver stops once a step returns
its input bits (compared as int64, so -0.0 is not 0.0), as from exact synchrony, and
fills the remaining samples: model functions must be deterministic functions of the
state, as reruns already assume. Rows never mix, so a ``systems.disjoint_union`` integrates
each part as a separate run would, while it stays on that part's RHS path.
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

That path walks the rows in the blocks of ``systems._row_blocks`` (whole
rows of about 2^15 entries), fixed at bind time, so its per-call
temporaries stay cache-sized and come from the heap without page faults.
A row is never split, so the block size changes no bit.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import NumericError
from .systems import CoupledSystem, _row_blocks


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
    """Sampled states: times (s,) strictly monotone, states (s, n), or (s, n, k) for k
    values per node: the members of an ensemble or the particles of a cloud."""

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
        """CSV with header t,u_0,...,u_{n-1}, or t,node,particle,value (one line per value,
        a frame's lines as one prebuilt cell) for (s, n, k) states; scalars keep full precision."""
        times = self.times.tolist()
        if self.states.ndim == 2:
            return write_csv(path, ["t"] + [f"u_{i}" for i in range(self.states.shape[1])],
                             ([t] + row.tolist() for t, row in zip(times, self.states)))
        frames = ("\r\n".join([f"{head}{p},{v!r}" for i, row in enumerate(frame.tolist())
                                for head in (f"{t!r},{i},",) for p, v in enumerate(row)])
                  for t, frame in zip(times, self.states))
        write_csv(path, ["t", "node", "particle", "value"], ((f,) for f in frames if f))


def write_csv(path, header, rows):
    """CSV artifact: comma-joined header and rows, "\\r\\n" line ends as in ``csv.writer``.

    Cells go through ``str``: a string is written as is, and a Python float as its
    ``repr`` (the same text since Python 3.2), so it reads back bit for bit."""
    with open(unlinked(path), "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for row in rows:
            fh.write(",".join(map(str, row)) + "\r\n")


def unlinked(path):
    """``path``, with any file there unlinked so that writing it makes a new file."""
    return Path(path).unlink(missing_ok=True) or path  # ext4 flushes a truncated file on close


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
    cols, w, n = system.indices, system.weights, system.n
    if not cols.size:  # np.bincount of no entries would count in int64
        return lambda u: model.f(u, np.zeros(n))
    if not isinstance(model, KuramotoModel):
        rows = system.row_of_entry  # built per bind, as on the small path; the large needs none
        return lambda u: model.f(u, np.bincount(rows, weights=w * model.g(u[rows], u[cols]),
                                                minlength=n))
    omega, alpha = model.omega, model.alpha
    if cols.size < _SEGMENT_NNZ:
        rows = system.row_of_entry
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
    large.parallel = len(blocks) > 1  # only then do ensemble threads pay: see ``integrate``
    return large


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
    if not np.isfinite(abs(t_end) / step):
        raise ValueError(f"t_end / step must be finite, got {t_end!r} / {step!r}")
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    nsteps = max(1, int(round(abs(t_end) / step)))
    h = t_end / nsteps
    y = np.array(y0, dtype=np.float64)
    out = np.empty_like(y)
    scratch = [np.empty_like(y) for _ in range(4)]
    count = 1 + -(-nsteps // sample_every)
    try:
        states = np.empty((count,) + y.shape)
    except (MemoryError, ValueError):  # numpy's ValueError: past the largest array shape
        raise ValueError(f"t_end={t_end!r}, step={step!r} and sample_every={sample_every} ask "
                         f"for {count} samples, more than memory holds") from None
    states[0] = y
    times = [0.0]
    for k in range(1, nsteps + 1):
        y, out = _rk4_step(fn, y, h, out, scratch), y
        if not np.isfinite(y).all():
            raise NumericError(f"non-finite state at t={k * h}", time=k * h)
        if k % sample_every == 0 or k == nsteps:
            states[len(times)] = y
            times.append(k * h)
        if k & (k - 1) == 0 and k < nsteps and (y.view(np.int64) == out.view(np.int64)).all():
            states[len(times):] = y
            rest = np.arange(k - k % sample_every + sample_every, nsteps, sample_every)
            return np.append(times, np.append(rest * h, nsteps * h)), states
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

    Negative t_end integrates the time-reversed flow. The trajectory always contains t=0 and
    t=t_end; intermediate states are kept every ``sample_every`` steps. An (n, k) ``state0``,
    k >= 1, is an ensemble of its columns: states (samples, n, k), each member the bytes of a
    single run, on any CPU count. Members run on up to one thread per CPU only on the Kuramoto
    product path over several ``systems._row_blocks``, where numpy releases the GIL long enough
    to pay. All are joined before the call returns; the lowest failing member's error is raised.
    """
    u0 = np.asarray(state0, dtype=np.float64)  # an empty ensemble fails as an (n, 0) state
    members = [_initial_state(u, system.n) for u in (u0.T if u0.ndim == 2 and u0.size else [u0])]
    fn, span = _rhs_fn(system, model), (float(t_end), float(step), int(sample_every))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(len(members), cpus or 1) if getattr(fn, "parallel", False) else 1
    runs, failed = [None] * len(members), {}
    def run(first):  # members first, first + workers, ... up to this thread's first error
        try:
            for i in range(first, len(members), workers):
                runs[i] = _integrate_core(fn, members[i], *span)
        except Exception as exc:  # raised below, once every thread is joined
            failed[i] = exc
    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, first))
               for first in range(1, workers)]  # the caller's context: its np.errstate holds
    try:
        for thread in threads:
            thread.start()
        run(0)
    finally:
        for thread in filter(threading.Thread.is_alive, threads):
            thread.join()
    if failed:  # the lowest failing member, as a serial loop would raise
        raise failed[min(failed)]
    states = [states for _, states in runs]
    return Trajectory(runs[0][0], np.stack(states, axis=2) if u0.ndim == 2 else states[0])
