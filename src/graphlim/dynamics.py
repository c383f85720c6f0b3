"""Evolution law and time integration.

Each node obeys du_i/dt = f(u_i, sum_j w_ij g(u_i, u_j)) where f is the
activation and g the coupling function. Integration is classical
fixed-step fourth-order Runge-Kutta; summation within a row runs in
ascending neighbor order, so identical inputs give bit-identical
trajectories.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import NumericError
from .systems import CoupledSystem


@dataclass(frozen=True)
class ModelFunctions:
    """Activation f(u, s) and coupling g(u, v), both numpy-vectorized."""

    f: object
    g: object


def kuramoto_model(omega: float = 0.0, alpha: float = 0.0) -> ModelFunctions:
    """Phase oscillators: f(u, s) = omega + s, g(u, v) = sin(v - u + alpha)."""
    omega = float(omega)
    alpha = float(alpha)
    return ModelFunctions(
        f=lambda u, s: omega + s,
        g=lambda u, v: np.sin(v - u + alpha),
    )


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
        n = self.states.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"u_{i}" for i in range(n)])
            for t, row in zip(self.times, self.states):
                writer.writerow([repr(float(t))] + [repr(float(v)) for v in row])


def rhs(system: CoupledSystem, model: ModelFunctions, state: np.ndarray) -> np.ndarray:
    """Derivative f(u_i, sum_j w_ij g(u_i, u_j)) at one state."""
    u = np.asarray(state, dtype=np.float64)
    if u.shape != (system.n,):
        raise ValueError(f"state length {u.shape} does not match system size {system.n}")
    du = _rhs_unchecked(system, model, u)
    if not np.all(np.isfinite(du)):
        bad = int(np.flatnonzero(~np.isfinite(du))[0])
        raise NumericError(f"non-finite derivative at node {bad}", node=bad)
    return du


def _rhs_unchecked(system, model, u):
    rows = system.row_of_entry
    pair = model.g(u[rows], u[system.indices])
    s = np.bincount(rows, weights=system.weights * pair, minlength=system.n)
    return model.f(u, s)


def _rk4_step(fn, y, h):
    k1 = fn(y)
    k2 = fn(y + (h / 2.0) * k1)
    k3 = fn(y + (h / 2.0) * k2)
    k4 = fn(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _integrate_core(fn, y0, t_end, step, sample_every):
    """Shared fixed-step RK4 driver; returns (times, stacked states).

    The actual step is t_end / round(|t_end| / step): uniform, lands on
    t_end exactly, and is negative for backward runs.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    if t_end == 0:
        raise ValueError("t_end must be nonzero")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    nsteps = max(1, int(round(abs(t_end) / step)))
    h = t_end / nsteps
    y = np.array(y0, dtype=np.float64)
    times = [0.0]
    states = [y.copy()]
    for k in range(1, nsteps + 1):
        y = _rk4_step(fn, y, h)
        if not np.all(np.isfinite(y)):
            raise NumericError(f"non-finite state at t={k * h}", time=k * h)
        if k % sample_every == 0 or k == nsteps:
            times.append(k * h)
            states.append(y.copy())
    return np.array(times), np.stack(states)


def integrate(system: CoupledSystem, model: ModelFunctions, state0,
              t_end: float, step: float = 1e-3, sample_every: int = 1) -> Trajectory:
    """Integrate the coupled system from state0 over [0, t_end].

    Negative t_end integrates the time-reversed flow. The trajectory always
    contains t=0 and t=t_end; intermediate states are kept every
    ``sample_every`` steps.
    """
    u0 = np.asarray(state0, dtype=np.float64)
    if u0.shape != (system.n,):
        raise ValueError(f"state length {u0.shape} does not match system size {system.n}")
    if not np.all(np.isfinite(u0)):
        raise ValueError("initial state must be finite")

    def fn(u):
        return _rhs_unchecked(system, model, u)

    times, states = _integrate_core(fn, u0, float(t_end), float(step), int(sample_every))
    return Trajectory(times, states)
