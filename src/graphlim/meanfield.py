"""Measure-valued states evolved along characteristics.

Each node carries an empirical measure on the circle represented by M
particles. Particles move under sine coupling against the particle clouds
of the neighbors:

    d/dt u_{i,p} = sum_j w_ij (1/M) sum_q sin(u_{j,q} - u_{i,p}).

The average over a cloud factorizes through its order parameter,
(1/M) sum_q sin(u_{j,q} - u_{i,p}) = cos(u_{i,p}) sbar_j - sin(u_{i,p}) cbar_j
with sbar_j, cbar_j the means of sin and cos over the particles of node j,
so one derivative costs O(n M + nnz): two sparse products S = W sbar and
C = W cbar, then cos(u) S - sin(u) C. Full synchrony is therefore fixed
only to rounding (about 1e-16), not exactly, for general M.

With M = 1 every cloud is a Dirac mass and the derivative is the node
RHS of ``dynamics`` under zero-frequency Kuramoto coupling, evaluated by
that same code, so the two trajectories agree bitwise. Transporting
particles realizes the pushforward of the initial empirical measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _integrate_core, _rhs_fn, kuramoto_model
from .space import IndexSpace, _frozen
from .systems import CoupledSystem


@dataclass(frozen=True)
class MeasureState:
    """Particle clouds: a read-only array of shape (nodes, particles)."""

    particles: np.ndarray

    def __post_init__(self):
        p = _frozen(self.particles)
        object.__setattr__(self, "particles", p)
        if p.ndim != 2 or p.shape[0] < 1 or p.shape[1] < 1:
            raise ValueError("particles must be a (nodes, particles) array")
        if not np.all(np.isfinite(p)):
            raise ValueError("particle values must be finite")

    @property
    def n(self) -> int:
        return self.particles.shape[0]

    @property
    def m(self) -> int:
        return self.particles.shape[1]


def meanfield_rhs(system: CoupledSystem, particles: np.ndarray) -> np.ndarray:
    """Per-particle derivatives; summation order follows the sparse rows."""
    u = np.asarray(particles, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != system.n:
        raise ValueError("particle array shape does not match the system")
    return _meanfield_rhs_fn(system, u.shape[1])(u)


_DIRAC_MODEL = kuramoto_model(0.0, 0.0)


def _meanfield_rhs_fn(system, m):
    """The derivative of clouds of ``m`` particles, bound once like ``dynamics._rhs_fn``."""
    if m == 1:
        node = _rhs_fn(system, _DIRAC_MODEL)
        return lambda u: node(u[:, 0])[:, None]
    rows, cols, w, n = system.row_of_entry, system.indices, system.weights, system.n
    def fn(u):
        sin_u, cos_u = np.sin(u), np.cos(u)
        s = np.bincount(rows, weights=w * sin_u.mean(axis=1)[cols], minlength=n)
        c = np.bincount(rows, weights=w * cos_u.mean(axis=1)[cols], minlength=n)
        return cos_u * s[:, None] - sin_u * c[:, None]
    return fn


def integrate_meanfield(system: CoupledSystem, mstate0, t_end: float,
                        step: float = 1e-3, sample_every: int = 1) -> Trajectory:
    """Fixed-step RK4 on the coupled particle system; states (samples, nodes, particles)."""
    p0 = (mstate0 if isinstance(mstate0, MeasureState) else MeasureState(mstate0)).particles
    if p0.shape[0] != system.n:
        raise ValueError("particle array shape does not match the system")
    return Trajectory(*_integrate_core(_meanfield_rhs_fn(system, p0.shape[1]), p0, float(t_end),
                                       float(step), int(sample_every)))


def measure_distance(space: IndexSpace, particles_a, particles_b) -> float:
    """Node-averaged sorted-particle L1 distance between measure states.

    Sorting makes the comparison independent of particle labels; this is a
    computable stand-in for a metric on measure-valued states and is
    labeled as such wherever it is reported.
    """
    a = np.asarray(particles_a, dtype=np.float64)
    b = np.asarray(particles_b, dtype=np.float64)
    if a.shape != b.shape or a.shape[0] != space.n:
        raise ValueError("particle arrays must share a (nodes, particles) shape")
    per_node = np.mean(np.abs(np.sort(a, axis=1) - np.sort(b, axis=1)), axis=1)
    return float(np.sum(space.weights * per_node))
