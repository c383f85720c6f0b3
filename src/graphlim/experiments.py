"""Packaged numerical experiments with pass/fail reports.

Covers twisted equilibria on torus grids, the symmetry-deviation bound for
sampled graphs against their constant limit, the trajectory continuity
bound for two kernels on one space, and informational symmetry-drift runs.
Every verdict, the CLI's equivariance and invariance audits included, is an
:class:`ExperimentReport` built by :meth:`ExperimentReport.from_series`: a
measured time series against a bound series or a constant threshold, so it
is recomputable from the emitted series and parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .dynamics import _initial_state, integrate, kuramoto_model, rhs, write_csv
from .kernels import Kernel, geodesic_kernel
from .norms import EXACT_NORM_MAX_N, ghost_bound, gronwall_bound, inf_to_one_norm_exact, \
    inf_to_one_norm_lower, l1_distance
from .space import IndexSpace
from .symmetry import IndexMap, project_fixed, pullback
from .systems import CoupledSystem, adjacency_matrix, discretize, disjoint_union, \
    sample_er


@dataclass(frozen=True)
class ExperimentReport:
    """Measured series, optional bound series, and the verdict.

    ``passed`` is True/False when the comparison is certified and None for
    informational runs (heuristic norm or no declared bound).
    """

    name: str
    parameters: dict
    times: np.ndarray
    measured: np.ndarray
    bound: np.ndarray | None
    comparison: str
    passed: bool | None
    notes: str = ""

    def to_json(self) -> str:
        return json.dumps(asdict(self), default=np.ndarray.tolist)

    @classmethod
    def from_series(cls, name: str, parameters: dict, times, measured, *,
                    threshold: float | None = None, bound=None,
                    certified: bool = True) -> "ExperimentReport":
        """Report comparing ``measured`` samplewise with a bound series or a threshold.

        A threshold becomes a constant bound series; with neither, the report
        is informational (``bound`` and ``passed`` None). A bound that rests
        on a heuristic norm (``certified=False``) is shown but gives no verdict.
        """
        times = np.asarray(times, dtype=np.float64)
        measured = np.asarray(measured, dtype=np.float64)
        if threshold is not None:
            bound = np.full_like(times, threshold)
            comparison = "measured <= threshold at every sample"
        elif bound is not None:
            comparison = "measured <= bound at every sample"
        else:
            comparison = "informational"
        passed = bool(np.all(measured <= bound)) if bound is not None and certified else None
        notes = "" if certified else "heuristic lower bound on the norm; informational only"
        return cls(name, parameters, times, measured, bound, comparison, passed, notes)

    def series_to_csv(self, path):
        """CSV with header t,measured,bound; the bound cell is empty when there is none."""
        times, measured, bound = (None if a is None else np.asarray(a, dtype=np.float64).tolist()
                                  for a in (self.times, self.measured, self.bound))
        write_csv(path, ["t", "measured", "bound"],
                  zip(times, measured, bound or [""] * len(times)))


def twisted_state(space: IndexSpace, q) -> np.ndarray:
    """Winding phase pattern theta_x = 2*pi*(q_1 x_1 + ... + q_d x_d)."""
    if space.geometry != "torus":
        raise ValueError("twisted states live on torus grids")
    qv = np.asarray(q, dtype=np.float64).reshape(-1)
    if qv.size != space.dim:
        raise ValueError("q must have one entry per torus dimension")
    if np.any(qv == 0) or np.any(qv != np.round(qv)):
        raise ValueError("q entries must be nonzero integers")
    return 2.0 * math.pi * (space.coords @ qv)


def twisted_residual(space: IndexSpace, delta: float, q) -> float:
    """Sup-norm of the sine-coupling derivative at the twisted state.

    Uses the geodesic kernel with the product max-metric; the symmetric
    neighbor window cancels the odd coupling terms, so the residual sits at
    the rounding floor.
    """
    theta = twisted_state(space, q)
    kernel = geodesic_kernel("torus", delta, dim=space.dim)
    system = discretize(kernel, space, label="geodesic-torus")
    du = rhs(system, kuramoto_model(0.0, 0.0), theta)
    return float(np.max(np.abs(du)))


def _check_span(t_end):
    """The bounds hold for t >= 0: reject a span that is not forward before any work."""
    if not t_end > 0:  # also False for NaN
        raise ValueError(f"t_end must be positive for a bounded experiment, got {t_end!r}")


def _norm_for(space, diff, heuristic_seed=0):
    if space.n <= EXACT_NORM_MAX_N:
        return inf_to_one_norm_exact(space, diff), True
    return inf_to_one_norm_lower(space, diff, restarts=32, seed=heuristic_seed), False


def ghost_experiment(n: int, p: float, seed: int, u0_symmetric, imap: IndexMap,
                     t_end: float, step: float = 1e-3,
                     sample_every: int = 1) -> ExperimentReport:
    """Symmetry deviation of a sampled graph against the constant limit.

    Integrates zero-frequency sine coupling on an Erdos-Renyi graph from a
    map-symmetric initial state and compares the measured deviation
    ||phi* u(t) - u(t)||_1 with the bound 2 (d0 + 2 t ||W_er - p||) e^{2t}.
    The initial state is replaced by its exact orbit average, so d0 = 0.
    With the exact norm the verdict certifies the bound; the heuristic norm
    only yields an informational report.
    """
    _check_span(t_end)
    u0 = _initial_state(u0_symmetric, n)
    system = sample_er(n, p, seed)
    space = system.space
    if l1_distance(space, pullback(imap, u0), u0) > 1e-12:
        raise ValueError("initial state is not fixed by the map")
    u0 = project_fixed([imap], u0)

    diff = adjacency_matrix(system)
    diff -= p
    norm_res, exact = _norm_for(space, diff, heuristic_seed=seed)

    traj = integrate(system, kuramoto_model(0.0, 0.0), u0, t_end, step, sample_every)
    measured = l1_distance(space, traj.states[:, imap.targets], traj.states)
    return ExperimentReport.from_series(
        "ghost",
        {"n": n, "p": p, "seed": seed, "t_end": t_end, "step": step,
         "d0": 0.0, "norm": norm_res.value, "norm_method": norm_res.method},
        traj.times, measured, bound=ghost_bound(0.0, norm_res.value, traj.times),
        certified=exact)


def continuity_experiment(space: IndexSpace, kernel_w: Kernel, kernel_u: Kernel,
                          u0, v0, t_end: float, step: float = 1e-3,
                          sample_every: int = 1) -> ExperimentReport:
    """Trajectory distance of two kernels against the growth bound.

    Runs zero-frequency sine coupling for both kernels on the same space
    and checks ||u(t) - v(t)||_1 <= (d0 + 2 t ||W - U||) e^{2t} samplewise.
    W and U run as one trajectory of their disjoint union. Below 1,400 union
    nonzeros that keeps the bits of two separate ``integrate`` calls; from
    there on the union takes the Kuramoto product-form path.
    """
    _check_span(t_end)
    u0 = _initial_state(u0, space.n)
    v0 = _initial_state(v0, space.n)
    union, _ = disjoint_union([discretize(kernel_w, space, label="W"),
                               discretize(kernel_u, space, label="U")])
    diff = kernel_w.matrix(space) - kernel_u.matrix(space)
    norm_res, exact = _norm_for(space, diff)
    traj = integrate(union, kuramoto_model(0.0, 0.0), np.concatenate([u0, v0]), t_end, step,
                     sample_every)
    n = space.n
    d0 = l1_distance(space, u0, v0)
    measured = l1_distance(space, traj.states[:, :n], traj.states[:, n:])
    return ExperimentReport.from_series(
        "continuity",
        {"n": n, "t_end": t_end, "step": step, "d0": d0,
         "norm": norm_res.value, "norm_method": norm_res.method},
        traj.times, measured, bound=gronwall_bound(d0, norm_res.value, traj.times),
        certified=exact)


def symmetry_drift_experiment(system: CoupledSystem, imap: IndexMap, u0,
                              model=None, t_end: float = 5.0, step: float = 1e-3,
                              sample_every: int = 1,
                              threshold: float | None = None) -> ExperimentReport:
    """Track ||phi* u(t) - u(t)||_1 along one trajectory.

    Informational unless a threshold is given, in which case the run passes
    when the drift never exceeds it. Used for symmetry-drift studies on
    discretized spheres, where no certified bound is claimed.
    """
    model = model or kuramoto_model(0.0, 0.0)
    u0 = np.asarray(u0, dtype=np.float64)
    traj = integrate(system, model, u0, t_end, step, sample_every)
    measured = l1_distance(system.space, traj.states[:, imap.targets], traj.states)
    return ExperimentReport.from_series(
        "symmetry-drift",
        {"n": system.n, "t_end": t_end, "step": step, "threshold": threshold,
         "label": system.label},
        traj.times, measured, threshold=threshold)
