"""The four seeded workloads: set-up builders and fixed task lists.

``setup(gl, seed)`` builds everything the timed tasks reuse (spaces,
kernels, systems, maps, initial states, CLI configs) from the workload seed
alone. Each task is ``run(gl, cli, fx, scratch, out_dir)``; it drives
graphlim's public API or ``graphlim.cli.run_config`` and raises
:class:`GateFailure` when a result misses the tolerance that
``tests/test_acceptance.py`` pins for it. ``scratch`` is a dict shared by
the tasks of one pass (build-large builds a system in one task and checks
it in the next). Tasks reach graphlim only through the module objects they
are given, so the benchmark's wrappers see every call.

Run lengths are shorter than the acceptance criteria use, so that one pass
takes about two seconds on a 2-core Xeon; the shapes (grids, nnz, n, M)
follow the criteria and the README configs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi

# Tolerances pinned by tests/test_acceptance.py.
EQUIVARIANCE_TOL = 1e-8
INVARIANCE_TOL = 1e-10
DIRAC_TOL = 1e-12
BLOCK_TOL = 1e-10
PERMUTATION_TOL = 1e-8


class GateFailure(Exception):
    """A task's result missed its correctness gate."""


def gate(ok, message):
    if not ok:
        raise GateFailure(message)


@dataclass(frozen=True)
class Task:
    name: str
    run: Callable
    cli: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    tasks: tuple


def _rng(seed, stream):
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _cli_task(name, check):
    """Task running fx["configs"][name] through run_config.

    ``check``, when given, gates the report.json the command wrote.
    """
    def run(gl, cli, fx, scratch, out_dir):
        out = Path(out_dir) / name
        status = cli.run_config(fx["configs"][name], out, threads=1)
        gate(status == 0, f"run_config exit status {status}")
        if check is not None:
            check(json.loads((out / "report.json").read_text()))
    return Task(f"cli-{name}", run, cli=True)


def _gate_passed(allowed):
    def check(report):
        gate(report["passed"] in allowed, f"report passed={report['passed']!r}")
    return check


# ---------------------------------------------------------------------------
# audit-large: few large RK4 steps, order-parameter RHS and batched audits

AUDIT_T_END = 0.1
AUDIT_STEP = 1e-2


def _audit_setup(gl, seed):
    rng = _rng(seed, 1)
    torus = gl.make_grid_space("torus", (30, 30))
    sphere = gl.make_grid_space("sphere2", (468,), symmetry_order=12)
    sys_t = gl.discretize(gl.geodesic_kernel("torus", 0.15, dim=2), torus)
    sys_s = gl.discretize(gl.geodesic_kernel("sphere2", math.pi / 2), sphere)
    fib = gl.spherical_graphop(sphere)
    shift = [int(v) for v in rng.integers(1, 30, size=2)]
    reflection = gl.sphere_reflection_map(sphere)
    return {
        "model": gl.kuramoto_model(0.0, 1.0),
        "audits": {
            "torus": (sys_t, gl.grid_shift_map(torus, shift),
                      rng.uniform(0, TWO_PI, torus.n), "graphon_automorphism"),
            "sphere": (sys_s, gl.sphere_rotation_map(sphere, int(rng.integers(1, 12))),
                       rng.uniform(0, TWO_PI, sphere.n), None),
            "fiber": (fib, reflection, rng.uniform(0, TWO_PI, sphere.n), None),
        },
        "invariance": (fib, gl.FixedPointSubspace([reflection]),
                       gl.project_fixed([reflection], rng.uniform(0, TWO_PI, sphere.n))),
        "configs": {"audit": {
            "command": "audit", "audit": "equivariance",
            "space": {"geometry": "torus", "resolution": [30, 30]},
            "kernel": {"variant": "geodesic", "delta": 0.15},
            "map": {"type": "shift", "steps": [int(v) for v in rng.integers(1, 30, size=2)]},
            "u0": {"kind": "random_uniform", "seed": int(rng.integers(1 << 30))},
            "t_end": AUDIT_T_END, "step": AUDIT_STEP, "threshold": EQUIVARIANCE_TOL,
        }},
    }


def _audit_task(key):
    def run(gl, cli, fx, scratch, out_dir):
        system, imap, u0, verdict = fx["audits"][key]
        report = gl.check_automorphism(system, imap, 1e-12)
        gate(report.fiber_preserving, f"{key}: map is not fiber preserving")
        gate(verdict is None or report.verdict == verdict, f"{key}: verdict {report.verdict}")
        dev = gl.equivariance_audit(system, fx["model"], imap, u0, AUDIT_T_END, AUDIT_STEP)
        gate(dev <= EQUIVARIANCE_TOL, f"{key}: equivariance deviation {dev:.3e}")
    return Task(f"equivariance-{key}", run)


def _invariance_task(gl, cli, fx, scratch, out_dir):
    system, subspace, u0 = fx["invariance"]
    drift = gl.invariance_audit(system, fx["model"], subspace, u0, AUDIT_T_END, AUDIT_STEP)
    gate(drift <= INVARIANCE_TOL, f"invariance drift {drift:.3e}")


AUDIT_LARGE = Workload("audit-large", _audit_setup, (
    _audit_task("torus"),
    _audit_task("sphere"),
    _audit_task("fiber"),
    Task("invariance-fiber", _invariance_task),
    _cli_task("audit", _gate_passed((True,))),
))


# ---------------------------------------------------------------------------
# bounds-small: exact 2^(n-1) norm and many tiny RK4 steps

GHOST_SIZES = (16, 20, 23)
CONTINUITY_PAIRS = 2
CLI_GHOSTS = 3


def _symmetric_pair(rng, n):
    i, j = (int(v) for v in rng.choice(n, size=2, replace=False))
    u0 = rng.uniform(0, TWO_PI, n)
    u0[j] = u0[i]
    return i, j, u0


def _bounds_setup(gl, seed):
    rng = _rng(seed, 2)
    ghosts = {}
    for n in GHOST_SIZES:
        i, j, u0 = _symmetric_pair(rng, n)
        ghosts[n] = (int(rng.integers(1 << 30)), gl.swap_map(n, i, j), u0)
    space = gl.uniform_space(12)
    pairs = []
    for _ in range(CONTINUITY_PAIRS):
        a, b = rng.uniform(0, 1, (2, 12, 12))
        pairs.append((gl.MatrixKernel((a + a.T) / 2), gl.MatrixKernel((b + b.T) / 2),
                      rng.uniform(0, TWO_PI, 12), rng.uniform(0, TWO_PI, 12)))
    configs = {}
    for k in range(CLI_GHOSTS):
        i, j = (int(v) for v in rng.choice(16, size=2, replace=False))
        configs[f"ghost{k}"] = {
            "command": "ghost", "n": 16, "p": 0.5, "seed": int(rng.integers(1 << 30)),
            "map": {"type": "swap", "i": i, "j": j},
            "u0": {"kind": "constant", "value": 1.0},
            "t_end": 2.0, "step": 0.001, "sample_every": 10,
        }
    return {"ghosts": ghosts, "space12": space, "pairs": pairs, "configs": configs}


def _ghost_task(n):
    def run(gl, cli, fx, scratch, out_dir):
        er_seed, imap, u0 = fx["ghosts"][n]
        report = gl.ghost_experiment(n, 0.5, er_seed, u0, imap, 2.0, 1e-3, sample_every=10)
        gate(report.parameters["norm_method"] == "exact_bruteforce", "norm is not exact")
        gate(report.passed is True, f"ghost n={n}: passed={report.passed!r}")
    return Task(f"ghost-{n}", run)


def _continuity_task(gl, cli, fx, scratch, out_dir):
    for k, (kw, ku, u0, v0) in enumerate(fx["pairs"]):
        report = gl.continuity_experiment(fx["space12"], kw, ku, u0, v0, 2.0, 1e-3)
        gate(report.parameters["norm_method"] == "exact_bruteforce", "norm is not exact")
        gate(report.passed is True, f"continuity pair {k}: passed={report.passed!r}")


BOUNDS_SMALL = Workload("bounds-small", _bounds_setup, tuple(
    [_ghost_task(n) for n in GHOST_SIZES]
    + [Task("continuity", _continuity_task)]
    + [_cli_task(f"ghost{k}", _gate_passed((True,))) for k in range(CLI_GHOSTS)]
))


# ---------------------------------------------------------------------------
# meanfield-clouds: the O(nnz M^2) particle RHS

def _meanfield_setup(gl, seed):
    rng = _rng(seed, 3)
    sys_c = gl.discretize(gl.ConstantKernel(1.0), gl.uniform_space(16))
    interval = gl.make_grid_space("interval", (12,))
    block = np.array([[1.0, 0.4], [0.4, 0.3]])
    sys_b = gl.discretize(gl.canonical_embedding(block), interval)
    return {
        "sys_c": sys_c,
        "sys_b": sys_b,
        "dirac": rng.uniform(0, TWO_PI, 16),
        "blocks": np.repeat(rng.uniform(0, TWO_PI, (2, 16)), 6, axis=0),
        "perm": gl.permutation_map(rng.permutation(16)),
        "clouds": rng.uniform(0, TWO_PI, (16, 24)),
        "configs": {"meanfield": {
            "command": "meanfield",
            "space": {"geometry": "interval", "resolution": [12]},
            "kernel": {"variant": "block", "boundaries": [0.0, 0.5, 1.0],
                       "values": block.tolist()},
            "particles": {"seed": int(rng.integers(1 << 30)), "count": 16},
            "t_end": 1.0, "step": 0.01, "sample_every": 10,
        }},
    }


def _dirac_task(gl, cli, fx, scratch, out_dir):
    sys_c, u0 = fx["sys_c"], fx["dirac"]
    td = gl.integrate(sys_c, gl.kuramoto_model(0.0, 0.0), u0, 1.0, 1e-3, sample_every=50)
    tm = gl.integrate_meanfield(sys_c, gl.MeasureState(u0[:, None]), 1.0, 1e-3,
                                sample_every=50)
    dev = max(float(np.max(np.abs(a - b[:, 0]))) for a, b in zip(td.states, tm.states))
    gate(dev <= DIRAC_TOL, f"dirac mismatch {dev:.3e}")


def _block_task(gl, cli, fx, scratch, out_dir):
    tr = gl.integrate_meanfield(fx["sys_b"], gl.MeasureState(fx["blocks"]), 1.0, 1e-2,
                                sample_every=10)
    drift = max(float(np.max(np.abs(f[6 * b:6 * (b + 1)] - f[6 * b])))
                for f in tr.states for b in range(2))
    gate(drift <= BLOCK_TOL, f"block drift {drift:.3e}")


def _permutation_task(gl, cli, fx, scratch, out_dir):
    sys_c, perm, clouds = fx["sys_c"], fx["perm"], fx["clouds"]
    t1 = gl.integrate_meanfield(sys_c, gl.MeasureState(gl.pullback(perm, clouds)), 0.5, 1e-2,
                                sample_every=10)
    t2 = gl.integrate_meanfield(sys_c, gl.MeasureState(clouds), 0.5, 1e-2, sample_every=10)
    dev = max(gl.measure_distance(sys_c.space, a, gl.pullback(perm, b))
              for a, b in zip(t1.states, t2.states))
    gate(dev <= PERMUTATION_TOL, f"permutation commutator {dev:.3e}")


MEANFIELD_CLOUDS = Workload("meanfield-clouds", _meanfield_setup, (
    Task("dirac", _dirac_task),
    Task("block", _block_task),
    Task("permutation", _permutation_task),
    _cli_task("meanfield", None),
))


# ---------------------------------------------------------------------------
# build-large: row building, dense ER sampling and automorphism loops

BUILD_STEP = 1e-2


def _build_setup(gl, seed):
    rng = _rng(seed, 4)
    torus = gl.make_grid_space("torus", (60, 60))
    sphere = gl.make_grid_space("sphere2", (2016,), symmetry_order=12)
    er_n = 2000
    i, j = (int(v) for v in rng.choice(er_n, size=2, replace=False))
    gi, gj = (int(v) for v in rng.choice(400, size=2, replace=False))
    return {
        "torus": torus,
        "sphere": sphere,
        "kernel": gl.geodesic_kernel("torus", 0.1, dim=2),
        "er": (er_n, 0.1, int(rng.integers(1 << 30))),
        "maps": {
            "torus": gl.grid_shift_map(torus, [int(v) for v in rng.integers(1, 60, size=2)]),
            "sphere": gl.sphere_rotation_map(sphere, int(rng.integers(1, 12))),
            "er": gl.swap_map(er_n, i, j),
        },
        "states": {
            "torus": rng.uniform(0, TWO_PI, torus.n),
            "sphere": rng.uniform(0, TWO_PI, sphere.n),
            "er": rng.uniform(0, TWO_PI, er_n),
        },
        "model": gl.kuramoto_model(0.0, 1.0),
        "configs": {"ghost": {
            "command": "ghost", "n": 400, "p": 0.5, "seed": int(rng.integers(1 << 30)),
            "map": {"type": "swap", "i": gi, "j": gj},
            "u0": {"kind": "constant", "value": 1.0},
            "t_end": 0.02, "step": 0.001, "sample_every": 10,
        }},
    }


def _build_torus(gl, cli, fx, scratch, out_dir):
    system = gl.discretize(fx["kernel"], fx["torus"])
    gate(system.indices.size == 3600 * 169, f"torus nnz {system.indices.size}")
    scratch["torus"] = system


def _build_sphere(gl, cli, fx, scratch, out_dir):
    system = gl.spherical_graphop(fx["sphere"])
    gate(float(np.max(np.abs(system.row_sums() - 1.0))) <= 1e-12, "fiber mass is not one")
    scratch["sphere"] = system


def _build_er(gl, cli, fx, scratch, out_dir):
    system = gl.sample_er(*fx["er"])
    gate(system.n == fx["er"][0] and system.indices.size % 2 == 0, "ER graph is not symmetric")
    scratch["er"] = system


def _check_and_step(key, expect):
    def run(gl, cli, fx, scratch, out_dir):
        system = scratch[key]
        report = gl.check_automorphism(system, fx["maps"][key], 1e-12)
        gate(expect(report), f"{key}: automorphism report {report.to_json()}")
        gl.integrate(system, fx["model"], fx["states"][key], 2 * BUILD_STEP, BUILD_STEP)
    return Task(f"check-{key}", run)


BUILD_LARGE = Workload("build-large", _build_setup, (
    Task("build-torus", _build_torus),
    _check_and_step("torus", lambda r: r.verdict == "graphon_automorphism"),
    Task("build-sphere", _build_sphere),
    _check_and_step("sphere", lambda r: r.fiber_preserving),
    Task("build-er", _build_er),
    _check_and_step("er", lambda r: r.invertible and r.measure_preserving),
    _cli_task("ghost", _gate_passed((True, None))),
))


WORKLOADS = {w.name: w for w in (AUDIT_LARGE, BOUNDS_SMALL, MEANFIELD_CLOUDS, BUILD_LARGE)}
