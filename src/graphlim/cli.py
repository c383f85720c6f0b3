"""Config-driven command line front end.

Usage: ``graphlim run <config.json> [--out DIR] [--threads N]``. The config
is a single JSON document selecting one command (simulate, audit, twisted,
ghost, continuity, meanfield, norms) plus its parameters. Artifacts (CSV
series, JSON reports, and a manifest) land in the output directory. Exit
status: 0 success, 1 failed audit or experiment, 2 usage or config error,
3 internal error.

Reruns with the same config produce byte-identical artifacts apart from the
manifest timestamp; every random choice is seeded explicitly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, config_field as _get
from .dynamics import integrate, kuramoto_model
from .experiments import continuity_experiment, ghost_experiment, twisted_residual, \
    twisted_state
from .graphop import graphop_from_weighted, spherical_graphop
from .kernels import kernel_from_spec
from .meanfield import MeasureState, integrate_meanfield
from .norms import inf_to_one_norm_exact, inf_to_one_norm_lower
from .space import IndexSpace, make_finite_space, make_grid_space
from .symmetry import ClusterSubspace, FixedPointSubspace, ImageSubspace, IndexMap, \
    check_automorphism, equivariance_audit, grid_shift_map, identity_map, \
    interval_reflection_map, invariance_audit, permutation_map, scaling_map, \
    sphere_reflection_map, sphere_rotation_map, swap_map, torus_flip_map, \
    torus_rotation_map
from .systems import discretize, sample_er


def _build_space(cfg, field="space") -> IndexSpace:
    sub = _get(cfg, field, dict)
    geometry = _get(sub, "geometry", str)
    if geometry == "abstract":
        return make_finite_space(_get(sub, "weights", list))
    resolution = _get(sub, "resolution", list)
    if geometry == "sphere2":
        return make_grid_space(geometry, resolution,
                               bands=sub.get("bands"),
                               symmetry_order=sub.get("symmetry_order", 1))
    return make_grid_space(geometry, resolution)


def _build_kernel(cfg, space, field="kernel"):
    """Kernel spec from the config; geodesic geometry and dim default to the space's."""
    return kernel_from_spec({"geometry": space.geometry, "dim": space.dim,
                             **_get(cfg, field, dict)})


def _build_system(cfg):
    if "er" in cfg:
        sub = _get(cfg, "er", dict)
        return sample_er(_get(sub, "n", int), _get(sub, "p", (int, float)),
                         _get(sub, "seed", int))
    if "graphop" in cfg:
        sub = _get(cfg, "graphop", dict)
        space = _build_space(sub)
        return graphop_from_weighted(np.array(_get(sub, "values", list)), space)
    if "spherical_graphop" in cfg:
        sub = _get(cfg, "spherical_graphop", dict)
        space = _build_space(sub)
        return spherical_graphop(space, band_halfwidth=sub.get("band_halfwidth"))
    space = _build_space(cfg)
    kernel = _build_kernel(cfg, space)
    return discretize(kernel, space)


def _build_map(cfg, space, field="map") -> IndexMap:
    sub = _get(cfg, field, dict)
    kind = _get(sub, "type", str)
    if kind == "identity":
        return identity_map(space.n)
    if kind == "permutation":
        return permutation_map(_get(sub, "targets", list))
    if kind == "swap":
        return swap_map(space.n, _get(sub, "i", int), _get(sub, "j", int))
    if kind == "shift":
        return grid_shift_map(space, _get(sub, "steps", list))
    if kind == "torus_flip":
        return torus_flip_map(space, _get(sub, "axis", int))
    if kind == "torus_rotation":
        return torus_rotation_map(space)
    if kind == "interval_reflection":
        return interval_reflection_map(space)
    if kind == "scaling":
        return scaling_map(space, _get(sub, "factor", int))
    if kind == "sphere_rotation":
        return sphere_rotation_map(space, steps=sub.get("steps", 1))
    if kind == "sphere_reflection":
        return sphere_reflection_map(space)
    raise ConfigError(f"{field}.type", f"unknown map type {kind!r}")


def _build_state(cfg, space, field="u0") -> np.ndarray:
    sub = _get(cfg, field, (dict, list))
    if isinstance(sub, list):
        state = np.asarray(sub, dtype=np.float64)
    else:
        kind = _get(sub, "kind", str, required=False, default="values")
        if kind == "values" or "values" in sub:
            state = np.asarray(_get(sub, "values", list), dtype=np.float64)
        elif kind == "constant":
            state = np.full(space.n, float(_get(sub, "value", (int, float))))
        elif kind == "random_uniform":
            rng = np.random.Generator(np.random.Philox(_get(sub, "seed", int)))
            low = sub.get("low", 0.0)
            high = sub.get("high", 2.0 * np.pi)
            state = rng.uniform(low, high, space.n)
        elif kind == "twisted":
            state = twisted_state(space, _get(sub, "q", list))
        else:
            raise ConfigError(f"{field}.kind", f"unknown initial state kind {kind!r}")
    if state.shape != (space.n,):
        raise ConfigError(field, f"state length {state.shape} does not match n={space.n}")
    return state


def _span(cfg):
    """(t_end, step, sample_every) of a command that integrates."""
    return (_get(cfg, "t_end", (int, float)), _get(cfg, "step", (int, float)),
            cfg.get("sample_every", 1))


def _build_model(cfg):
    sub = _get(cfg, "model", dict, required=False, default={})
    return kuramoto_model(sub.get("omega", 0.0), sub.get("alpha", 0.0))


def _collect_seeds(obj):
    seeds = {}

    def walk(prefix, node):
        if isinstance(node, dict):
            for k, v in node.items():
                key = f"{prefix}.{k}" if prefix else k
                if k == "seed":
                    seeds[key] = v
                else:
                    walk(key, v)

    walk("", obj)
    return seeds


def _run_simulate(cfg, out):
    system = _build_system(cfg)
    model = _build_model(cfg)
    u0 = _build_state(cfg, system.space)
    traj = integrate(system, model, u0, *_span(cfg))
    traj.to_csv(out / "trajectory.csv")
    return 0


def _run_twisted(cfg, out):
    space = make_grid_space("torus", _get(cfg, "resolution", list))
    q = _get(cfg, "q", list)
    delta = _get(cfg, "delta", (int, float))
    tolerance = cfg.get("tolerance", 1e-12)
    residual = twisted_residual(space, delta, q)
    report = {
        "name": "twisted",
        "parameters": {"resolution": space.resolution, "delta": delta, "q": q,
                       "tolerance": tolerance},
        "residual": residual,
        "passed": bool(residual <= tolerance),
    }
    (out / "report.json").write_text(json.dumps(report))
    return 0 if report["passed"] else 1


def _run_ghost(cfg, out):
    n = _get(cfg, "n", int)
    space_stub = make_finite_space(np.ones(n))
    imap = _build_map(cfg, space_stub)
    u0 = _build_state(cfg, space_stub)
    report = ghost_experiment(n, _get(cfg, "p", (int, float)), _get(cfg, "seed", int),
                              u0, imap, *_span(cfg))
    (out / "report.json").write_text(report.to_json())
    report.series_to_csv(out / "series.csv")
    return 0 if report.passed in (True, None) else 1


def _run_continuity(cfg, out):
    space = _build_space(cfg)
    kernel_w = _build_kernel(cfg, space, field="kernel_w")
    kernel_u = _build_kernel(cfg, space, field="kernel_u")
    u0 = _build_state(cfg, space, field="u0")
    v0 = _build_state(cfg, space, field="v0")
    report = continuity_experiment(space, kernel_w, kernel_u, u0, v0, *_span(cfg))
    (out / "report.json").write_text(report.to_json())
    report.series_to_csv(out / "series.csv")
    return 0 if report.passed in (True, None) else 1


def _run_audit(cfg, out):
    system = _build_system(cfg)
    kind = _get(cfg, "audit", str)
    if kind == "automorphism":
        imap = _build_map(cfg, system.space)
        report = check_automorphism(system, imap, cfg.get("tol", 1e-12))
        (out / "report.json").write_text(report.to_json())
        expect = cfg.get("expect")
        return 0 if expect is None or report.verdict == expect else 1
    if kind == "equivariance":
        imap = _build_map(cfg, system.space)
        model = _build_model(cfg)
        u0 = _build_state(cfg, system.space)
        deviation = equivariance_audit(system, model, imap, u0, *_span(cfg))
        threshold = cfg.get("threshold")
        doc = {"audit": "equivariance", "deviation": deviation, "threshold": threshold,
               "passed": None if threshold is None else bool(deviation <= threshold)}
        (out / "report.json").write_text(json.dumps(doc))
        return 0 if doc["passed"] in (True, None) else 1
    if kind == "invariance":
        model = _build_model(cfg)
        u0 = _build_state(cfg, system.space)
        sub = _get(cfg, "subspace", dict)
        stype = _get(sub, "type", str)
        if stype == "fixed":
            subspace = FixedPointSubspace([
                _build_map({"map": m}, system.space) for m in _get(sub, "maps", list)
            ])
        elif stype == "image":
            subspace = ImageSubspace(_build_map(sub, system.space))
        elif stype == "cluster":
            subspace = ClusterSubspace(_get(sub, "blocks", list))
        else:
            raise ConfigError("subspace.type", f"unknown subspace type {stype!r}")
        drift = invariance_audit(system, model, subspace, u0, *_span(cfg))
        threshold = cfg.get("threshold")
        doc = {"audit": "invariance", "drift": drift, "threshold": threshold,
               "passed": None if threshold is None else bool(drift <= threshold)}
        (out / "report.json").write_text(json.dumps(doc))
        return 0 if doc["passed"] in (True, None) else 1
    raise ConfigError("audit", f"unknown audit kind {kind!r}")


def _run_meanfield(cfg, out):
    system = _build_system(cfg)
    sub = _get(cfg, "particles", dict)
    if "values" in sub:
        particles = np.array(_get(sub, "values", list), dtype=np.float64)
    else:
        rng = np.random.Generator(np.random.Philox(_get(sub, "seed", int)))
        m = _get(sub, "count", int)
        particles = rng.uniform(0.0, 2.0 * np.pi, (system.n, m))
    traj = integrate_meanfield(system, MeasureState(particles), *_span(cfg))
    traj.to_csv(out / "particles.csv")
    return 0


def _run_norms(cfg, out):
    if "weights" in cfg:
        space = make_finite_space(_get(cfg, "weights", list))
    else:
        space = make_finite_space(np.ones(len(_get(cfg, "matrix", list))))
    matrix = np.array(_get(cfg, "matrix", list), dtype=np.float64)
    method = cfg.get("method", "exact")
    if method == "exact":
        result = inf_to_one_norm_exact(space, matrix)
    elif method == "lower":
        result = inf_to_one_norm_lower(space, matrix,
                                       restarts=cfg.get("restarts", 16),
                                       seed=cfg.get("seed", 0))
    else:
        raise ConfigError("method", f"unknown norm method {method!r}")
    (out / "norm.json").write_text(result.to_json())
    return 0


_COMMANDS = {
    "simulate": _run_simulate,
    "twisted": _run_twisted,
    "ghost": _run_ghost,
    "continuity": _run_continuity,
    "audit": _run_audit,
    "meanfield": _run_meanfield,
    "norms": _run_norms,
}


def run_config(cfg: dict, out_dir, threads: int | None = None) -> int:
    command = _get(cfg, "command", str)
    if command not in _COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}; "
                                     f"expected one of {sorted(_COMMANDS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    status = _COMMANDS[command](cfg, out)
    manifest = {
        "version": __version__,
        "command": command,
        "config": cfg,
        "seeds": _collect_seeds(cfg),
        "threads": threads,
        "wall_clock_s": time.time() - start,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "exit_status": status,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="graphlim",
                                     description="graph-limit dynamics toolkit")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    runp = sub.add_parser("run", help="execute a JSON experiment config")
    runp.add_argument("config", help="path to the JSON config")
    runp.add_argument("--out", default=None, help="output directory (default: config's "
                                                  "'out' field or the current directory)")
    runp.add_argument("--threads", type=int,
                      default=int(os.environ.get("GRAPHLIM_THREADS", "1")),
                      help="worker hint recorded in the manifest; results do not "
                           "depend on it")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        print(f"config error: line {exc.lineno}: {exc.msg}", file=sys.stderr)
        return 2
    if not isinstance(cfg, dict):
        print("config error: top level must be a JSON object", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.get("out", ".")
    try:
        return run_config(cfg, out_dir, threads=args.threads)
    except (ValueError, KeyError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
