"""Config-driven command line front end.

Usage: ``graphlim run <config.json> [--out DIR] [--threads N]``. The config
is a single JSON document selecting one command (simulate, audit, twisted,
ghost, continuity, meanfield, norms) plus its parameters; every scalar is
read through ``config_field``, so a wrong type is a config error naming the
field. Artifacts and a manifest land in the output directory; a command
that fails still writes the manifest, with its exit status and error.

The verdict commands (twisted, ghost, continuity, and the equivariance and
invariance audits) all end in one writer: an ``ExperimentReport`` saved as
``report.json`` plus its ``series.csv``. Exit status: 0 success, 1 failed
audit or experiment, 2 usage or config error, 3 internal error.

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
from .experiments import ExperimentReport, continuity_experiment, ghost_experiment, \
    twisted_residual, twisted_state
from .graphop import graphop_from_weighted, spherical_graphop
from .kernels import kernel_from_spec
from .meanfield import MeasureState, integrate_meanfield
from .norms import inf_to_one_norm_exact, inf_to_one_norm_lower
from .space import IndexSpace, make_finite_space, make_grid_space
from .symmetry import VERDICTS, ClusterSubspace, FixedPointSubspace, ImageSubspace, \
    IndexMap, _equivariance_series, _invariance_series, check_automorphism, grid_shift_map, \
    identity_map, interval_reflection_map, permutation_map, scaling_map, \
    sphere_reflection_map, sphere_rotation_map, swap_map, torus_flip_map, \
    torus_rotation_map
from .systems import discretize, sample_er

_NUMBER = (int, float)


def _tolerance(cfg, field, default):
    """``cfg[field]`` as a finite nonnegative number; JSON also decodes NaN and Infinity."""
    value = _get(cfg, field, _NUMBER, default)
    if value is not None and not 0 <= value <= sys.float_info.max:  # False for NaN
        raise ConfigError(field, f"expected a finite nonnegative number, got {value!r}")
    return value


def _build_space(cfg, field="space") -> IndexSpace:
    sub = _get(cfg, field, dict)
    geometry = _get(sub, "geometry", str)
    if geometry == "abstract":
        return make_finite_space(_get(sub, "weights", list))
    resolution = _get(sub, "resolution", list)
    if geometry == "sphere2":
        return make_grid_space(geometry, resolution, bands=_get(sub, "bands", int, None),
                               symmetry_order=_get(sub, "symmetry_order", int, 1))
    return make_grid_space(geometry, resolution)


def _build_kernel(cfg, space, field="kernel"):
    """Kernel spec from the config; geodesic geometry and dim default to the space's."""
    return kernel_from_spec({"geometry": space.geometry, "dim": space.dim,
                             **_get(cfg, field, dict)})


def _build_system(cfg):
    if "er" in cfg:
        sub = _get(cfg, "er", dict)
        return sample_er(_get(sub, "n", int), _get(sub, "p", _NUMBER),
                         _get(sub, "seed", int))
    if "graphop" in cfg:
        sub = _get(cfg, "graphop", dict)
        space = _build_space(sub)
        return graphop_from_weighted(np.array(_get(sub, "values", list)), space)
    if "spherical_graphop" in cfg:
        sub = _get(cfg, "spherical_graphop", dict)
        space = _build_space(sub)
        return spherical_graphop(space, _get(sub, "band_halfwidth", _NUMBER, None))
    space = _build_space(cfg)
    kernel = _build_kernel(cfg, space)
    return discretize(kernel, space)


_MAPS = {
    "identity": lambda sub, space: identity_map(space.n),
    "permutation": lambda sub, space: permutation_map(_get(sub, "targets", list)),
    "swap": lambda sub, space: swap_map(space.n, _get(sub, "i", int), _get(sub, "j", int)),
    "shift": lambda sub, space: grid_shift_map(space, _get(sub, "steps", list)),
    "torus_flip": lambda sub, space: torus_flip_map(space, _get(sub, "axis", int)),
    "torus_rotation": lambda sub, space: torus_rotation_map(space),
    "interval_reflection": lambda sub, space: interval_reflection_map(space),
    "scaling": lambda sub, space: scaling_map(space, _get(sub, "factor", int)),
    "sphere_rotation": lambda sub, space: sphere_rotation_map(space,
                                                              _get(sub, "steps", int, 1)),
    "sphere_reflection": lambda sub, space: sphere_reflection_map(space),
}


def _build_map(cfg, space, field="map") -> IndexMap:
    sub = _get(cfg, field, dict)
    kind = _get(sub, "type", str)
    if kind not in _MAPS:
        raise ConfigError(f"{field}.type", f"unknown map type {kind!r}")
    return _MAPS[kind](sub, space)


def _build_state(cfg, space, field="u0") -> np.ndarray:
    sub = _get(cfg, field, (dict, list))
    if isinstance(sub, list):
        state = np.asarray(sub, dtype=np.float64)
    else:
        kind = _get(sub, "kind", str, "values")
        if kind == "values" or "values" in sub:
            state = np.asarray(_get(sub, "values", list), dtype=np.float64)
        elif kind == "constant":
            state = np.full(space.n, float(_get(sub, "value", _NUMBER)))
        elif kind == "random_uniform":
            rng = np.random.Generator(np.random.Philox(_get(sub, "seed", int)))
            low, high = _get(sub, "low", _NUMBER, 0.0), _get(sub, "high", _NUMBER, 2.0 * np.pi)
            for name, value in (("low", low), ("high", high)):
                if not abs(value) <= sys.float_info.max:  # False for NaN; exact for big ints
                    raise ConfigError(f"{field}.{name}", f"expected a finite number, "
                                                         f"got {value!r}")
            if not abs(high - low) <= sys.float_info.max:
                raise ConfigError(f"{field}.high", f"high - low must be finite, "
                                                   f"got {high!r} - {low!r}")
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
    return (_get(cfg, "t_end", _NUMBER), _get(cfg, "step", _NUMBER),
            _get(cfg, "sample_every", int, 1))


def _build_model(cfg):
    sub = _get(cfg, "model", dict, {})
    return kuramoto_model(_get(sub, "omega", _NUMBER, 0.0),
                          _get(sub, "alpha", _NUMBER, 0.0))


def _collect_seeds(node, prefix=""):
    """Every ``seed`` field of the config, keyed by its dotted path, in document order."""
    seeds = {}
    for key, value in (node.items() if isinstance(node, dict) else ()):
        if key == "seed":
            seeds[prefix + key] = value
        else:
            seeds.update(_collect_seeds(value, f"{prefix}{key}."))
    return seeds


def _run_simulate(cfg, out):
    system = _build_system(cfg)
    model = _build_model(cfg)
    u0 = _build_state(cfg, system.space)
    traj = integrate(system, model, u0, *_span(cfg))
    traj.to_csv(out / "trajectory.csv")
    return 0


def _write_report(out, report: ExperimentReport) -> int:
    """Write report.json and series.csv; exit status 1 only for a failed comparison."""
    (out / "report.json").write_text(report.to_json())
    report.series_to_csv(out / "series.csv")
    return 1 if report.passed is False else 0


def _run_twisted(cfg, out):
    space = make_grid_space("torus", _get(cfg, "resolution", list))
    q = _get(cfg, "q", list)
    delta = _get(cfg, "delta", _NUMBER)
    tolerance = _tolerance(cfg, "tolerance", 1e-12)
    residual = twisted_residual(space, delta, q)
    return _write_report(out, ExperimentReport.from_series(
        "twisted", {"resolution": space.resolution, "delta": delta, "q": q,
                    "tolerance": tolerance},
        [0.0], [residual], threshold=tolerance))


def _run_ghost(cfg, out):
    n = _get(cfg, "n", int)
    space_stub = make_finite_space(np.ones(n))
    imap = _build_map(cfg, space_stub)
    u0 = _build_state(cfg, space_stub)
    return _write_report(out, ghost_experiment(n, _get(cfg, "p", _NUMBER),
                                               _get(cfg, "seed", int), u0, imap, *_span(cfg)))


def _run_continuity(cfg, out):
    space = _build_space(cfg)
    kernel_w = _build_kernel(cfg, space, field="kernel_w")
    kernel_u = _build_kernel(cfg, space, field="kernel_u")
    u0 = _build_state(cfg, space, field="u0")
    v0 = _build_state(cfg, space, field="v0")
    return _write_report(out, continuity_experiment(space, kernel_w, kernel_u, u0, v0,
                                                    *_span(cfg)))


def _build_subspace(cfg, space):
    sub = _get(cfg, "subspace", dict)
    stype = _get(sub, "type", str)
    if stype == "fixed":
        return FixedPointSubspace([_build_map({"map": m}, space)
                                   for m in _get(sub, "maps", list)])
    if stype == "image":
        return ImageSubspace(_build_map(sub, space))
    if stype == "cluster":
        return ClusterSubspace(_get(sub, "blocks", list))
    raise ConfigError("subspace.type", f"unknown subspace type {stype!r}")


def _run_audit(cfg, out):
    system = _build_system(cfg)
    kind = _get(cfg, "audit", str)
    if kind == "automorphism":
        imap = _build_map(cfg, system.space)
        tol = _tolerance(cfg, "tol", 1e-12)
        expect = _get(cfg, "expect", str, None)
        if expect is not None and expect not in VERDICTS:
            raise ConfigError("expect", f"unknown verdict {expect!r}; expected one of "
                                        f"{list(VERDICTS)}")
        report = check_automorphism(system, imap, tol)
        (out / "report.json").write_text(report.to_json())
        return 0 if expect is None or report.verdict == expect else 1
    if kind == "equivariance":
        series, target = _equivariance_series, _build_map(cfg, system.space)
    elif kind == "invariance":
        series, target = _invariance_series, _build_subspace(cfg, system.space)
    else:
        raise ConfigError("audit", f"unknown audit kind {kind!r}")
    model = _build_model(cfg)
    u0 = _build_state(cfg, system.space)
    threshold = _tolerance(cfg, "threshold", None)
    t_end, step, sample_every = _span(cfg)
    times, measured = series(system, model, target, u0, t_end, step, sample_every)
    return _write_report(out, ExperimentReport.from_series(
        kind, {"n": system.n, "t_end": t_end, "step": step, "threshold": threshold,
               "label": system.label},
        times, measured, threshold=threshold))


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
    matrix = np.array(_get(cfg, "matrix", list), dtype=np.float64)
    space = make_finite_space(_get(cfg, "weights", list, np.ones(len(matrix))))
    method = _get(cfg, "method", str, "exact")
    if method == "exact":
        result = inf_to_one_norm_exact(space, matrix)
    elif method == "lower":
        result = inf_to_one_norm_lower(space, matrix, restarts=_get(cfg, "restarts", int, 16),
                                       seed=_get(cfg, "seed", int, 0))
    else:
        raise ConfigError("method", f"unknown norm method {method!r}")
    (out / "norm.json").write_text(result.to_json())
    return 0


_COMMANDS = {"simulate": _run_simulate, "twisted": _run_twisted, "ghost": _run_ghost,
             "continuity": _run_continuity, "audit": _run_audit,
             "meanfield": _run_meanfield, "norms": _run_norms}


def _exit_status(exc: BaseException) -> int:
    """Exit status of a run that raised: 2 for a config error, 3 for an internal one.

    Config fields are read with ``config_field``, so a KeyError can only come
    from the code itself and counts as internal.
    """
    return 2 if isinstance(exc, (ValueError, TypeError)) else 3


def _write_manifest(out, cfg, threads, start, status, error=None):
    manifest = {
        "version": __version__,
        "command": cfg["command"],
        "config": cfg,
        "seeds": _collect_seeds(cfg),
        "threads": threads,
        "wall_clock_s": time.time() - start,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "exit_status": status,
    }
    if error is not None:
        manifest["error"] = error
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def run_config(cfg: dict, out_dir, threads: int | None = None) -> int:
    """Run one config; once the output directory exists a manifest is always written.

    A command that raises leaves a manifest whose ``exit_status`` is the one
    ``main`` returns for the exception and whose ``error`` is
    ``"<Type>: <message>"``; the exception then propagates.
    """
    command = _get(cfg, "command", str)
    if command not in _COMMANDS:
        raise ConfigError("command", f"unknown command {command!r}; "
                                     f"expected one of {sorted(_COMMANDS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    start = time.time()
    try:
        status = _COMMANDS[command](cfg, out)
    except Exception as exc:
        _write_manifest(out, cfg, threads, start, _exit_status(exc),
                        f"{type(exc).__name__}: {exc}")
        raise
    _write_manifest(out, cfg, threads, start, status)
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
                      default=os.environ.get("GRAPHLIM_THREADS", "1"),
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
    except Exception as exc:
        status = _exit_status(exc)
        if status == 2:
            print(f"config error: {exc}", file=sys.stderr)
        else:
            traceback.print_exc()
            print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return status


if __name__ == "__main__":
    sys.exit(main())
