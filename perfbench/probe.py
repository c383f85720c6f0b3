"""Spans and state digests recorded around graphlim's public functions.

Layers are timed from outside the library. A :class:`Probe` replaces the
public functions of each graphlim module at every graphlim module that
imported them (``graphlim.integrate``, ``graphlim.symmetry.integrate``,
``graphlim.experiments.integrate``, ...) with wrappers, and restores the
originals when asked. Two kinds of wrapper exist:

* digest wrappers on ``integrate`` and ``integrate_meanfield``, always on,
  which hash the final state of every trajectory for the rerun check;
* span wrappers on every listed function, on only for traced passes, which
  record (span id, parent span id, task id, layer, name, start, end) in
  memory plus work counters computed from the call arguments.

Callers must reach graphlim through module attributes at call time
(``gl.integrate(...)``, ``cli.run_config(...)``) so that the wrappers apply.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

# Public functions timed per layer: (home module, function names).
LAYERS = {
    "space": ("graphlim.space", ("make_grid_space", "make_finite_space", "uniform_space")),
    "kernels": ("graphlim.kernels", ("geodesic_kernel", "canonical_embedding")),
    "systems": ("graphlim.systems", ("discretize", "sample_er", "from_rows",
                                     "adjacency_matrix")),
    "graphop": ("graphlim.graphop", ("spherical_graphop", "graphop_from_weighted")),
    "dynamics": ("graphlim.dynamics", ("integrate", "rhs")),
    "symmetry": ("graphlim.symmetry", (
        "check_automorphism", "equivariance_audit", "invariance_audit", "project_fixed",
        "pullback", "subspace_distance", "grid_shift_map", "torus_rotation_map",
        "torus_flip_map", "sphere_rotation_map", "sphere_reflection_map", "swap_map",
        "permutation_map")),
    "norms": ("graphlim.norms", (
        "inf_to_one_norm_exact", "inf_to_one_norm_lower", "l1_distance", "ghost_bound",
        "gronwall_bound")),
    "meanfield": ("graphlim.meanfield", (
        "integrate_meanfield", "meanfield_rhs", "measure_distance")),
    "experiments": ("graphlim.experiments", (
        "ghost_experiment", "continuity_experiment", "symmetry_drift_experiment",
        "twisted_residual", "twisted_state")),
    "cli": ("graphlim.cli", ("run_config",)),
}
# Kernel evaluation is reached through methods, so it is wrapped on the classes.
KERNEL_METHODS = ("eval_row", "matrix")
DIGESTED = (("graphlim.dynamics", "integrate"), ("graphlim.meanfield", "integrate_meanfield"))


class Span(NamedTuple):
    id: int
    parent: int | None
    task: str | None
    layer: str
    name: str
    start: float
    end: float


def _steps(args) -> int:
    return max(1, int(round(abs(float(args["t_end"])) / float(args["step"]))))


def _count_integrate(c, args, out):
    system = args["system"]
    steps = _steps(args)
    trajectories = max(1, out.states[0].size // system.n)
    c["dynamics.rk4_steps"] += steps
    c["dynamics.rhs_evals"] += 4 * steps
    c["dynamics.entry_evals"] += 4 * steps * system.indices.size * trajectories


def _count_meanfield(c, args, out):
    system = args["system"]
    steps = _steps(args)
    m = out.states.shape[-1]
    c["meanfield.rhs_evals"] += 4 * steps
    c["meanfield.pair_evals"] += 4 * steps * system.indices.size * m * m


def _count_exact(c, args, out):
    c["norms.exact_candidates"] += 1 << max(0, args["space"].n - 1)


def _count_lower(c, args, out):
    c["norms.lower_restarts"] += int(args["restarts"])


def _count_built(key):
    def count(c, args, out):
        c[key] += out.indices.size
    return count


def _count_rows(c, args, out):
    c["symmetry.rows_checked"] += args["system"].n


def _count_verdict(c, args, out):
    c["experiments.bound_verdicts"] += 1
    c["experiments.certified_verdicts"] += out.passed is not None


def _count_artifacts(c, args, out):
    c["cli.artifact_bytes"] += sum(p.stat().st_size for p in Path(args["out_dir"]).iterdir()
                                   if p.is_file())


COUNTERS = {
    "integrate": _count_integrate,
    "integrate_meanfield": _count_meanfield,
    "inf_to_one_norm_exact": _count_exact,
    "inf_to_one_norm_lower": _count_lower,
    "discretize": _count_built("systems.entries_built"),
    "sample_er": _count_built("systems.entries_built"),
    "spherical_graphop": _count_built("graphop.entries_built"),
    "graphop_from_weighted": _count_built("graphop.entries_built"),
    "check_automorphism": _count_rows,
    "ghost_experiment": _count_verdict,
    "continuity_experiment": _count_verdict,
    "run_config": _count_artifacts,
}


def _graphlim_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "graphlim" or name.startswith("graphlim.")]


class Probe:
    """Owns the wrappers, the spans and the digests of one workload process."""

    def __init__(self):
        self.task: str | None = None
        self.digests: list[tuple[str | None, str]] = []
        self.spans: list[Span | None] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._digest_patches: list = []
        self._span_patches: list = []

    # -- patching ---------------------------------------------------------

    @staticmethod
    def _patch_sites(saved, home_name, attr, make):
        home = sys.modules[home_name]
        orig = getattr(home, attr)
        new = make(orig)
        for mod in _graphlim_modules():
            if getattr(mod, attr, None) is orig:
                saved.append((mod, attr, orig))
                setattr(mod, attr, new)

    @staticmethod
    def _restore(saved):
        while saved:
            owner, attr, orig = saved.pop()
            setattr(owner, attr, orig)

    def install_digests(self):
        for home, attr in DIGESTED:
            self._patch_sites(self._digest_patches, home, attr, self._digest_wrapper)

    def start_tracing(self):
        """Wrap every listed function and kernel method with a span recorder."""
        for layer, (home, names) in LAYERS.items():
            for attr in names:
                self._patch_sites(self._span_patches, home, attr,
                                  functools.partial(self._span_wrapper, layer, attr))
        kernels = sys.modules["graphlim.kernels"]
        for cls in vars(kernels).values():
            if isinstance(cls, type) and issubclass(cls, kernels.Kernel):
                for attr in KERNEL_METHODS:
                    if attr in vars(cls):
                        orig = vars(cls)[attr]
                        self._span_patches.append((cls, attr, orig))
                        setattr(cls, attr, self._span_wrapper("kernels", attr, orig))

    def stop_tracing(self):
        self._restore(self._span_patches)

    def close(self):
        self.stop_tracing()
        self._restore(self._digest_patches)

    # -- wrappers ---------------------------------------------------------

    def _digest_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            final = out.states[-1]
            self.digests.append((self.task, hashlib.sha256(final.tobytes()).hexdigest()))
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, layer, name, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        spans = self.spans
        stack = self._stack

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = Span(sid, parent, self.task, layer, name, start, end)
            if counter is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self.counts, bound.arguments, out)
            return out
        wrapper.__wrapped__ = fn
        return wrapper

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counts = list(self.spans), dict(self.counts)
        self.spans.clear()
        self.counts.clear()
        return spans, counts


# -- per-layer metrics ----------------------------------------------------


def _span_times(spans):
    """Per-span (inclusive, self) durations; self excludes child spans."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return {s.id: (s.end - s.start, s.end - s.start - child[s.id]) for s in spans}


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def layer_metrics(traces):
    """Per-layer metrics of one traced set-up plus one traced pass.

    ``traces`` is a list of (spans, counts) pairs whose spans and counts are
    summed; span ids are local to each pair.
    """
    busy = defaultdict(float)
    incl = defaultdict(float)
    counts = defaultdict(float)
    audits = audit_integrations = 0
    for spans, c in traces:
        for k, v in c.items():
            counts[k] += v
        times = _span_times(spans)
        by_id = {s.id: s for s in spans}
        for s in spans:
            total, own = times[s.id]
            busy[s.layer] += own
            incl[s.name] += total
            if s.name == "equivariance_audit":
                audits += 1
            elif s.name == "integrate" and s.parent is not None \
                    and by_id[s.parent].name == "equivariance_audit":
                audit_integrations += 1

    m = {f"{layer}.busy_s": busy[layer] for layer in LAYERS}
    m.update({
        "dynamics.rk4_steps": counts["dynamics.rk4_steps"],
        "dynamics.rhs_evals": counts["dynamics.rhs_evals"],
        "dynamics.entry_evals": counts["dynamics.entry_evals"],
        "dynamics.entry_evals_per_s": _ratio(counts["dynamics.entry_evals"], incl["integrate"]),
        "dynamics.us_per_step": 1e6 * _ratio(incl["integrate"], counts["dynamics.rk4_steps"]),
        "symmetry.integrations_per_audit": _ratio(audit_integrations, audits),
        "symmetry.rows_checked": counts["symmetry.rows_checked"],
        "meanfield.rhs_evals": counts["meanfield.rhs_evals"],
        "meanfield.pair_evals": counts["meanfield.pair_evals"],
        "meanfield.pair_evals_per_s": _ratio(counts["meanfield.pair_evals"],
                                             incl["integrate_meanfield"]),
        "norms.exact_busy_s": incl["inf_to_one_norm_exact"],
        "norms.exact_candidates": counts["norms.exact_candidates"],
        "norms.exact_candidates_per_s": _ratio(counts["norms.exact_candidates"],
                                               incl["inf_to_one_norm_exact"]),
        "norms.lower_busy_s": incl["inf_to_one_norm_lower"],
        "norms.lower_restarts": counts["norms.lower_restarts"],
        "experiments.certified_frac": _ratio(counts["experiments.certified_verdicts"],
                                             counts["experiments.bound_verdicts"]),
        "systems.entries_built": counts["systems.entries_built"],
        "systems.entries_per_s": _ratio(counts["systems.entries_built"],
                                        incl["discretize"] + incl["sample_er"]),
        "graphop.entries_built": counts["graphop.entries_built"],
        "cli.artifact_bytes": counts["cli.artifact_bytes"],
    })
    return m


def median_metrics(per_pass):
    """Median of every metric over a list of metric dicts with equal keys."""
    return {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith("_frac") or name.endswith("_per_audit"):
        return "ratio"
    if name.endswith("_bytes"):
        return "B"
    return "count"


def busiest_layers(metrics):
    """(layer, self time) pairs, largest self time first."""
    return sorted(((layer, metrics[f"{layer}.busy_s"]) for layer in LAYERS),
                  key=lambda pair: -pair[1])
