"""One workload process: set up, warm up, then timed passes.

Started by ``run.py`` with BLAS/OpenMP pools pinned to one thread and
``src`` on ``PYTHONPATH``. Modes:

* ``setup``: import graphlim and build the fixtures, report the time, exit;
* ``run``: set up, one warm-up pass, then untraced timed passes until
  ``--seconds`` have passed;
* ``trace``: the same with traced and untraced passes alternating; the set-up
  is traced too, and the spans are written to ``--spans`` at the end.

Every pass runs the workload's fixed task list. A task fails when it
raises, misses its correctness gate, or when the digests of the final
states of its trajectories differ from those of the warm-up pass. Prints
one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MIN_PASSES = 3


def run_pass(workload, gl, cli, fx, probe, out_dir):
    """One pass over the task list: wall time, CLI time, digests, failures."""
    gc.collect()
    probe.digests.clear()
    scratch = {}
    failures = {}
    cli_s = 0.0
    start = perf_counter()
    for task in workload.tasks:
        probe.task = task.name
        t0 = perf_counter()
        try:
            task.run(gl, cli, fx, scratch, out_dir)
        except Exception as exc:  # a failing task is counted, the run goes on
            failures[task.name] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        if task.cli:
            cli_s += perf_counter() - t0
    wall = perf_counter() - start
    probe.task = None
    digests = defaultdict(list)
    for task, digest in probe.digests:
        digests[task].append(digest)
    return wall, cli_s, dict(digests), failures


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--out", required=True, help="directory for CLI artifacts")
    parser.add_argument("--spans", help="file the traced spans are written to")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import graphlim as gl
    import graphlim.cli as cli
    from probe import Probe, busiest_layers, layer_metrics, median_metrics, unit_of
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    probe = Probe()
    if args.mode == "trace":
        probe.start_tracing()
    fx = workload.setup(gl, args.seed)
    setup_s = perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    setup_trace = probe.take()
    probe.stop_tracing()
    probe.install_digests()

    out_dir = Path(args.out)
    attempted = failed = 0
    failures = []

    def account(pass_failures, digests, reference):
        nonlocal attempted, failed
        for task in workload.tasks:
            attempted += 1
            why = pass_failures.get(task.name)
            if why is None and reference is not None \
                    and digests.get(task.name) != reference.get(task.name):
                why = "final-state digest differs from the warm-up pass"
            if why is not None:
                failed += 1
                failures.append(f"{task.name}: {why}")

    try:
        _, _, reference, warm_failures = run_pass(workload, gl, cli, fx, probe, out_dir)
        account(warm_failures, reference, None)

        walls, clis, traced_walls, traced = [], [], [], []

        def enough():
            if args.mode == "run":
                return len(walls) >= MIN_PASSES
            return min(len(walls), len(traced_walls)) >= MIN_PASSES

        deadline = perf_counter() + args.seconds
        while perf_counter() < deadline or not enough():
            tracing = args.mode == "trace" and len(traced_walls) < len(walls)
            if tracing:
                probe.start_tracing()
            wall, cli_s, digests, pass_failures = run_pass(workload, gl, cli, fx, probe,
                                                           out_dir)
            if tracing:
                probe.stop_tracing()
                traced_walls.append(wall)
                traced.append(probe.take())
            else:
                walls.append(wall)
                clis.append(cli_s)
            account(pass_failures, digests, reference)
    finally:
        probe.close()

    result.update({
        "walls": walls,
        "clis": clis,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": sys.modules["numpy"].__version__,
        "python": sys.version.split()[0],
    })
    if args.mode == "trace":
        metrics = median_metrics([layer_metrics([setup_trace, t]) for t in traced])
        # Each traced pass follows an untraced one; pairing them cancels slow drift.
        metrics["trace.overhead_frac"] = statistics.median(
            t / u - 1.0 for t, u in zip(traced_walls, walls))
        result["layers"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        result["busiest"] = busiest_layers(metrics)
        if args.spans:
            spans = {"setup": setup_trace[0], "passes": [spans for spans, _ in traced]}
            Path(args.spans).write_text(json.dumps(spans))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
