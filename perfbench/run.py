"""graphlim benchmark: four seeded workloads, end-to-end and per-layer metrics.

Usage, from the root of a graphlim checkout:

    python3 perfbench/run.py --workload audit-large --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
untraced passes (wall_s, cli_s, setup_s, peak_rss_mb); with ``--trace 1``
it reports the per-layer metrics of a traced run. Lines before it record the
machine and the run. Seed 1 is the default; seed 2 is held out for
re-checking claims made on seed 1. See perfbench/README.md.

The workload runs in child processes (``workload.py``) whose BLAS and
OpenMP pools are pinned to one thread through their environment; this
script imports neither numpy nor graphlim.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
WORKLOADS = ("audit-large", "bounds-small", "meanfield-clouds", "build-large")
# Fresh processes that only set up, besides the measured one; setup_s is
# the median over all of them.
SETUP_PROCESSES = 4
DEADLINE_S = 170.0
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "GRAPHLIM_THREADS": "1",
}
END_TO_END_UNITS = {"wall_s": "s", "cli_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    pass


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _child(mode, args, deadline, out_dir, spans=None):
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--out", str(out_dir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before the workload process started")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the time limit") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with status {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{mode} process printed no result") from None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "graphlim" / "__init__.py").is_file():
        print(f"perfbench: no graphlim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_build" / "perfbench"
    work.mkdir(parents=True, exist_ok=True)
    out_dir = work / f"out-{args.workload}-{os.getpid()}"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            res = _child("trace", args, deadline, out_dir, spans=work / f"spans-{tag}.json")
            metrics = res["layers"]
        else:
            setups = [_child("setup", args, deadline, out_dir)["setup_s"]
                      for _ in range(SETUP_PROCESSES)]
            res = _child("run", args, deadline, out_dir)
            values = {
                "wall_s": statistics.median(res["walls"]),
                "cli_s": statistics.median(res["clis"]),
                "setup_s": statistics.median(setups + [res["setup_s"]]),
                "peak_rss_mb": res["peak_rss_mb"],
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    run = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out": args.seed == HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(res["walls"]),
        "walls_s": res["walls"],
        "failures": res["failures"],
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": res["python"],
        "numpy": res["numpy"],
        "thread_env": THREAD_ENV,
        "git_commit": _git_commit(),
    }
    if args.trace:
        run["layers_by_self_time"] = res["busiest"]
    (work / f"run-{tag}.json").write_text(json.dumps(run, indent=1))
    print("run " + json.dumps(run))
    if args.trace:
        print("largest self time: " + ", ".join(f"{layer} {busy:.3f}s"
                                                for layer, busy in res["busiest"][:3]))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
