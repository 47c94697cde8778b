"""Benchmark of record: one workload, both backends, one JSON result line.

Run from the repository root::

    python3 recordbench/run.py --workload small_msgs --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the five end-to-end metrics on bare runtimes in
alternating fresh threaded and shm worlds, normalised to a nominal host
speed (:mod:`recordbench.metrics`).  ``--trace 1`` is a separate run
that reports the per-layer metrics (spans around every runtime primitive,
isolated probes, and the counts of an 8-rank threaded world).  The last
line of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is the report with the environment record.  The run exits
nonzero, without a result line, if the library cannot be imported, fewer
than two cores are usable, or a world fails.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import platform
import subprocess
import sys
import time
from multiprocessing import resource_tracker
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Timed rounds per run; each round is one threaded and one shm world.
ROUNDS = 15


def environment(args, cores) -> dict:
    """What the numbers depend on, recorded with every report."""
    import numpy as np

    from recordbench.worlds import WORLD_SIZE, rank_cores

    llc = Path("/sys/devices/system/cpu/cpu0/cache/index3/size")
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(cores),
        "affinity": cores,
        "rank_cores": rank_cores(cores),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "llc": llc.read_text().strip() if llc.exists() else "unknown",
        "world_size": WORLD_SIZE,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit,
    }


def measure(args, workload, cores) -> None:
    from recordbench.layers import traced_run
    from recordbench.metrics import end_to_end
    from recordbench.worlds import BACKENDS, WorldSpec, rank_cores, run_world

    t_start = time.perf_counter()
    inputs = workload.make_inputs(args.seed)
    pinned = rank_cores(cores)
    raw = None
    if args.trace:
        worlds, metrics = traced_run(workload, inputs, args.seconds, pinned)
    else:
        spec = WorldSpec(workload, inputs, args.seconds / (len(BACKENDS) * ROUNDS), pinned)
        worlds = [run_world(b, spec) for _ in range(ROUNDS) for b in BACKENDS]
        metrics, raw = end_to_end(worlds, workload.cross_rank)
    failed = sum(w.failed for w in worlds)
    report = {
        "workload": args.workload,
        "environment": environment(args, cores),
        "wall_s": time.perf_counter() - t_start,
        "mean_steal_share": sum(w.steal_share for w in worlds) / len(worlds),
        "raw": raw,
        "worlds": [
            {"backend": w.backend, "traced": w.traced, "steps": w.steps,
             "setup_s": w.setup_s, "steal_share": w.steal_share,
             "failed": w.failed, "leaked_blocks": w.leaked_blocks}
            for w in worlds
        ],
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(w.attempted for w in worlds),
        "failed": failed,
        "metrics": metrics,
    }))


def stop_helpers() -> None:
    """End the helper processes the shm backend leaves running, and wait.

    Rank processes are joined by the launcher; multiprocessing's shared
    resource tracker would otherwise outlive the run.
    """
    for child in multiprocessing.active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        from recordbench.workloads import WORKLOADS
        from recordbench.worlds import WORLD_SIZE, usable_cores
    except ImportError as exc:
        print(f"cannot import the collective library: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    cores = usable_cores()
    if len(cores) < WORLD_SIZE:
        print(f"need {WORLD_SIZE} usable cores for the timed worlds, have {cores}",
              file=sys.stderr)
        return 2
    try:
        measure(args, WORKLOADS[args.workload](), cores)
    finally:
        stop_helpers()
    return 0


if __name__ == "__main__":
    sys.exit(main())
