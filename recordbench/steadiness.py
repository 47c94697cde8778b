"""Steadiness report: spread of every end-to-end metric across repeated runs.

Runs the benchmark command of ``BENCHMARK.json`` several times per workload,
each with another seed, and reports for every end-to-end metric the median,
the quartile distance over the median (``statistics.quantiles(n=4)``) and
the metric's bound, flagging a spread above a third of the bound.  Next to
each normalised metric it shows the spread of the same figure as measured,
before normalisation (from the report line).  Run from the repository root::

    python3 recordbench/steadiness.py --runs 10 --out recordbench/steadiness.json
    python3 recordbench/steadiness.py --workloads small_msgs --runs 5 --first-seed 100
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(spec: dict, workload: str, seed: int, trace: int = 0) -> tuple:
    """(result line, report line) of one run."""
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2].removeprefix("report "))


def spread(values: list) -> float:
    """Quartile distance over the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="*")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    report = {"runs": args.runs, "run_seconds": spec["run_seconds"], "workloads": {}}
    steady = True
    for name in names:
        results, reports = [], []
        for i in range(args.runs):
            result, run_report = run_once(spec, name, args.first_seed + i)
            results.append(result)
            reports.append(run_report)
            values = {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}
            print(f"{name:11s} seed {args.first_seed + i}: {values}", flush=True)
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in results]
            s = spread(values)
            ok = metric["name"] == "setup_s" or s < metric["bound"] / 3
            steady &= ok
            raw_name = metric["name"].replace("norm_", "")
            raw = [r["raw"][raw_name] for r in reports]
            rows[metric["name"]] = {
                "median": statistics.median(values),
                "spread": s,
                "bound": metric["bound"],
                "within_third_of_bound": ok,
                "values": values,
                "measured_median": statistics.median(raw),
                "measured_spread": spread(raw),
                "measured_values": raw,
            }
            print(
                f"{name:11s} {metric['name']:26s} median {statistics.median(values):12.2f} "
                f"spread {s:6.3f} bound {metric['bound']:.2f} {'ok' if ok else 'WIDE'}  "
                f"(measured: median {statistics.median(raw):12.2f} spread {spread(raw):6.3f})",
                flush=True,
            )
        reference = {b: [r["raw"][f"{b}.reference_us"] for r in reports]
                     for b in ("threaded", "shm")}
        failed = sum(r["failed"] for r in results)
        report["workloads"][name] = {
            "metrics": rows,
            "reference_us": reference,
            "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
