"""Run every workload for three rounds and report median, min and max.

    python3 perfbench/report.py [--workloads suite,modelcheck] [--seed 1]
                                [--seconds 15] [--trace 1] [--output PATH]

Each (round, workload) is one fresh ``run.py`` process, one at a time,
round-robin, so slow drift on the host spreads over every workload
alike.  ``--trace 1`` adds one profiled run per workload and prints its
layer split.  The JSON report (default ``BENCH_perfbench.json`` at the
repo root) holds every value measured.  Exits 1 if any output check
failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import workloads  # noqa: E402

ROUNDS = 3


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``run.py`` process: its result line, plus its details."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: run.py printed no result\n{proc.stderr}")
    sys.stderr.write(proc.stderr)
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])
    return result


def summarise(runs: list) -> dict:
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {
            "unit": first["unit"],
            "median": statistics.median(values),
            "min": min(values),
            "max": max(values),
            "values": values,
        }
    return metrics


def observers_overhead(rows: dict):
    """``observed`` wall over the bare ``suite`` time of the same five
    experiments, per round, median; ``None`` unless both ran."""
    if "suite" not in rows or "observed" not in rows:
        return None
    ratios = []
    for suite, observed in zip(rows["suite"], rows["observed"]):
        bare = sum(
            statistics.median(suite["detail"]["op_ref_s"][name]) for name in workloads.OBSERVED
        )
        ratios.append(observed["metrics"]["wall_ref_s"]["value"] / bare)
    return statistics.median(ratios)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(workloads.NAMES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--output", default=str(BENCH_DIR.parent / "BENCH_perfbench.json"))
    args = parser.parse_args(argv)
    names = args.workloads.split(",")
    unknown = sorted(set(names) - set(workloads.NAMES))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {workloads.NAMES}")

    rows = {name: [] for name in names}
    for _round in range(ROUNDS):
        for name in names:
            rows[name].append(run_once(name, args.seed, args.seconds, 0))
    traced = {}
    if args.trace:
        traced = {name: run_once(name, args.seed, args.seconds, 1) for name in names}

    report = {
        "schema": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": ROUNDS,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "observers_overhead_x": observers_overhead(rows),
        "workloads": {},
    }
    correct = True
    for name in names:
        runs = rows[name] + ([traced[name]] if name in traced else [])
        entry = report["workloads"][name] = {
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "end_to_end": summarise(rows[name]),
            "runs": [run["detail"] for run in runs],
        }
        correct &= entry["correct"]
        print(f"{name}  correct={entry['correct']}  ops={entry['attempted']}")
        for metric, stat in entry["end_to_end"].items():
            print(f"  {metric:14s} {stat['median']:10.4f} {stat['unit']:4s}"
                  f" [{stat['min']:.4f} .. {stat['max']:.4f}]")
        if name in traced:
            layer = entry["per_layer"] = {
                metric: value["value"] for metric, value in traced[name]["metrics"].items()
            }
            shares = sorted(
                ((value, metric.split(".")[1]) for metric, value in layer.items()
                 if metric.startswith("layer.") and metric.endswith(".share")),
                reverse=True,
            )
            top = ", ".join(f"{bucket} {share:.0%}" for share, bucket in shares if share >= 0.01)
            print(f"  layers (profiled, {layer['trace.overhead_x']:.1f}x slower): {top}")
            print(f"  sim.events {layer['sim.events']}, "
                  f"{layer['sim.host_ns_per_event']:.0f} host ns/event at reference speed")
    if report["observers_overhead_x"] is not None:
        print(f"observers overhead: {report['observers_overhead_x']:.2f}x the bare experiments")
    Path(args.output).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.output}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
