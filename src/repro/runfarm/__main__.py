"""``python -m repro.runfarm`` — the run-farm command line.

Subcommands
-----------
``chaos``
    Farm the chaos matrix (``repro.faults``) across worker processes
    and print a merged, order-independent summary.  Exits nonzero if
    any cell fails its invariants — the sharded equivalent of the
    serial chaos smoke.

``pytest``
    Shard the test suite's files round-robin across workers, each an
    independent ``python -m pytest`` subprocess; exits nonzero if any
    shard fails.  Used by CI to run tier-1 on 4 workers.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time
from typing import List

from repro.runfarm import (
    default_workers,
    merge_reports,
    run_chaos_matrix,
    shard,
)


def _parse_seeds(text: str) -> List[int]:
    """``1,2,5`` or ``1:6`` (half-open range) or a mix of both."""
    seeds: List[int] = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" in part:
            lo, hi = part.split(":", 1)
            seeds.extend(range(int(lo), int(hi)))
        else:
            seeds.append(int(part))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults import chaos

    experiments = (
        list(chaos.EXPERIMENTS)
        if args.experiments == "all"
        else [e.strip() for e in args.experiments.split(",") if e.strip()]
    )
    start = time.perf_counter()
    results = run_chaos_matrix(
        experiments,
        args.seeds,
        workers=args.workers,
        intensity=args.intensity,
        gsan=args.gsan,
    )
    wall = time.perf_counter() - start
    summary = merge_reports(results)
    summary["wall_s"] = round(wall, 3)
    summary["workers"] = args.workers
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {"summary": summary, "cells": [r for _, r in results]}, fh, indent=2
            )
    for (experiment, seed), report in results:
        status = "ok" if report["ok"] else "FAIL"
        line = (
            f"  {experiment:<10} seed={seed:<4} {status:<5} "
            f"injected={report['injected']}"
        )
        if "gsan" in report:
            line += f" gsan_events={report['gsan']['events']}"
        print(line)
        for violation in report["violations"]:
            print(f"      {violation}")
    print(
        f"chaos matrix: {summary['cells']} cells, {summary['ok']} ok, "
        f"{summary['failed']} failed on {args.workers} worker(s) in {wall:.2f}s"
    )
    return 0 if summary["failed"] == 0 else 1


def _cmd_pytest(args: argparse.Namespace) -> int:
    files = sorted(glob.glob(os.path.join(args.tests, "test_*.py")))
    if not files:
        print(f"no test files under {args.tests!r}", file=sys.stderr)
        return 2
    shards = [s for s in shard(files, args.workers) if s]
    env = dict(os.environ)
    src = os.path.abspath("src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    start = time.perf_counter()
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", *args.pytest_args, *shard_files],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        for shard_files in shards
    ]
    failed = 0
    for index, proc in enumerate(procs):
        output, _ = proc.communicate()
        tail = [line for line in output.strip().splitlines() if line.strip()][-1:]
        status = "ok" if proc.returncode == 0 else f"FAIL rc={proc.returncode}"
        print(f"shard {index}/{len(procs)} ({len(shards[index])} files): {status}"
              f" — {tail[0] if tail else ''}")
        if proc.returncode != 0:
            failed += 1
            print(output)
    wall = time.perf_counter() - start
    print(
        f"pytest farm: {len(procs)} shard(s), {failed} failed, "
        f"{wall:.1f}s wall on {args.workers} worker(s)"
    )
    if args.budget_s and wall > args.budget_s:
        print(f"wall-time budget exceeded: {wall:.1f}s > {args.budget_s:.1f}s")
        return 3
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runfarm", description=__doc__.split("\n", 1)[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chaos_p = sub.add_parser("chaos", help="farm the chaos matrix")
    chaos_p.add_argument("--experiments", default="all")
    chaos_p.add_argument("--seeds", type=_parse_seeds, default=list(range(1, 7)))
    chaos_p.add_argument("--workers", type=int, default=default_workers())
    chaos_p.add_argument("--intensity", type=float, default=1.0)
    chaos_p.add_argument(
        "--gsan", action="store_true",
        help="run every cell under the GSan race sanitizer; any "
        "violation fails the cell",
    )
    chaos_p.add_argument("--json", help="write merged cells + summary to this file")
    chaos_p.set_defaults(fn=_cmd_chaos)

    pytest_p = sub.add_parser("pytest", help="shard the test suite")
    pytest_p.add_argument("--tests", default="tests")
    pytest_p.add_argument("--workers", type=int, default=default_workers())
    pytest_p.add_argument(
        "--budget-s", type=float, default=0.0,
        help="fail if total wall time exceeds this many seconds",
    )
    pytest_p.add_argument("pytest_args", nargs="*", default=[])
    pytest_p.set_defaults(fn=_cmd_pytest)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
