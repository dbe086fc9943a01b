#!/usr/bin/env python
"""Run-farm demo: shard a chaos matrix across worker processes.

``repro.runfarm`` runs each cell on its own freshly built machine and
merges the results sorted by key, so the merge is identical to the
serial run no matter how many workers did the work.

Run:  python examples/runfarm_demo.py
"""

from repro.faults import chaos
from repro.runfarm import merge_reports, run_chaos_matrix

EXPERIMENTS = ["fig2", "udp-echo"]
SEEDS = [1, 2, 3]


def main():
    serial = {(r.experiment, r.seed): r.as_dict()
              for r in chaos.run_matrix(EXPERIMENTS, SEEDS)}
    farmed = run_chaos_matrix(EXPERIMENTS, SEEDS, workers=2)
    assert {key: report for key, report in farmed} == serial
    summary = merge_reports(farmed)
    print(f"chaos matrix: {summary['cells']} cells on 2 workers, "
          f"{summary['ok']} ok, merge identical to the serial run")
    for experiment, rollup in sorted(summary["by_experiment"].items()):
        print(f"  {experiment}: {rollup['cells']} cells, "
              f"{rollup['injected']} faults injected, {rollup['ok']} ok")


if __name__ == "__main__":
    main()
