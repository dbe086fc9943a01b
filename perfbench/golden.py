"""Regenerate ``golden.json``, the outputs ``run.py`` checks against.

    python3 perfbench/golden.py

Records the render digest of all 20 experiments, the simulated results
of serving window 0 for seeds 1-10 of both serving workloads, and the
exploration of every pinned model-check fault plan.  Run it only when a
change sets out to alter simulated behaviour, and say so in that change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import workloads  # noqa: E402

GOLDEN_SEEDS = range(1, 11)


def loaded(name: str):
    workload = workloads.make(name, {})
    workload.load()
    return workload


def main() -> int:
    suite = loaded("suite")
    golden = {"experiments": {name: suite.run(name)[1]["digest"] for name in suite.keys}}
    for name in ("serve-memcached", "overload-qos"):
        serving = loaded(name)
        golden[name] = {
            str(seed * 1000): serving.window(seed * 1000)[1] for seed in GOLDEN_SEEDS
        }
    modelcheck = loaded("modelcheck")
    golden["modelcheck"] = {
        str(seed): modelcheck.explore(seed)[1] for seed in workloads.MODELCHECK_PLAN_SEEDS
    }
    workloads.GOLDEN_FILE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {workloads.GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
