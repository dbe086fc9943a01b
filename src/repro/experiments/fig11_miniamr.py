"""Figure 11: miniAMR memory footprint under GPU-directed madvise."""

from __future__ import annotations

from typing import Dict

from repro.experiments import ExperimentResult
from repro.machine import MachineConfig
from repro.system import System
from repro.workloads.base import WorkloadResult
from repro.workloads.miniamr import MiniAmrWorkload

NAME = "fig11"
TITLE = "Figure 11: miniAMR with GPU-directed memory management"

PHYS_MEM = int(2.5 * 1024 * 1024)
WM_HIGH = int(2.2 * 1024 * 1024)  # the paper's "rss-4gb" analogue
WM_LOW = int(1.6 * 1024 * 1024)   # the paper's "rss-3gb" analogue


def run_variant(**options) -> WorkloadResult:
    """One miniAMR run with ``options`` on its own machine."""
    config = MachineConfig(phys_mem_bytes=PHYS_MEM, gpu_timeout_faults=48)
    with System(config=config) as system:
        return MiniAmrWorkload(system).run(**options)


def run_variants() -> Dict[str, WorkloadResult]:
    return {
        "baseline": run_variant(use_madvise=False),
        "rss-high": run_variant(rss_watermark_bytes=WM_HIGH),
        "rss-low": run_variant(rss_watermark_bytes=WM_LOW),
    }


def run() -> ExperimentResult:
    results = run_variants()
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["variant", "outcome", "runtime (ms)", "peak RSS (KiB)", "major faults"],
        [
            (
                name,
                "completed" if res.metrics["completed"] else "KILLED (watchdog)",
                f"{res.runtime_ms:.2f}",
                res.metrics["peak_rss_bytes"] // 1024,
                res.metrics["major_faults"],
            )
            for name, res in results.items()
        ],
    )
    experiment.data = {"results": results, "phys_mem": PHYS_MEM}
    return experiment
