"""Figure 16: GPU blit to /dev/fb0 via ioctl + mmap."""

from __future__ import annotations

from typing import Tuple

from repro.experiments import ExperimentResult
from repro.system import System
from repro.workloads.base import WorkloadResult
from repro.workloads.bmp_display import BmpDisplayWorkload

NAME = "fig16"
TITLE = "Figure 16: GPU blit to /dev/fb0"


def run_display(width: int = 64, height: int = 64) -> Tuple[System, BmpDisplayWorkload, WorkloadResult]:
    with System() as system:
        workload = BmpDisplayWorkload(system, width=width, height=height)
        result = workload.run()
        return system, workload, result


def run() -> ExperimentResult:
    system, workload, result = run_display()
    metrics = result.metrics
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["metric", "value"],
        [
            ("mode set via ioctl", f"{metrics['mode'][0]}x{metrics['mode'][1]}"),
            ("ioctls from GPU", metrics["ioctls"]),
            ("display pans", metrics["pans"]),
            ("pixels identical", metrics["displayed_correctly"]),
            ("simulated time (ms)", f"{result.runtime_ms:.3f}"),
        ],
    )
    experiment.data = {
        "system": system,
        "workload": workload,
        "result": result,
        "syscall_counts": dict(system.kernel.syscall_counts),
    }
    return experiment
