"""Figure 13a: grep -F -l across CPU and GENESYS variants."""

from __future__ import annotations

from typing import Callable, Dict

from repro.core.invocation import Granularity, WaitMode
from repro.experiments import ExperimentResult
from repro.machine import MachineConfig
from repro.system import System
from repro.workloads.base import WorkloadResult
from repro.workloads.grepwl import GrepWorkload

NAME = "fig13a"
TITLE = "Figure 13a: grep -F -l runtime"

PARAMS = dict(num_files=64, file_bytes=262144, chunk_bytes=131072)


#: Each variant: how it runs on a fresh workload.
VARIANTS: Dict[str, Callable[[GrepWorkload], WorkloadResult]] = {
    "cpu": lambda w: w.run_cpu(threads=1),
    "openmp": lambda w: w.run_cpu(threads=4),
    "wg": lambda w: w.run_genesys(Granularity.WORK_GROUP, WaitMode.POLL),
    "wi-poll": lambda w: w.run_genesys(Granularity.WORK_ITEM, WaitMode.POLL),
    "wi-halt": lambda w: w.run_genesys(Granularity.WORK_ITEM, WaitMode.HALT_RESUME),
}


def run_variant(variant: str, **overrides) -> WorkloadResult:
    """One variant on its own machine, whose GPU L2 is scaled with the
    corpus (see EXPERIMENTS.md)."""
    with System(config=MachineConfig(gpu_l2_lines=256)) as system:
        return VARIANTS[variant](GrepWorkload(system, **{**PARAMS, **overrides}))


def run_variants(**overrides) -> Dict[str, WorkloadResult]:
    return {variant: run_variant(variant, **overrides) for variant in VARIANTS}


def run() -> ExperimentResult:
    results = run_variants()
    base = results["cpu"].runtime_ns
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["variant", "runtime (ms)", "speedup vs cpu"],
        [
            (name, f"{res.runtime_ms:.2f}", f"{base / res.runtime_ns:.2f}x")
            for name, res in results.items()
        ],
    )
    experiment.data = results
    return experiment
