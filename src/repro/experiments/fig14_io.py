"""Figure 14: wordcount I/O throughput and CPU utilisation traces."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments import ExperimentResult
from repro.system import System
from repro.workloads.base import WorkloadResult
from repro.workloads.wordcount import WordcountWorkload

NAME = "fig14"
TITLE = "Figure 14: wordcount I/O throughput and CPU utilisation"

PARAMS = dict(num_files=32, file_bytes=65536)
TRACE_BINS = 8


def run_variant(name: str) -> Tuple[System, WorkloadResult]:
    with System() as system:
        workload = WordcountWorkload(system, **PARAMS)
        result = workload.run_cpu(4) if name == "cpu" else workload.run_genesys()
        return system, result


def run_both() -> Dict[str, Tuple[System, WorkloadResult]]:
    return {name: run_variant(name) for name in ("cpu", "genesys")}


def measurements(results: Dict[str, Tuple[System, WorkloadResult]]) -> Dict[str, tuple]:
    """(throughput MB/s, cpu utilisation, peak queue depth) per variant."""
    out = {}
    for name, (system, _result) in results.items():
        disk = system.kernel.disk
        out[name] = (
            disk.achieved_throughput() * 1000.0,
            system.cpu.utilization.average(),
            disk.max_queue_depth,
        )
    return out


def run() -> ExperimentResult:
    results = run_both()
    measured = measurements(results)
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["variant", "runtime (ms)", "disk MB/s", "CPU util", "peak I/O queue"],
        [
            (
                name,
                f"{results[name][1].runtime_ms:.2f}",
                f"{measured[name][0]:.0f}",
                f"{100 * measured[name][1]:.0f}%",
                measured[name][2],
            )
            for name in results
        ],
    )
    system, _result = results["genesys"]
    bin_ns = max(1.0, system.now / TRACE_BINS)
    series = system.kernel.disk.throughput_series(bin_ns)
    experiment.add_table(
        "GENESYS disk-throughput trace",
        ["t (ms)", "MB/s"],
        [(f"{t / 1e6:.2f}", f"{rate * 1000:.0f}") for t, rate in series],
    )
    experiment.data = {"results": results, "measured": measured}
    return experiment
