"""Figure 13b: wordcount from SSD (the GPUfs workload)."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.experiments import ExperimentResult
from repro.system import System
from repro.workloads.base import WorkloadResult
from repro.workloads.wordcount import WordcountWorkload

NAME = "fig13b"
TITLE = "Figure 13b: wordcount (open/read/close from SSD)"

PARAMS = dict(num_files=32, file_bytes=65536)


def run_variants(**overrides) -> Dict[str, Tuple[System, WorkloadResult]]:
    params = dict(PARAMS)
    params.update(overrides)
    out: Dict[str, Tuple[System, WorkloadResult]] = {}
    for name, runner in (
        ("cpu", lambda w: w.run_cpu(4)),
        ("gpu-nosyscall", lambda w: w.run_gpu_nosyscall()),
        ("genesys", lambda w: w.run_genesys()),
    ):
        with System() as system:
            out[name] = (system, runner(WordcountWorkload(system, **params)))
    return out


def run() -> ExperimentResult:
    results = run_variants()
    base = results["cpu"][1].runtime_ns
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["variant", "runtime (ms)", "speedup vs cpu"],
        [
            (name, f"{res.runtime_ms:.2f}", f"{base / res.runtime_ns:.2f}x")
            for name, (_system, res) in results.items()
        ],
    )
    experiment.data = results
    return experiment
