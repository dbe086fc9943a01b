"""Figure 12: signal-search — overlap via rt_sigqueueinfo."""

from __future__ import annotations

from typing import Tuple

from repro.experiments import ExperimentResult
from repro.system import System
from repro.workloads.base import WorkloadResult
from repro.workloads.signal_search import SignalSearchWorkload

NAME = "fig12"
TITLE = "Figure 12: CPU-GPU map-reduce runtime"


def run_pair() -> Tuple[WorkloadResult, WorkloadResult]:
    with System() as system:
        baseline = SignalSearchWorkload(system).run_baseline()
    with System() as system:
        genesys = SignalSearchWorkload(system).run_genesys()
    return baseline, genesys


def run() -> ExperimentResult:
    baseline, genesys = run_pair()
    speedup = baseline.runtime_ns / genesys.runtime_ns - 1
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["variant", "runtime (ms)"],
        [
            ("baseline (serialised phases)", f"{baseline.runtime_ms:.3f}"),
            ("GENESYS (signals overlap)", f"{genesys.runtime_ms:.3f}"),
            ("speedup", f"{100 * speedup:.1f}%  (paper: ~14%)"),
        ],
    )
    experiment.data = {"baseline": baseline, "genesys": genesys, "speedup": speedup}
    return experiment
