"""Extension: what bounds GENESYS throughput?

The CPU services every GPU system call, and the device serves the
data; GENESYS performance follows whichever is the bottleneck.  Two
sweeps make that concrete:

* **CPU cores** on a tmpfs pread burst (no device in the path): the
  workload is servicing-bound, so cores scale it — until the burst
  runs out of concurrency.
* **SSD channels** on the wordcount case study: the workload is
  I/O-bound, so device parallelism scales it while extra CPU cores or
  GPU compute units do nothing (also shown: a flat CU sweep).
"""

from __future__ import annotations

from typing import Dict

from repro.core.invocation import WaitMode
from repro.experiments import ExperimentResult
from repro.experiments.ext_sensitivity import burst_time
from repro.machine import MachineConfig
from repro.system import System
from repro.workloads.wordcount import WordcountWorkload

NAME = "ext-scaling"
TITLE = "Extension: CPU-core and SSD-channel scaling"

CPU_CORES = (1, 2, 4, 8)
SSD_CHANNELS = (1, 4, 8, 16)
GPU_CUS = (2, 8)
WC_PARAMS = dict(num_files=24, file_bytes=65536)


def wordcount_time(config: MachineConfig) -> float:
    with System(config=config) as system:
        workload = WordcountWorkload(system, **WC_PARAMS)
        return workload.run_genesys().runtime_ns


def sweep_cpu_cores() -> Dict[int, float]:
    return {
        cores: burst_time(MachineConfig(cpu_cores=cores), WaitMode.POLL)
        for cores in CPU_CORES
    }


def sweep_ssd_channels() -> Dict[int, float]:
    return {
        channels: wordcount_time(MachineConfig(ssd_channels=channels))
        for channels in SSD_CHANNELS
    }


def sweep_gpu_cus() -> Dict[int, float]:
    return {cus: wordcount_time(MachineConfig(num_cus=cus)) for cus in GPU_CUS}


def run() -> ExperimentResult:
    cores = sweep_cpu_cores()
    channels = sweep_ssd_channels()
    cus = sweep_gpu_cus()
    experiment = ExperimentResult(NAME)
    base = cores[CPU_CORES[0]]
    experiment.add_table(
        "Scaling: CPU cores (servicing-bound tmpfs pread burst)",
        ["cores", "runtime (us)", "speedup vs 1 core"],
        [(c, f"{t / 1000:.1f}", f"{base / t:.2f}x") for c, t in cores.items()],
    )
    base_ch = channels[SSD_CHANNELS[0]]
    experiment.add_table(
        "Scaling: SSD channels (I/O-bound wordcount)",
        ["channels", "runtime (ms)", "speedup vs 1 channel"],
        [(c, f"{t / 1e6:.2f}", f"{base_ch / t:.2f}x") for c, t in channels.items()],
    )
    base_cu = cus[GPU_CUS[0]]
    experiment.add_table(
        "Scaling: GPU compute units (I/O-bound wordcount — flat by design)",
        ["CUs", "runtime (ms)", "speedup vs 2 CUs"],
        [(c, f"{t / 1e6:.2f}", f"{base_cu / t:.2f}x") for c, t in cus.items()],
    )
    experiment.data = {"cores": cores, "channels": channels, "cus": cus}
    return experiment
