"""Extension: sensitivity of GENESYS to its implementation knobs.

The paper closes with design guidelines for practitioners; this
extension experiment quantifies how the main implementation parameters
move the needle on a fixed syscall-heavy workload (64 work-group preads
of 16 KiB from tmpfs):

* the GPU-side poll interval — finer polling sees completions sooner
  but burns atomics;
* the halt-resume wake latency — the break-even against polling;
* the OS worker-pool size — how much CPU-side servicing parallelism
  the syscall burst can use.
"""

from __future__ import annotations

from typing import Dict

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.experiments import ExperimentResult
from repro.machine import MachineConfig
from repro.system import System

NAME = "ext-sensitivity"
TITLE = "Extension: sensitivity to implementation parameters"

NUM_GROUPS = 64
WG_SIZE = 64
READ_BYTES = 16384

POLL_INTERVALS = (250.0, 1000.0, 4000.0)
HALT_LATENCIES = (1000.0, 5000.0, 20000.0)
WORKER_COUNTS = (2, 8, 32)


def burst_time(config: MachineConfig, wait: WaitMode) -> float:
    """64 concurrent work-group preads of 16 KiB from tmpfs
    (servicing-bound)."""
    system = System(config=config)
    total = READ_BYTES * NUM_GROUPS
    system.kernel.fs.create_file("/tmp/data", b"\x77" * total)
    bufs = [system.memsystem.alloc_buffer(READ_BYTES) for _ in range(NUM_GROUPS)]

    def kern(ctx):
        fd = yield from ctx.sys.open(
            "/tmp/data", granularity=Granularity.WORK_GROUP,
            ordering=Ordering.RELAXED, wait=wait,
        )
        yield from ctx.sys.pread(
            fd, bufs[ctx.group_id], READ_BYTES, READ_BYTES * ctx.group_id,
            granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
            wait=wait,
        )

    return system.run_kernel(kern, NUM_GROUPS * WG_SIZE, WG_SIZE, name="burst")


def sweep_poll_interval() -> Dict[float, float]:
    return {
        interval: burst_time(
            MachineConfig(poll_interval_ns=interval), WaitMode.POLL
        )
        for interval in POLL_INTERVALS
    }


def sweep_halt_latency() -> Dict[float, float]:
    return {
        latency: burst_time(
            MachineConfig(halt_resume_ns=latency), WaitMode.HALT_RESUME
        )
        for latency in HALT_LATENCIES
    }


def sweep_workers() -> Dict[int, float]:
    return {
        workers: burst_time(
            MachineConfig(workqueue_workers=workers), WaitMode.POLL
        )
        for workers in WORKER_COUNTS
    }


def run() -> ExperimentResult:
    poll = sweep_poll_interval()
    halt = sweep_halt_latency()
    workers = sweep_workers()
    result = ExperimentResult(NAME)
    result.add_table(
        "Sensitivity: GPU poll interval (polling wait)",
        ["poll interval (ns)", "runtime (us)"],
        [(int(k), f"{v / 1000:.1f}") for k, v in poll.items()],
    )
    result.add_table(
        "Sensitivity: halt-resume wake latency",
        ["resume latency (ns)", "runtime (us)"],
        [(int(k), f"{v / 1000:.1f}") for k, v in halt.items()],
    )
    result.add_table(
        "Sensitivity: OS worker-pool size (64-call burst)",
        ["workers", "runtime (us)"],
        [(k, f"{v / 1000:.1f}") for k, v in workers.items()],
    )
    result.data = {"poll": poll, "halt": halt, "workers": workers}
    return result
