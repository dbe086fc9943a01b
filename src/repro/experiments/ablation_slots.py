"""Ablation: one-slot-per-cacheline vs packed syscall-area layout."""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.invocation import Granularity
from repro.experiments import ExperimentResult
from repro.machine import small_machine
from repro.system import System

NAME = "ablation-slots"
TITLE = "Ablation: syscall-area slot layout"


def syscall_storm(stride: int) -> Tuple[float, int]:
    """Many per-work-item calls against a given slot layout; returns
    (elapsed ns, GPU DRAM accesses)."""
    with System(config=small_machine(), slot_stride_bytes=stride) as system:
        system.kernel.fs.create_file("/tmp/f", b"s" * 4096)
        bufs = [system.memsystem.alloc_buffer(16) for _ in range(16)]

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", granularity=Granularity.WORK_GROUP)
            for round_no in range(4):
                yield from ctx.sys.pread(fd, bufs[ctx.global_id], 16, 16 * round_no)

        elapsed = system.run_kernel(kern, 16, 8, name="slot-ablation")
        return elapsed, system.memsystem.dram.gpu_accesses


def run_both() -> Dict[str, Tuple[float, int]]:
    return {"one-per-line": syscall_storm(64), "packed-4-per-line": syscall_storm(16)}


def run() -> ExperimentResult:
    results = run_both()
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["layout", "runtime (us)", "GPU DRAM accesses"],
        [
            (name, f"{elapsed / 1000:.1f}", dram)
            for name, (elapsed, dram) in results.items()
        ],
    )
    experiment.data = results
    return experiment
