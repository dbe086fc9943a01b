"""Figure 7: impact of system-call invocation granularity (see the
module docstring in benchmarks/test_fig7_granularity.py history — this
is the library-side implementation)."""

from __future__ import annotations

from typing import Dict

from repro.core.invocation import Granularity, Ordering
from repro.experiments import ExperimentResult
from repro.machine import MachineConfig
from repro.system import System

NAME = "fig7"
TITLE = "Figure 7: invocation granularity"

TOTAL_WORKITEMS = 256
FILE_SIZES = (16 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024)
WG_SIZES = (64, 256, 1024)


def pread_time(
    file_bytes: int,
    granularity: Granularity,
    wg_size: int = 64,
    total_workitems: int = TOTAL_WORKITEMS,
) -> float:
    """Simulated time to read a whole tmpfs file at one granularity."""
    with System(config=MachineConfig()) as system:
        system.kernel.fs.create_file("/tmp/data", b"\xab" * file_bytes)
        num_groups = total_workitems // wg_size
        mem = system.memsystem
        bufs: Dict = {}

        def kern(ctx):
            fd = yield from ctx.sys.open(
                "/tmp/data",
                granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
            )
            if granularity is Granularity.WORK_ITEM:
                share = file_bytes // total_workitems
                buf = bufs.setdefault(ctx.global_id, mem.alloc_buffer(share))
                yield from ctx.sys.pread(fd, buf, share, share * ctx.global_id)
            elif granularity is Granularity.WORK_GROUP:
                share = file_bytes // num_groups
                buf = bufs.setdefault(("wg", ctx.group_id), mem.alloc_buffer(share))
                yield from ctx.sys.pread(
                    fd, buf, share, share * ctx.group_id,
                    granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
                )
            else:
                buf = bufs.setdefault("kernel", mem.alloc_buffer(file_bytes))
                yield from ctx.sys.pread(
                    fd, buf, file_bytes, 0,
                    granularity=Granularity.KERNEL, ordering=Ordering.RELAXED,
                )

        return system.run_kernel(kern, total_workitems, wg_size, name="fig7")


def run_left() -> Dict[int, Dict[str, float]]:
    """Left panel: file-size sweep across granularities."""
    results: Dict[int, Dict[str, float]] = {}
    for size in FILE_SIZES:
        results[size] = {
            "work-item": pread_time(size, Granularity.WORK_ITEM),
            "work-group": pread_time(size, Granularity.WORK_GROUP),
            "kernel": pread_time(size, Granularity.KERNEL),
        }
    return results


def run_right(file_bytes: int = 64 * 1024, total: int = 1024) -> Dict[int, float]:
    """Right panel: work-group-size sweep (overhead-dominated regime)."""
    return {
        wg: pread_time(file_bytes, Granularity.WORK_GROUP, wg_size=wg, total_workitems=total)
        for wg in WG_SIZES
    }


def run() -> ExperimentResult:
    left = run_left()
    right = run_right()
    result = ExperimentResult(NAME)
    result.add_table(
        "Figure 7 (left): pread time (ms) by invocation granularity",
        ["file size", "work-item", "work-group", "kernel"],
        [
            (
                f"{size // 1024} KiB",
                f"{left[size]['work-item'] / 1e6:.3f}",
                f"{left[size]['work-group'] / 1e6:.3f}",
                f"{left[size]['kernel'] / 1e6:.3f}",
            )
            for size in FILE_SIZES
        ],
    )
    result.add_table(
        "Figure 7 (right): pread time (ms) by work-group size",
        ["wg size", "time (ms)"],
        [(f"wg{wg}", f"{right[wg] / 1e6:.3f}") for wg in WG_SIZES],
    )
    result.data = {"left": left, "right": right}
    return result
