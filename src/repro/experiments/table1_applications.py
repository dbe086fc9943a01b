"""Table I: applications enabled by GENESYS and the syscalls they use."""

from __future__ import annotations

from typing import Dict, Set

from repro.core.invocation import Granularity, WaitMode
from repro.experiments import ExperimentResult
from repro.machine import MachineConfig
from repro.system import System
from repro.workloads.bmp_display import BmpDisplayWorkload
from repro.workloads.grepwl import GrepWorkload
from repro.workloads.memcachedwl import MemcachedWorkload
from repro.workloads.miniamr import MiniAmrWorkload
from repro.workloads.signal_search import SignalSearchWorkload
from repro.workloads.wordcount import WordcountWorkload

NAME = "table1"
TITLE = "Table I: applications and the syscalls they exercise"

#: application -> (Table I type, the syscalls Table I lists).
TABLE1: Dict[str, tuple] = {
    "miniamr": ("Memory Management", {"madvise", "getrusage"}),
    "signal-search": ("Signals", {"rt_sigqueueinfo"}),
    "grep": ("Filesystem", {"read", "open", "close"}),
    "bmp-display": ("Device Control", {"ioctl", "mmap"}),
    "wordsearch": ("Filesystem", {"pread", "read"}),
    "memcached": ("Network", {"sendto", "recvfrom"}),
}


def run_all() -> Dict[str, Set[str]]:
    """Run scaled instances of every case study; returns the syscalls
    each one's system observed."""
    used: Dict[str, Set[str]] = {}

    with System(
        config=MachineConfig(
            phys_mem_bytes=int(2.5 * 1024 * 1024), gpu_timeout_faults=48
        )
    ) as system:
        MiniAmrWorkload(system, timesteps=12).run(
            rss_watermark_bytes=int(1.6 * 1024 * 1024)
        )
        used["miniamr"] = set(system.kernel.syscall_counts)

    with System() as system:
        SignalSearchWorkload(system, num_blocks=8, block_bytes=8192).run_genesys()
        used["signal-search"] = set(system.kernel.syscall_counts)

    with System(config=MachineConfig(gpu_l2_lines=256)) as system:
        grep = GrepWorkload(system, num_files=8, file_bytes=16384)
        grep.run_genesys(Granularity.WORK_ITEM, WaitMode.POLL)
        used["grep"] = set(system.kernel.syscall_counts)

    with System() as system:
        BmpDisplayWorkload(system, width=64, height=64).run()
        used["bmp-display"] = set(system.kernel.syscall_counts)

    with System() as system:
        WordcountWorkload(system, num_files=8, file_bytes=16384).run_genesys()
        used["wordsearch"] = set(system.kernel.syscall_counts)

    with System() as system:
        workload = MemcachedWorkload(
            system, num_buckets=4, elems_per_bucket=64, value_bytes=128,
            num_requests=16, concurrency=4,
        )
        workload.run_genesys(num_workgroups=4)
        used["memcached"] = set(system.kernel.syscall_counts)
    return used


def run() -> ExperimentResult:
    used = run_all()
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["application", "type", "Table I syscalls", "observed"],
        [
            (
                app,
                app_type,
                ", ".join(sorted(expected)),
                ", ".join(sorted(used[app] & expected)),
            )
            for app, (app_type, expected) in TABLE1.items()
        ],
    )
    experiment.data = {"used": used, "expected": TABLE1}
    return experiment
