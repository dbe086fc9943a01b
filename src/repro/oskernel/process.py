"""Process abstraction: the context system calls execute against.

The paper's key OS observation (Sections IV and VI) is that GPU threads
have *no* kernel representation — syscalls raised from the GPU are
serviced by OS worker threads that must adopt the context of the CPU
process that launched the kernel.  :class:`OsProcess` is that context:
fd table, address space, signal queue, and resource usage.
"""

from __future__ import annotations

from typing import Optional, TYPE_CHECKING

from repro.oskernel.fs import FdTable
from repro.oskernel.signals import SignalQueue
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.oskernel.mm import AddressSpace


class Rusage:
    """The getrusage(2) fields the workloads consume."""

    __slots__ = ("ru_maxrss_kb", "ru_minflt", "ru_majflt", "ru_utime_ns", "ru_stime_ns")

    def __init__(self):
        self.ru_maxrss_kb = 0
        self.ru_minflt = 0
        self.ru_majflt = 0
        self.ru_utime_ns = 0.0
        self.ru_stime_ns = 0.0

    def as_dict(self) -> dict:
        return {
            "ru_maxrss": self.ru_maxrss_kb,
            "ru_minflt": self.ru_minflt,
            "ru_majflt": self.ru_majflt,
            "ru_utime_ns": self.ru_utime_ns,
            "ru_stime_ns": self.ru_stime_ns,
        }


class OsProcess:
    """One process context; ``pid`` is numbered by the
    :class:`~repro.oskernel.linux.LinuxKernel` that creates it."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        pid: int = 0,
        address_space: Optional["AddressSpace"] = None,
    ):
        self.sim = sim
        self.name = name
        self.pid = pid
        self.fds = FdTable()
        self.address_space = address_space
        self.signals = SignalQueue(sim, self.pid)
        self.rusage = Rusage()
        self.alive = True

    def snapshot_rusage(self) -> Rusage:
        """Refresh and return resource usage (the getrusage service)."""
        usage = self.rusage
        if self.address_space is not None:
            aspace = self.address_space
            usage.ru_maxrss_kb = max(
                usage.ru_maxrss_kb, aspace.peak_rss_pages * aspace.page_bytes // 1024
            )
            usage.ru_minflt = aspace.minor_faults
            usage.ru_majflt = aspace.major_faults
        return usage

    @property
    def current_rss_bytes(self) -> int:
        """Current resident set size (what the miniAMR watermark reads)."""
        if self.address_space is None:
            return 0
        return self.address_space.rss_bytes

    def __repr__(self) -> str:
        return f"OsProcess(pid={self.pid}, {self.name!r})"
