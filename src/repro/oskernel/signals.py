"""POSIX real-time signals with queued siginfo payloads.

Backs the Section VIII-B signal-search case study: GPU work-groups call
``rt_sigqueueinfo`` to notify the host process of partial completions,
passing an identifier through the ``siginfo`` value field; a CPU thread
drains them with ``sigwaitinfo`` and overlaps processing with the
still-running GPU kernel.
"""

from __future__ import annotations

from typing import Generator

from repro.oskernel.errors import Errno, OsError
from repro.sim.engine import Simulator
from repro.sim.resources import Store

SIGRTMIN = 34
SIGRTMAX = 64
#: Linux's default per-process queued-signal limit (RLIMIT_SIGPENDING).
DEFAULT_SIGPENDING_LIMIT = 11811


class SigInfo:
    """The subset of siginfo_t the workloads use."""

    __slots__ = ("signo", "value", "sender_pid")

    def __init__(self, signo: int, value: int, sender_pid: int):
        self.signo = signo
        self.value = value
        self.sender_pid = sender_pid

    def __repr__(self) -> str:
        return f"SigInfo(signo={self.signo}, value={self.value}, from={self.sender_pid})"


class SignalQueue:
    """Per-process queue of pending real-time signals."""

    def __init__(self, sim: Simulator, pid: int, limit: int = DEFAULT_SIGPENDING_LIMIT):
        self.sim = sim
        self.pid = pid
        self.limit = limit
        self._store = Store(sim, name=f"sigq{pid}")
        self.delivered = 0
        self.consumed = 0

    def pending(self) -> int:
        return len(self._store)

    def queue(self, info: SigInfo) -> None:
        if not SIGRTMIN <= info.signo <= SIGRTMAX:
            raise OsError(Errno.EINVAL, f"signo {info.signo} not a realtime signal")
        if self.pending() >= self.limit:
            raise OsError(Errno.EAGAIN, "signal queue full")
        self.delivered += 1
        self._store.put(info)

    def sigwaitinfo(self) -> Generator:
        """Process body: block until a signal arrives; returns SigInfo."""
        info = yield self._store.get()
        self.consumed += 1
        return info
