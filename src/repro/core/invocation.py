"""The GPU system-call design space (paper Section V).

Three orthogonal axes govern every invocation:

* **Granularity** — per work-item, per work-group (one designated
  caller, barriers around it), or per kernel (a single caller for the
  whole launch).
* **Ordering** — strong (all in-scope work-items finish pre-call work
  before the call; none proceed until it returns) or relaxed (drop the
  barrier on the side the data flow does not require).
* **Blocking** — whether the caller waits for completion at all.

Relaxed ordering drops one of the two work-group barriers depending on
whether the call *produces* data for the GPU (read-like: keep the
post-call barrier) or *consumes* data from it (write-like: keep the
pre-call barrier) — Section V-A's producer/consumer analysis.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.oskernel.process import OsProcess


class Granularity(Enum):
    WORK_ITEM = "work-item"
    WORK_GROUP = "work-group"
    KERNEL = "kernel"


class Ordering(Enum):
    STRONG = "strong"
    RELAXED = "relaxed"


class WaitMode(Enum):
    """How a blocked invocation waits for CPU completion (Section V-C)."""

    POLL = "poll"
    HALT_RESUME = "halt-resume"


class SyscallKind(Enum):
    """Data-flow direction of a call, for relaxed-ordering barrier
    placement."""

    PRODUCER = "producer"  # returns data the GPU consumes (read-like)
    CONSUMER = "consumer"  # takes data the GPU produced (write-like)


# Bound once: ``syscall_kind`` runs on every lane of a work-group call,
# and a member lookup through its Enum class costs about eight times a
# module-global load.
_PRODUCER = SyscallKind.PRODUCER

#: Which implemented syscalls are producers vs consumers.
SYSCALL_KINDS: Dict[str, SyscallKind] = {
    "open": SyscallKind.PRODUCER,
    "read": SyscallKind.PRODUCER,
    "pread": SyscallKind.PRODUCER,
    "lseek": SyscallKind.PRODUCER,
    "recvfrom": SyscallKind.PRODUCER,
    "getrusage": SyscallKind.PRODUCER,
    "mmap": SyscallKind.PRODUCER,
    "ioctl": SyscallKind.PRODUCER,
    "socket": SyscallKind.PRODUCER,
    "bind": SyscallKind.PRODUCER,
    "close": SyscallKind.CONSUMER,
    "write": SyscallKind.CONSUMER,
    "pwrite": SyscallKind.CONSUMER,
    "sendto": SyscallKind.CONSUMER,
    "munmap": SyscallKind.CONSUMER,
    "madvise": SyscallKind.CONSUMER,
    "rt_sigqueueinfo": SyscallKind.CONSUMER,
}


def syscall_kind(name: str) -> SyscallKind:
    """Kind of ``name``; unknown calls default to PRODUCER (the safe
    choice: their results are awaited)."""
    return SYSCALL_KINDS.get(name, _PRODUCER)


class SyscallRequest:
    """One system-call request as stored in a syscall-area slot.

    Mirrors the slot contents of the paper's Figure 5: syscall number
    (name here), up to six arguments, and the blocking bit; the
    ``args`` field doubles as the return-value storage on completion.
    ``invocation_id`` is the machine-unique id GENESYS mints at submit
    time; span tracing (:mod:`repro.tracing`) uses it to join the
    GPU-side and CPU-side halves of one invocation's journey.
    """

    MAX_ARGS = 6

    __slots__ = (
        "name",
        "args",
        "blocking",
        "proc",
        "invocation_id",
        "deadline_ns",
    )

    def __init__(
        self,
        name: str,
        args: Tuple[Any, ...],
        blocking: bool,
        proc: "OsProcess",
        invocation_id: Optional[int] = None,
        deadline_ns: Optional[float] = None,
    ) -> None:
        if len(args) > self.MAX_ARGS:
            raise ValueError(
                f"syscall {name!r}: {len(args)} args exceeds the "
                f"{self.MAX_ARGS}-argument slot format"
            )
        self.name = name
        self.args = args
        self.blocking = blocking
        self.proc = proc
        self.invocation_id = invocation_id
        #: Absolute sim-time deadline after which servicing the call is
        #: wasted work (QoS layer); ``None`` means no deadline.
        self.deadline_ns = deadline_ns

    def expired(self, now: float) -> bool:
        """Whether the QoS deadline (if any) has passed at ``now``."""
        return self.deadline_ns is not None and now > self.deadline_ns

    def __repr__(self) -> str:
        mode = "blocking" if self.blocking else "non-blocking"
        return f"SyscallRequest({self.name!r}, {len(self.args)} args, {mode})"
