"""Per-syscall deadline deltas for the ``qos.deadline`` hook.

A deadline is an absolute sim-time past which servicing the invocation
is wasted work.  ``Genesys.mint_deadline`` computes it from a delta at
submission.  The flat delta is the ``/sys/genesys/qos/deadline_ns``
knob (``Genesys.qos_deadline_ns``); the program below replaces it for
the syscalls it names (0 exempts a call entirely, which is how serving
plans keep the server's parked ``recvfrom`` loops deadline-free).

Shed completions return ``-ETIME`` ("timer expired").  POSIX has no
dedicated deadline errno, so the conventional alias:
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional, Tuple

from repro.oskernel.errors import Errno

#: The fast-fail errno surfaced for deadline-shed work.  POSIX spells
#: it ETIME; the QoS literature says deadline — same wire value.
EDEADLINE = Errno.ETIME


class DeadlinePolicy:
    """Named, picklable ``qos.deadline`` program.

    ``by_name`` maps syscall names to deadline deltas (ns); unlisted
    calls keep whatever the chain decided so far (the knob value).
    """

    __slots__ = ("by_name",)

    def __init__(self, by_name: Iterable[Tuple[str, float]]) -> None:
        self.by_name: Dict[str, float] = {
            name: float(delta) for name, delta in by_name
        }

    def __call__(self, current: Any, name: str) -> Optional[float]:
        return self.by_name.get(name)

    def __repr__(self) -> str:
        return f"DeadlinePolicy({len(self.by_name)} per-name deltas)"
