"""Token-bucket admission control for the ``net.admit`` hook.

Blind tail-drop (PR 7's bounded backlogs) sheds the *newest* arrivals
only after the queue is already hopeless.  The token bucket polices the
arrival rate at enqueue instead, and — where a reply socket exists —
answers policed datagrams with a fast-fail errno frame so the client
learns immediately rather than burning its timeout.

The companion sojourn policing (CoDel's insight: queue *time*, not
queue *length*, is the collapse signal) lives in ``Network.recvfrom``
behind ``sojourn_budget_ns``; see ``QosPlan.sojourn_budget_ns``.
"""

from __future__ import annotations

from typing import Any

from repro.oskernel.errors import Errno
from repro.probes.tracepoints import ProbeRegistry


class TokenBucketAdmission:
    """Named, picklable ``net.admit`` program.

    Refills continuously at ``rate_rps`` up to ``burst`` tokens;
    arrivals that find the bucket dry are policed — ``('reject',
    errno)`` when ``reject`` (the sender gets ``b"E" + reqid + errno``),
    plain ``'drop'`` otherwise.  Time comes from the registry clock, so
    the bucket is deterministic.
    """

    __slots__ = ("registry", "rate_per_ns", "burst", "tokens", "last_ns",
                 "reject", "errno", "policed")

    def __init__(
        self,
        registry: ProbeRegistry,
        rate_rps: float,
        burst: int = 32,
        reject: bool = True,
        errno: int = int(Errno.EBUSY),
    ) -> None:
        if rate_rps <= 0:
            raise ValueError(f"rate_rps must be positive, got {rate_rps}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.registry = registry
        self.rate_per_ns = float(rate_rps) / 1e9
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_ns = registry.now()
        self.reject = bool(reject)
        self.errno = int(errno)
        self.policed = 0

    def __call__(self, current: Any, sock_id: int, depth: int, nbytes: int) -> Any:
        now = self.registry.now()
        elapsed = now - self.last_ns
        if elapsed > 0:
            self.tokens = min(self.burst, self.tokens + elapsed * self.rate_per_ns)
            self.last_ns = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return current
        self.policed += 1
        return ("reject", self.errno) if self.reject else "drop"

    def __repr__(self) -> str:
        return (
            f"TokenBucketAdmission({self.rate_per_ns * 1e9:.0f} rps, "
            f"burst={self.burst:.0f}, policed={self.policed})"
        )
