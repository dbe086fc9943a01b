"""Overload control and graceful degradation for the syscall stack.

The robustness half of the probes -> policy loop (ROADMAP item 3), in
the gpu_ext spirit of extensible OS policies: every mechanism here is a
named, picklable program attached to an existing tracepoint or policy
hook, or a write of a ``/sys/genesys`` knob or state flag, driven by
sensors from :mod:`repro.metrics`.  Four layers:

* **Deadlines** (:mod:`repro.qos.deadline`) — per-invocation deadlines
  minted at ``Genesys.begin_invocation`` time and carried in the slot
  request; expired work is shed at every stage boundary (coalesce
  admit, workqueue pickup, dispatch) instead of serviced dead.
* **Admission** (:mod:`repro.qos.admission`) — a token bucket on the
  net ingress plus CoDel-style sojourn policing of bounded receive
  queues, replying fast-fail errnos where a reply socket exists.
* **Retry budget + circuit breaker** (:mod:`repro.qos.breaker`) —
  GPU-side EINTR/EAGAIN retries capped fleet-wide under congestion,
  refilled from the live completion rate.
* **Brownout** (:mod:`repro.qos.brownout`) — a hysteretic controller
  that degrades service (shrink coalescing windows, interrupt ->
  polling, shed lowest-priority classes) when windowed p99 or queue
  depth crosses thresholds, and restores when pressure subsides.

With no :class:`QosPlan` installed every decision point is dormant and
all experiment outputs are byte-identical to the policy-free stack.
"""

from repro.qos.admission import TokenBucketAdmission
from repro.qos.breaker import CircuitBreaker, RetryBudget
from repro.qos.brownout import BrownoutController
from repro.qos.deadline import EDEADLINE, DeadlinePolicy
from repro.qos.plan import QosController, QosPlan, install_qos_plan

__all__ = [
    "BrownoutController",
    "CircuitBreaker",
    "DeadlinePolicy",
    "EDEADLINE",
    "QosController",
    "QosPlan",
    "RetryBudget",
    "TokenBucketAdmission",
    "install_qos_plan",
]
