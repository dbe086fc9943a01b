"""QoS plans: one declarative bundle wiring all four defence layers.

A :class:`QosPlan` is data — a frozen description of deadlines,
admission limits, retry budgets, and brownout thresholds.
:func:`install_qos_plan` turns it into a live :class:`QosController`
that writes the plan's knobs (deadline delta, sojourn budget), attaches
the named programs to the stack's hooks and (when any layer needs
sensors) stands up its own :class:`~repro.metrics.hub
.MetricsHub` over the :data:`SENSORS` rows, the only metrics the retry
budget and the brownout controller read.  ``QosController.remove``
restores every knob it touched, so a plan can be installed for one
phase of a run and torn down for the next.

With the default (all-zero) plan nothing attaches and nothing changes:
the byte-identity guarantee of :mod:`repro.qos` is that experiments
without a plan emit exactly the policy-free event stream.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple, TYPE_CHECKING

from repro.metrics.collectors import CATALOG
from repro.metrics.hub import MetricsHub
from repro.oskernel.errors import Errno
from repro.qos.admission import TokenBucketAdmission
from repro.qos.breaker import CircuitBreaker, RetryBudget
from repro.qos.brownout import BrownoutController
from repro.qos.deadline import DeadlinePolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System


#: The catalog rows the sensor hub carries: ``RetryBudget`` reads
#: ``syscall.rate``, ``BrownoutController`` reads ``syscall.latency``
#: and ``wq.depth``.
SENSORS = tuple(
    spec for spec in CATALOG
    if spec.name in ("syscall.rate", "syscall.latency", "wq.depth")
)


#: Every numeric :class:`QosPlan` field: its lower bound, and whether
#: the bound itself is legal.  Every value must also be finite.
_NUMERIC_BOUNDS: Tuple[Tuple[str, int, bool], ...] = (
    ("deadline_ns", 0, True),
    ("priority_floor", 0, True),
    ("sojourn_budget_ns", 0, True),
    ("admit_rate_rps", 0, True),
    ("admit_burst", 1, True),
    ("reject_errno", 1, True),
    ("retry_budget_ratio", 0, True),
    ("retry_budget_floor", 0, True),
    ("breaker_threshold", 0, True),
    ("breaker_cooldown_ns", 0, False),
    ("brownout_period_ns", 0, False),
    ("sensor_window_ns", 0, False),
    ("brownout_hi_p99_ns", 0, True),
    ("brownout_lo_p99_ns", 0, True),
    ("brownout_hi_depth", 0, True),
    ("brownout_lo_depth", 0, True),
    ("brownout_max_level", 0, True),
    ("brownout_window_scale", 0, True),
)


@dataclass(frozen=True)
class QosPlan:
    """Declarative overload-control configuration.

    Every layer is opt-in: a zero/empty field leaves that decision
    point dormant.  Fields group by layer:

    deadlines
        ``deadline_ns`` (written to the ``qos/deadline_ns`` knob: the
        flat delta for every blocking call; 0 leaves the knob alone),
        ``deadline_by_name`` (per-syscall overrides, 0 exempts a call),
        ``priority_floor`` (the floor brownout level 3 raises to).
    admission
        ``sojourn_budget_ns`` (CoDel-style head drop at recvfrom),
        ``admit_rate_rps``/``admit_burst`` (token bucket at enqueue),
        ``reject_replies``/``reject_errno`` (fast-fail frames vs
        silent drops for policed datagrams).
    retries
        ``retry_budget_ratio``/``retry_budget_floor`` (fleet-wide cap,
        refilled from completions), ``breaker_threshold``/
        ``breaker_cooldown_ns`` (circuit breaker on the invoke path).
    brownout
        ``brownout`` enables the controller; the remaining fields are
        its sensor window, tick period, hysteresis thresholds, ceiling
        level, and level-1 coalescing-window scale.
    """

    deadline_ns: float = 0.0
    deadline_by_name: Tuple[Tuple[str, float], ...] = ()
    priority_floor: int = 1
    sojourn_budget_ns: float = 0.0
    admit_rate_rps: float = 0.0
    admit_burst: int = 32
    reject_replies: bool = True
    reject_errno: int = int(Errno.EBUSY)
    retry_budget_ratio: float = 0.0
    retry_budget_floor: int = 4
    breaker_threshold: int = 0
    breaker_cooldown_ns: float = 200_000.0
    brownout: bool = False
    brownout_period_ns: float = 20_000.0
    sensor_window_ns: float = 50_000.0
    brownout_hi_p99_ns: float = 250_000.0
    brownout_lo_p99_ns: float = 100_000.0
    brownout_hi_depth: float = 8.0
    brownout_lo_depth: float = 2.0
    brownout_max_level: int = 2
    brownout_window_scale: float = 0.0

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        for name, low, inclusive in _NUMERIC_BOUNDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and (value >= low if inclusive else value > low)):
                raise ValueError(
                    f"{name} must be finite and {'>=' if inclusive else '>'} "
                    f"{low}, got {value}"
                )
        for name, delta in self.deadline_by_name:
            if not (math.isfinite(delta) and delta >= 0):
                raise ValueError(
                    f"deadline_by_name[{name!r}] must be finite and >= 0, got {delta}"
                )
        if (
            self.brownout_lo_p99_ns > self.brownout_hi_p99_ns
            or self.brownout_lo_depth > self.brownout_hi_depth
        ):
            raise ValueError("brownout low-water marks must not exceed high-water")
        if self.brownout_max_level > 3:
            raise ValueError(
                f"brownout_max_level must be in [0, 3], got {self.brownout_max_level}"
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready description (tuples become lists) for reports."""
        doc = asdict(self)
        doc["deadline_by_name"] = [list(pair) for pair in self.deadline_by_name]
        return doc

    @property
    def active(self) -> bool:
        """True when any layer will attach anything."""
        return bool(
            self.deadline_ns > 0
            or self.deadline_by_name
            or self.sojourn_budget_ns > 0
            or self.admit_rate_rps > 0
            or self.retry_budget_ratio > 0
            or self.breaker_threshold > 0
            or self.brownout
        )


class QosController:
    """Live half of a :class:`QosPlan`: owns the attached programs and
    any private sensor hub, and knows how to take them all back out."""

    def __init__(self, plan: QosPlan, system: "System") -> None:
        self.plan = plan
        self.system = system
        self.hub: Optional[MetricsHub] = None
        self.deadline_policy: Optional[DeadlinePolicy] = None
        self.admission: Optional[TokenBucketAdmission] = None
        self.retry_budget: Optional[RetryBudget] = None
        self.breaker: Optional[CircuitBreaker] = None
        self.brownout: Optional[BrownoutController] = None
        self._saved_sojourn_ns: float = 0.0
        self._saved_deadline_ns: float = 0.0
        self._installed = False

    # -- lifecycle ---------------------------------------------------------

    def install(self) -> "QosController":
        if self._installed:
            return self
        self._installed = True
        plan = self.plan
        system = self.system
        probes = system.probes
        net = system.kernel.net

        if plan.retry_budget_ratio > 0 or plan.brownout:
            self.hub = MetricsHub(
                window_ns=plan.sensor_window_ns, label="qos", catalog=SENSORS
            ).install(probes)

        self._saved_deadline_ns = system.genesys.qos_deadline_ns
        if plan.deadline_ns > 0:
            system.genesys.qos_deadline_ns = float(plan.deadline_ns)
        if plan.deadline_by_name:
            self.deadline_policy = DeadlinePolicy(plan.deadline_by_name)
            probes.attach_policy("qos.deadline", self.deadline_policy)

        self._saved_sojourn_ns = net.sojourn_budget_ns
        if plan.sojourn_budget_ns > 0:
            net.sojourn_budget_ns = float(plan.sojourn_budget_ns)

        if plan.admit_rate_rps > 0:
            self.admission = TokenBucketAdmission(
                probes,
                rate_rps=plan.admit_rate_rps,
                burst=plan.admit_burst,
                reject=plan.reject_replies,
                errno=plan.reject_errno,
            )
            probes.attach_policy("net.admit", self.admission)

        if plan.retry_budget_ratio > 0 and self.hub is not None:
            self.retry_budget = RetryBudget(
                self.hub,
                ratio=plan.retry_budget_ratio,
                floor=plan.retry_budget_floor,
            )
            probes.attach_policy("genesys.retry", self.retry_budget)

        if plan.breaker_threshold > 0:
            self.breaker = CircuitBreaker(
                probes,
                threshold=plan.breaker_threshold,
                cooldown_ns=plan.breaker_cooldown_ns,
                errno=plan.reject_errno,
            ).install(probes)

        if plan.brownout and self.hub is not None:
            self.brownout = BrownoutController(
                system,
                self.hub,
                period_ns=plan.brownout_period_ns,
                hi_p99_ns=plan.brownout_hi_p99_ns,
                lo_p99_ns=plan.brownout_lo_p99_ns,
                hi_depth=plan.brownout_hi_depth,
                lo_depth=plan.brownout_lo_depth,
                max_level=plan.brownout_max_level,
                window_scale=plan.brownout_window_scale,
                priority_floor=plan.priority_floor,
            ).start()
        return self

    def remove(self) -> None:
        """Detach every program and restore every knob.  The private
        sensor hub stays attached (its feeds are passive observers);
        only the decision points are unwound."""
        if not self._installed:
            return
        self._installed = False
        probes = self.system.probes
        net = self.system.kernel.net
        if self.brownout is not None:
            self.brownout.stop()
        if self.breaker is not None:
            self.breaker.remove(probes)
        if self.retry_budget is not None:
            probes.get_hook("genesys.retry").detach(self.retry_budget)
        if self.admission is not None:
            probes.get_hook("net.admit").detach(self.admission)
        if self.deadline_policy is not None:
            probes.get_hook("qos.deadline").detach(self.deadline_policy)
        net.sojourn_budget_ns = self._saved_sojourn_ns
        self.system.genesys.qos_deadline_ns = self._saved_deadline_ns

    # -- reporting ---------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        genesys = self.system.genesys
        net = self.system.kernel.net
        out: Dict[str, Any] = {
            "syscalls_shed": genesys.syscalls_shed,
            "sheds_by_stage": dict(sorted(genesys.sheds_by_stage.items())),
            "qos_fast_fails": genesys.qos_fast_fails,
            "polled_scans": genesys.polled_scans,
            "net_drops": dict(net.stats()["drops"]),
            "policy_rejects": net.policy_rejects,
        }
        if self.admission is not None:
            out["admission_policed"] = self.admission.policed
        if self.retry_budget is not None:
            out["retries_denied"] = self.retry_budget.denied
        if self.breaker is not None:
            out["breaker"] = {
                "state": self.breaker.state,
                "opens": self.breaker.opens,
                "fast_fails": self.breaker.fast_fails,
            }
        if self.brownout is not None:
            out["brownout"] = self.brownout.summary()
        return out

    def __repr__(self) -> str:
        return f"QosController(installed={self._installed}, plan={self.plan!r})"


def install_qos_plan(plan: QosPlan, system: "System") -> QosController:
    """Stand a plan up on a built :class:`~repro.system.System` and
    return the live controller (call ``.remove()`` to unwind)."""
    return QosController(plan, system).install()
