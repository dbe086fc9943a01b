"""Deterministic fault plans and the injector that applies them.

A :class:`FaultPlan` is a declarative description of *what can go
wrong* — per-decision probabilities for each fault class plus the
recovery knobs (watchdog period, slot/worker timeouts) that should be
active while the faults fly.  A :class:`FaultInjector` turns the plan
into policy programs attached to the ``fault.*`` hooks the stack
declares (see ``repro.probes``):

========================  ================================================
hook                      decision
========================  ================================================
``fault.irq``             drop or delay a GPU->CPU doorbell interrupt
``fault.worker``          kill or stall a workqueue worker at task pickup
``fault.slot``            wedge or corrupt a syscall-area slot
``fault.errno``           inject a transient errno instead of executing
``fault.net``             drop, duplicate, or delay a UDP datagram
========================  ================================================

All randomness comes from one :class:`DeterministicRandom` seeded from
``plan.seed`` and consumed in simulated-event order, so a given
(plan, workload) pair replays the exact same fault sequence every run —
the property the determinism tests in ``tests/test_chaos.py`` assert.

The injector also writes the plan's recovery knobs (the state the
``/sys/genesys`` ``watchdog_period_ns``, ``slot_timeout_ns`` and
``worker_timeout_ns`` rows name), so installing a plan both breaks the
machine and arms the machinery that is supposed to survive it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.oskernel.errors import Errno
from repro.workloads.base import DeterministicRandom

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

#: Each fault hook's classes, in the order a decision tries them:
#: ``(action, rate field, verdict, delay-range field)``.  One decision
#: draws one ``random()`` and takes the first class whose running sum of
#: rates exceeds it; a class with a range field answers ``(verdict, ns)``
#: and draws one more ``random()`` for the delay.  ``fault.errno`` is
#: decided by ``FaultInjector._errno``, which also draws the errno.
_Row = Tuple[str, str, str, Optional[str]]
FAULT_TABLE: Dict[str, Tuple[_Row, ...]] = {
    "fault.irq": (
        ("irq.drop", "irq_drop", "drop", None),
        ("irq.delay", "irq_delay", "delay", "irq_delay_ns"),
    ),
    "fault.worker": (
        ("worker.kill", "worker_kill", "kill", None),
        ("worker.stall", "worker_stall", "stall", "worker_stall_ns"),
    ),
    "fault.slot": (
        ("slot.wedge", "slot_wedge", "wedge", None),
        ("slot.corrupt", "slot_corrupt", "corrupt", None),
    ),
    "fault.errno": (("errno", "errno_rate", "errno", None),),
    "fault.net": (
        ("net.drop", "net_drop", "drop", None),
        ("net.dup", "net_dup", "dup", None),
        ("net.delay", "net_delay", "delay", "net_delay_ns"),
    ),
}

_RATE_FIELDS = tuple(row[1] for rows in FAULT_TABLE.values() for row in rows)
_RANGE_FIELDS = tuple(
    row[3] for rows in FAULT_TABLE.values() for row in rows if row[3]
)

#: Budgets and recovery knobs: finite and >= 0 (``max_faults`` may be None).
_LIMIT_FIELDS = (
    "max_faults",
    "watchdog_period_ns",
    "slot_timeout_ns",
    "worker_timeout_ns",
    "max_retries",
)


@dataclass(frozen=True)
class FaultPlan:
    """One seeded description of faults to inject plus recovery knobs.

    Rates are per-decision probabilities in ``[0, 1]``; within one hook
    the alternatives are tried in :data:`FAULT_TABLE` order (e.g. a
    doorbell is first rolled against ``irq_drop``, then ``irq_delay``),
    so the sum of a hook's rates may not exceed 1.  ``*_ns`` ranges are
    inclusive ``(lo, hi)`` bounds sampled uniformly.
    """

    seed: int = 1
    # -- interrupt path ----------------------------------------------------
    irq_drop: float = 0.0
    irq_delay: float = 0.0
    irq_delay_ns: Tuple[float, float] = (2_000.0, 50_000.0)
    # -- workqueue workers -------------------------------------------------
    worker_stall: float = 0.0
    worker_stall_ns: Tuple[float, float] = (20_000.0, 400_000.0)
    worker_kill: float = 0.0
    # -- syscall-area slots ------------------------------------------------
    slot_wedge: float = 0.0
    slot_corrupt: float = 0.0
    # -- UDP datagrams -----------------------------------------------------
    net_drop: float = 0.0
    net_dup: float = 0.0
    net_delay: float = 0.0
    net_delay_ns: Tuple[float, float] = (1_000.0, 20_000.0)
    # -- transient errnos at dispatch --------------------------------------
    errno_rate: float = 0.0
    errnos: Tuple[int, ...] = (int(Errno.EINTR), int(Errno.EAGAIN))
    # -- global budget -----------------------------------------------------
    max_faults: Optional[int] = None
    # -- recovery knobs installed alongside the faults ---------------------
    watchdog_period_ns: float = 50_000.0
    slot_timeout_ns: float = 2_000_000.0
    worker_timeout_ns: float = 500_000.0
    max_retries: int = 6

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not isinstance(self.seed, int):
            raise ValueError(f"seed={self.seed!r} is not an integer")
        for field in _RATE_FIELDS:
            rate = getattr(self, field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{field}={rate!r} outside [0, 1]")
        for rows in FAULT_TABLE.values():
            fields = tuple(row[1] for row in rows)
            total = sum(getattr(self, field) for field in fields)
            if total > 1.0:
                raise ValueError(f"rates {fields} sum to {total} > 1")
        for field in _RANGE_FIELDS:
            lo, hi = getattr(self, field)
            if not 0 <= lo <= hi < math.inf:
                raise ValueError(f"{field}={(lo, hi)!r} is not a valid range")
        for field in _LIMIT_FIELDS:
            value = getattr(self, field)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{field}={value!r} must be finite and >= 0")
        if not self.errnos and self.errno_rate:
            raise ValueError("errno_rate > 0 with an empty errnos tuple")

    # -- conveniences ------------------------------------------------------

    def with_seed(self, seed: int) -> "FaultPlan":
        return dataclasses.replace(self, seed=seed)

    def scaled(self, factor: float) -> "FaultPlan":
        """Same plan with every rate multiplied by ``factor`` — chaos
        intensity dial.  A hook whose scaled rates sum past 1 is scaled
        down to sum exactly 1, keeping their proportions."""
        if factor < 0:
            raise ValueError("factor must be >= 0")
        changes: Dict[str, float] = {}
        for rows in FAULT_TABLE.values():
            fields = [row[1] for row in rows]
            rates = [getattr(self, field) * factor for field in fields]
            total = sum(rates)
            if total > 1.0:
                rates = [rate / total for rate in rates]
                # Division can leave a sum a hair past 1, so the last
                # firing class takes exactly what the others leave.
                last = max(i for i, rate in enumerate(rates) if rate > 0.0)
                rates[last] = max(0.0, 1.0 - sum(rates[:last]))
            changes.update(zip(fields, rates))
        return dataclasses.replace(self, **changes)

    def active_classes(self) -> List[str]:
        return [field for field in _RATE_FIELDS if getattr(self, field) > 0.0]

    def as_dict(self) -> dict:
        """A JSON-serialisable description of this plan.

        Round-trips through :meth:`from_dict`; used by
        ``repro.modelcheck`` schedule certificates so a counterexample
        found under a fault plan replays with the *exact* plan embedded
        in the certificate rather than a profile name that may drift.
        """
        doc = dataclasses.asdict(self)
        for field in _RANGE_FIELDS:
            doc[field] = list(doc[field])
        doc["errnos"] = list(doc["errnos"])
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`as_dict` output.

        Unknown keys are rejected so a certificate written by a newer
        schema fails loudly instead of silently dropping a fault class.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(doc) - known)
        if unknown:
            raise ValueError(f"unknown FaultPlan fields: {', '.join(unknown)}")
        kwargs = dict(doc)
        for field in _RANGE_FIELDS:
            if field in kwargs:
                lo, hi = kwargs[field]
                kwargs[field] = (float(lo), float(hi))
        if "errnos" in kwargs:
            kwargs["errnos"] = tuple(int(e) for e in kwargs["errnos"])
        return cls(**kwargs)

    def describe(self) -> str:
        parts = [f"seed={self.seed}"]
        parts += [
            f"{field}={getattr(self, field):g}"
            for field in _RATE_FIELDS
            if getattr(self, field) > 0.0
        ]
        if self.max_faults is not None:
            parts.append(f"max_faults={self.max_faults}")
        parts.append(f"watchdog={self.watchdog_period_ns:g}ns")
        return " ".join(parts)


class _WidenRetry:
    """Picklable ``genesys.retry`` program treating the plan's injected
    errnos as transient (see FaultInjector._install)."""

    __slots__ = ("extra", "max_retries")

    def __init__(self, extra: frozenset, max_retries: int) -> None:
        self.extra = extra
        self.max_retries = max_retries

    def __call__(
        self, current: object, name: str, result: object, attempt: int
    ) -> Optional[bool]:
        if current:
            return None
        if (
            isinstance(result, int)
            and result < 0
            and -result in self.extra
            and attempt < self.max_retries
        ):
            return True
        return None


class FaultInjector:
    """Applies a :class:`FaultPlan` to one built machine.

    The injector writes the plan's recovery knobs and attaches policy
    programs: the components keep their own ``fault.*.injected``
    tracepoints and counters, so the injector only *decides*; the layer
    owning the hook *applies* and records.  ``injected`` counts
    decisions that returned a fault, ``decisions`` counts every
    consultation.
    """

    def __init__(self, plan: FaultPlan, system: "System") -> None:
        self.plan = plan
        self.rng = DeterministicRandom(plan.seed)
        self.decisions = 0
        self.injected = 0
        self.by_action: dict = {}
        self._install(system)

    # -- bookkeeping -------------------------------------------------------

    def _budget_left(self) -> bool:
        return self.plan.max_faults is None or self.injected < self.plan.max_faults

    def _note(self, action: str) -> None:
        self.injected += 1
        self.by_action[action] = self.by_action.get(action, 0) + 1

    def _uniform_ns(self, bounds: Tuple[float, float]) -> float:
        lo, hi = bounds
        return lo + (hi - lo) * self.rng.random()

    # -- decision programs -------------------------------------------------

    def _decide(
        self, rows: Tuple[_Row, ...], current: object, *_args: object
    ) -> object:
        self.decisions += 1
        if current is not None or not self._budget_left():
            return None
        roll = self.rng.random()
        plan = self.plan
        threshold = 0.0
        for action, field, verdict, delay_field in rows:
            threshold += getattr(plan, field)
            if roll < threshold:
                self._note(action)
                if delay_field is None:
                    return verdict
                return (verdict, self._uniform_ns(getattr(plan, delay_field)))
        return None

    def _errno(self, current: object, name: str, invocation_id: object) -> Optional[int]:
        self.decisions += 1
        if current is not None or not self._budget_left():
            return None
        plan = self.plan
        if self.rng.random() < plan.errno_rate:
            errno = plan.errnos[self.rng.randint(0, len(plan.errnos) - 1)]
            self._note("errno")
            return int(errno)
        return None

    # -- wiring ------------------------------------------------------------

    def _install(self, system: "System") -> None:
        plan = self.plan
        registry = system.probes
        for hook_name, rows in FAULT_TABLE.items():
            if any(getattr(plan, row[1]) for row in rows):
                program: Callable[..., object] = (
                    self._errno if hook_name == "fault.errno"
                    else functools.partial(self._decide, rows)
                )
                registry.attach_policy(hook_name, program)
        genesys = system.genesys
        if plan.watchdog_period_ns:
            genesys.set_watchdog_period_ns(float(plan.watchdog_period_ns))
        genesys.slot_timeout_ns = float(plan.slot_timeout_ns)
        genesys.worker_timeout_ns = float(plan.worker_timeout_ns)
        # Injected errnos outside the default transient set (EINTR,
        # EAGAIN) must still be retried, or the fault would surface as a
        # permanent failure the workload never asked for.
        extra = {int(e) for e in plan.errnos} - {
            int(Errno.EINTR),
            int(Errno.EAGAIN),
        }
        if plan.errno_rate and extra:
            registry.attach_policy(
                "genesys.retry", _WidenRetry(frozenset(extra), plan.max_retries)
            )

    def summary(self) -> dict:
        return {
            "seed": self.plan.seed,
            "decisions": self.decisions,
            "injected": self.injected,
            "by_action": dict(sorted(self.by_action.items())),
        }
