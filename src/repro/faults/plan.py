"""Deterministic fault plans and the injector that applies them.

A :class:`FaultPlan` is a declarative description of *what can go
wrong* — per-decision probabilities for each fault class plus the
recovery knobs (watchdog period, slot/worker timeouts) that should be
active while the faults fly.  A :class:`FaultInjector` applies the plan
to one machine: the components that own the five fault sites below
hold it in their ``faults`` attribute (None on a machine with no plan),
and each site asks it for a verdict per call:

==========  =================================  =================
site        asked in                           verdicts
==========  =================================  =================
``irq``     ``InterruptController.raise_irq``  drop, delay
``worker``  ``WorkQueue._execute`` (pickup)    kill, stall
``errno``   ``Genesys._scan_task`` (dispatch)  a transient errno
``slot``    ``Genesys._scan_task`` (result)    wedge, corrupt
``net``     ``Network.sendto``                 drop, dup, delay
==========  =================================  =================

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
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.genesys import TRANSIENT_ERRNOS
from repro.oskernel.errors import Errno
from repro.workloads.base import DeterministicRandom

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System

#: Each fault site's classes, in the order a decision tries them:
#: ``(action, rate field, verdict, delay-range field)``.  One decision
#: draws one ``random()`` and takes the first class whose running sum of
#: rates exceeds it.  A class with a range field draws one more
#: ``random()`` for its delay, and the ``errno`` verdict one ``randint``
#: for which of the plan's ``errnos`` to inject.
_Row = Tuple[str, str, str, Optional[str]]
FAULT_TABLE: Dict[str, Tuple[_Row, ...]] = {
    "irq": (
        ("irq.drop", "irq_drop", "drop", None),
        ("irq.delay", "irq_delay", "delay", "irq_delay_ns"),
    ),
    "worker": (
        ("worker.kill", "worker_kill", "kill", None),
        ("worker.stall", "worker_stall", "stall", "worker_stall_ns"),
    ),
    "slot": (
        ("slot.wedge", "slot_wedge", "wedge", None),
        ("slot.corrupt", "slot_corrupt", "corrupt", None),
    ),
    "errno": (("errno", "errno_rate", "errno", None),),
    "net": (
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
)

#: What a site gets back from :meth:`FaultInjector.decide` when a fault
#: fires: ``(verdict, value)``, where ``value`` is the delay or stall in
#: ns, the errno for ``errno``, and 0.0 for a verdict that takes none.
Verdict = Tuple[str, float]


@dataclass(frozen=True)
class FaultPlan:
    """One seeded description of faults to inject plus recovery knobs.

    Rates are per-decision probabilities in ``[0, 1]``; within one site
    the alternatives are tried in :data:`FAULT_TABLE` order (e.g. a
    doorbell is first rolled against ``irq_drop``, then ``irq_delay``),
    so the sum of a site's rates may not exceed 1.  ``*_ns`` ranges are
    inclusive ``(lo, hi)`` bounds sampled uniformly.  ``errnos`` are
    drawn from the errnos a GPU caller retries (EINTR, EAGAIN), so an
    injected errno is always transient.
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

    def __post_init__(self) -> None:
        # Each check is written so that NaN fails it.
        if not isinstance(self.seed, int):
            raise ValueError(f"seed={self.seed!r} is not an integer")
        if self.seed < 1:
            # DeterministicRandom(0) starts from seed 1's state.
            raise ValueError(f"seed={self.seed!r} must be at least 1")
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
        for errno in self.errnos:
            if errno not in TRANSIENT_ERRNOS:
                raise ValueError(
                    f"errnos: {errno!r} is not transient (EINTR {int(Errno.EINTR)}, "
                    f"EAGAIN {int(Errno.EAGAIN)}), so no caller would retry it"
                )

    # -- conveniences ------------------------------------------------------

    def with_seed(self, seed: int) -> "FaultPlan":
        return dataclasses.replace(self, seed=seed)

    def scaled(self, factor: float) -> "FaultPlan":
        """Same plan with every rate multiplied by ``factor`` — chaos
        intensity dial.  A site whose scaled rates sum past 1 is scaled
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


class FaultInjector:
    """Applies a :class:`FaultPlan` to one built machine.

    The injector writes the plan's recovery knobs and sets itself as the
    ``faults`` of the four components that own a site.  It only
    *decides*: the component applies the verdict, fires its
    ``fault.*.injected`` tracepoint and counts it.  ``injected`` counts
    decisions that returned a fault, ``decisions`` every consultation.
    A site whose rates are all 0 is never consulted: it draws nothing
    and counts no decision.
    """

    def __init__(self, plan: FaultPlan, system: "System") -> None:
        self.plan = plan
        self.rng = DeterministicRandom(plan.seed)
        self.decisions = 0
        self.injected = 0
        self.by_action: dict = {}
        self._armed = {
            site: rows
            for site, rows in FAULT_TABLE.items()
            if any(getattr(plan, row[1]) for row in rows)
        }
        kernel, genesys = system.kernel, system.genesys
        kernel.interrupts.faults = kernel.workqueue.faults = kernel.net.faults = self
        genesys.faults = self
        if plan.watchdog_period_ns:
            genesys.set_watchdog_period_ns(float(plan.watchdog_period_ns))
        genesys.slot_timeout_ns = float(plan.slot_timeout_ns)
        genesys.worker_timeout_ns = float(plan.worker_timeout_ns)

    def decide(self, site: str) -> Optional[Verdict]:
        """Roll ``site``'s fault classes once: the verdict, or None for
        no fault (an unarmed site, a spent ``max_faults`` budget, or a
        roll past every class)."""
        rows = self._armed.get(site)
        if rows is None:
            return None
        self.decisions += 1
        plan = self.plan
        if plan.max_faults is not None and self.injected >= plan.max_faults:
            return None
        rng = self.rng
        roll = rng.random()
        threshold = 0.0
        for action, field, verdict, delay_field in rows:
            threshold += getattr(plan, field)
            if roll < threshold:
                self.injected += 1
                self.by_action[action] = self.by_action.get(action, 0) + 1
                if verdict == "errno":
                    errnos = plan.errnos
                    return verdict, int(errnos[rng.randint(0, len(errnos) - 1)])
                if delay_field is None:
                    return verdict, 0.0
                lo, hi = getattr(plan, delay_field)
                return verdict, lo + (hi - lo) * rng.random()
        return None

    def summary(self) -> dict:
        return {
            "seed": self.plan.seed,
            "decisions": self.decisions,
            "injected": self.injected,
            "by_action": dict(sorted(self.by_action.items())),
        }
