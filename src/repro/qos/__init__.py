"""Overload control for the serving stack: CoDel-style sojourn policing.

A :class:`QosPlan` is data: the longest a datagram may wait in a
bounded receive queue.  :func:`install_qos_plan` writes it to the
``/sys/genesys/qos/admission`` knob's state
(``Network.sojourn_budget_ns``) of a built System and returns a live
:class:`QosController`, whose ``remove`` restores the knob and whose
``summary`` reports what the defence did.  ``Network.recvfrom``
head-drops a datagram that waited past the budget and answers it with
an ETIME reject frame where a reply socket exists: servicing it would
be wasted work, the sender's own timeout having passed.

The stack's other overload state is the ``qos/deadline_ns`` knob: a
deadline minted per invocation (``Genesys.mint_deadline``), past which
a request is shed at coalesce admit, workqueue pickup or dispatch.

With the default (zero) plan nothing is written, and experiment
outputs are byte-identical to the policy-free stack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, Dict, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.system import System


@dataclass(frozen=True)
class QosPlan:
    """Overload-control configuration.

    ``sojourn_budget_ns`` is the receive-queue wait past which a
    datagram is head-dropped at dequeue; 0 leaves the knob alone.
    """

    sojourn_budget_ns: float = 0.0

    def __post_init__(self) -> None:
        # Written so that NaN fails it.
        value = self.sojourn_budget_ns
        if not (math.isfinite(value) and value >= 0):
            raise ValueError(f"sojourn_budget_ns must be finite and >= 0, got {value}")

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready description for reports."""
        return asdict(self)

    @property
    def active(self) -> bool:
        """True when installing the plan writes anything."""
        return self.sojourn_budget_ns > 0


class QosController:
    """Live half of a :class:`QosPlan`: knows the knob value it replaced
    and how to put it back."""

    def __init__(self, plan: QosPlan, system: "System") -> None:
        self.plan = plan
        self.system = system
        self._saved_sojourn_ns: float = 0.0
        self._installed = False

    def install(self) -> "QosController":
        if self._installed:
            return self
        self._installed = True
        net = self.system.kernel.net
        self._saved_sojourn_ns = net.sojourn_budget_ns
        if self.plan.sojourn_budget_ns > 0:
            net.sojourn_budget_ns = float(self.plan.sojourn_budget_ns)
        return self

    def remove(self) -> None:
        """Restore the knob the plan wrote."""
        if not self._installed:
            return
        self._installed = False
        self.system.kernel.net.sojourn_budget_ns = self._saved_sojourn_ns

    def summary(self) -> Dict[str, Any]:
        genesys = self.system.genesys
        net = self.system.kernel.net
        return {
            "syscalls_shed": genesys.syscalls_shed,
            "sheds_by_stage": dict(sorted(genesys.sheds_by_stage.items())),
            "net_drops": dict(net.stats()["drops"]),
            "policy_rejects": net.policy_rejects,
        }

    def __repr__(self) -> str:
        return f"QosController(installed={self._installed}, plan={self.plan!r})"


def install_qos_plan(plan: QosPlan, system: "System") -> QosController:
    """Stand a plan up on a built :class:`~repro.system.System` and
    return the live controller (call ``.remove()`` to unwind)."""
    return QosController(plan, system).install()
