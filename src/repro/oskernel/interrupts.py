"""Interrupt controller: GPU-to-CPU interrupt delivery.

GENESYS's step 2 (Figure 2): the GPU raises an interrupt carrying the
issuing wavefront's hardware ID.  Each interrupt runs a short handler on
a CPU core (top half); the registered callback then decides what to do —
for GENESYS, start or extend a coalescing bundle and eventually enqueue
a workqueue task (bottom half).

An interrupt with no registered handler is *dropped*, not an exception:
``raise_irq`` is called from Do-ops at GPU time, where a Python
exception would tear down the wavefront executor mid-step.  Drops are
counted (``unhandled``) and visible through the ``irq.unhandled``
tracepoint, mirroring Linux's "irq X: nobody cared" accounting.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.machine import MachineConfig
from repro.oskernel.cpu import CpuComplex
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector


class InterruptController:
    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        cpu: CpuComplex,
        probes: Optional[ProbeRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.cpu = cpu
        self.raised = 0
        self.serviced = 0
        self.unhandled = 0
        self._handler: Optional[Callable[[Any], None]] = None
        registry = probes if probes is not None else ProbeRegistry(sim)
        self.tp_raised = registry.tracepoint(
            "irq.raised", ("payload",), "interrupt raised by the GPU"
        )
        self.tp_serviced = registry.tracepoint(
            "irq.serviced", ("payload",), "top half ran; bottom half invoked"
        )
        self.tp_unhandled = registry.tracepoint(
            "irq.unhandled", ("payload",), "interrupt dropped: no handler registered"
        )
        self.tp_fault = registry.tracepoint(
            "fault.irq.injected",
            ("action", "payload", "delay_ns"),
            "an injected interrupt fault was applied (drop or delay)",
        )
        #: The plan's FaultInjector, asked per delivered interrupt
        #: (drop or delay); None on a machine with no plan.
        self.faults: Optional[FaultInjector] = None

    def register_handler(self, handler: Callable[[Any], None]) -> None:
        """Install the bottom-half callback (runs functionally after the
        timed top half)."""
        self._handler = handler

    def raise_irq(self, payload: Any) -> bool:
        """Raise one interrupt (called from Do-ops at GPU time).

        Returns True if a handler will service it, False if it was
        dropped for want of a handler.
        """
        self.raised += 1
        if self.tp_raised.enabled:
            self.tp_raised.fire(payload)
        if self._handler is None:
            self.unhandled += 1
            if self.tp_unhandled.enabled:
                self.tp_unhandled.fire(payload)
            return False
        faults = self.faults
        verdict = faults.decide("irq") if faults is not None else None
        if verdict is not None:
            action, delay_ns = verdict
            if self.tp_fault.enabled:
                self.tp_fault.fire(action, payload, delay_ns)
            if action == "delay":
                self.sim.process(
                    self._delayed_top_half(payload, delay_ns), name="irq-delayed"
                )
            # A dropped s_sendmsg was lost in flight: no top half ever
            # runs.  Recovery is the GENESYS watchdog's job.
            return True
        self.sim.process(self._top_half(payload), name="irq")
        return True

    def _delayed_top_half(self, payload: Any, delay_ns: float) -> Generator:
        yield delay_ns
        yield from self._top_half(payload)

    def _top_half(self, payload: Any) -> Generator:
        yield from self.cpu.run(self.config.interrupt_handler_ns)
        self.serviced += 1
        if self.tp_serviced.enabled:
            self.tp_serviced.fire(payload)
        self._handler(payload)
