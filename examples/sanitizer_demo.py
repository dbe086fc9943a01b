#!/usr/bin/env python
"""Sanitizer demo: wedge the syscall pipeline, read GSan's verdict.

Two acts on the same one-work-item blocking ``getrusage``:

1. a healthy run with GSan attached — the full slot-protocol walk,
   zero violations, and the simulated result untouched (the sanitizer
   is a pure observer riding the tracepoint stream),
2. the same run with a seeded ``slot_wedge`` fault and the watchdog
   disarmed — the CPU worker wedges the slot in PROCESSING and never
   finishes it.  The run dies in a bounded-drain timeout, and GSan's
   end-of-run audit names exactly what was lost, with an annotated
   event timeline pointing at the offender.

Run:  python examples/sanitizer_demo.py
"""

from repro.core.invocation import Granularity, WaitMode
from repro.faults import DrainTimeout, FaultInjector, FaultPlan
from repro.machine import small_machine
from repro.sanitizers.gsan import GSan
from repro.sim.engine import SimulationError
from repro.system import System

WEDGE_PLAN = FaultPlan(
    seed=3,
    slot_wedge=1.0,
    watchdog_period_ns=0.0,  # recovery off: the loss must go undefended
    max_faults=1,
)


def run_once(plan=None):
    system = System(config=small_machine())
    sanitizer = GSan().install(system.probes)
    if plan is not None:
        FaultInjector(plan, system)
        system.drain_timeout_ns = 2_000_000.0

    def kern(ctx):
        yield from ctx.sys.getrusage(
            granularity=Granularity.WORK_ITEM,
            blocking=True,
            wait=WaitMode.HALT_RESUME,
        )

    crashed = None
    try:
        system.run_kernel(kern, 1, 1, name="sanitizer-demo")
    except (DrainTimeout, SimulationError) as exc:
        crashed = exc
    sanitizer.finish()
    return sanitizer, crashed


def main():
    print("=== act 1: healthy run under GSan ===")
    sanitizer, crashed = run_once()
    assert crashed is None
    assert not sanitizer.violations
    print(sanitizer.report())

    print()
    print("=== act 2: wedged slot, watchdog off ===")
    sanitizer, crashed = run_once(WEDGE_PLAN)
    print(f"run ended in: {type(crashed).__name__}: {crashed}")
    assert sanitizer.violations, "the wedge must be detected"
    print(sanitizer.report())
    print()
    print("--- first violation, annotated timeline ---")
    print(sanitizer.violations[0].render())


if __name__ == "__main__":
    main()
