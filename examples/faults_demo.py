#!/usr/bin/env python
"""Fault injection demo: break the syscall stack, watch it recover.

Three acts on the same GPU-pread workload:

1. a clean run — the baseline latency and counters,
2. the same run under a seeded ``FaultPlan`` that drops doorbell
   interrupts, stalls and kills workqueue workers, wedges slots, and
   injects transient ``EINTR``/``EAGAIN`` at dispatch — with the
   watchdog armed, every invocation still reaches a definite status and
   the chaos invariants hold,
3. a guaranteed wedge with recovery *disabled* — the run ends in a
   diagnostic ``DrainTimeout`` naming the stuck slot instead of
   hanging.  (The wedged call is non-blocking: a *blocking* caller with
   no watchdog would poll its slot forever, which is exactly the
   failure mode the watchdog exists to bound.)

Run:  python examples/faults_demo.py
"""

from repro.faults import (
    DrainTimeout,
    FaultInjector,
    FaultPlan,
    check_invariants,
    recovery_stats,
)
from repro.system import System

NUM_WORKITEMS = 32
READ_BYTES = 256

DEMO_PLAN = FaultPlan(
    seed=7,
    irq_drop=0.15,
    irq_delay=0.15,
    worker_stall=0.15,
    worker_kill=0.05,
    slot_wedge=0.05,
    errno_rate=0.15,
    watchdog_period_ns=50_000.0,
    slot_timeout_ns=800_000.0,
    worker_timeout_ns=150_000.0,
)


def build_system() -> System:
    system = System()
    system.drain_timeout_ns = 2_000_000_000.0
    payload = b"\xab" * (READ_BYTES * NUM_WORKITEMS)
    system.kernel.fs.create_file("/tmp/input.dat", payload)
    return system


def run_workload(system: System) -> dict:
    bufs = [system.memsystem.alloc_buffer(READ_BYTES) for _ in range(NUM_WORKITEMS)]
    results = {}

    def kern(ctx):
        fd = yield from ctx.sys.open("/tmp/input.dat")
        if fd >= 0:
            results[ctx.global_id] = yield from ctx.sys.pread(
                fd, bufs[ctx.global_id], READ_BYTES, READ_BYTES * ctx.global_id
            )
            yield from ctx.sys.close(fd)
        else:
            results[ctx.global_id] = fd

    elapsed = system.run_kernel(kern, NUM_WORKITEMS, 8, name="faults-demo")
    full = sum(1 for n in results.values() if n == READ_BYTES)
    return {"elapsed_ns": elapsed, "full_reads": full, "items": NUM_WORKITEMS}


def main() -> None:
    print("=== 1. clean run ===")
    system = build_system()
    outcome = run_workload(system)
    print(f"  elapsed: {outcome['elapsed_ns']:.0f} ns, "
          f"full reads: {outcome['full_reads']}/{outcome['items']}")

    print(f"\n=== 2. faulted run, recovery armed ===")
    print(f"  plan: {DEMO_PLAN.describe()}")
    system = build_system()
    injector = FaultInjector(DEMO_PLAN, system)
    outcome = run_workload(system)
    print(f"  elapsed: {outcome['elapsed_ns']:.0f} ns, "
          f"full reads: {outcome['full_reads']}/{outcome['items']}")
    print(f"  faults injected: {injector.summary()['by_action']}")
    print(f"  recovery: {recovery_stats(system)}")
    violations = check_invariants(system)
    print(f"  invariants: {'all hold' if not violations else violations}")

    print("\n=== 3. guaranteed wedge, watchdog off ===")
    system = build_system()
    system.drain_timeout_ns = 300_000.0
    FaultInjector(FaultPlan(slot_wedge=1.0, watchdog_period_ns=0.0), system)

    def wedged_kern(ctx):
        yield from ctx.sys.getrusage(blocking=False)

    try:
        system.run_kernel(wedged_kern, 1, 1, name="wedged")
        print("  (unexpectedly drained clean)")
    except DrainTimeout as exc:
        print(f"  DrainTimeout: {exc}")


if __name__ == "__main__":
    main()
