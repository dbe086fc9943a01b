#!/usr/bin/env python
"""Probes demo: eBPF-style tracepoints on a live run, and a knob's effect.

Runs the same GPU-pread workload three times.  The first run attaches
observers — per-syscall counters, a log2 latency histogram over
``syscall.complete``, an IRQ rate, each a metrics hub over the rows
``probe_specs`` makes, as ``--attach counter|hist|rate`` does — and
prints the metrics snapshot.  The other two write the batch knob
(``/sys/genesys/coalescing_max_batch``), one of them also the window
knob (``/sys/genesys/coalescing_window_ns``), and show the effect on
interrupt/bundle counts.

Run:  python examples/probes_demo.py
"""

import json

from repro.core.coalescing import CoalescingConfig
from repro.metrics import MetricsHub, probe_specs
from repro.probes import metrics_snapshot
from repro.system import System

NUM_WORKITEMS = 64
READ_BYTES = 256


def build_system(coalescing=None) -> System:
    system = System(coalescing=coalescing)
    payload = b"\xab" * (READ_BYTES * NUM_WORKITEMS)
    # Disk-backed and initially cold, so reads exercise the page cache.
    inode = system.kernel.fs.create_file("/tmp/input.dat", payload, on_disk=True)
    inode.cached_pages.clear()
    return system


def run_workload(system: System) -> float:
    bufs = [system.memsystem.alloc_buffer(READ_BYTES) for _ in range(NUM_WORKITEMS)]

    def host_open():
        fd = yield from system.kernel.call(system.host, "open", "/tmp/input.dat")
        return fd

    fd = system.sim.run_process(host_open())

    def kern(ctx):
        yield from ctx.sys.pread(
            fd, bufs[ctx.global_id], READ_BYTES, READ_BYTES * ctx.global_id
        )

    return system.run_kernel(kern, NUM_WORKITEMS, 16, name="probed-read")


def observe() -> None:
    print("== observer probes (cannot change the simulation) ==")
    system = build_system()
    reg = system.probes

    # (label, kind, tracepoint pattern, argument): dispatches per syscall
    # name, the service-time histogram, the IRQ rate, page-cache counts.
    for label, kind, pattern, arg in (
        ("calls", "counter", "syscall.dispatch", 0),
        ("latency", "hist", "syscall.complete", 2),
        ("irqs", "rate", "irq.raised", None),
        ("pagecache", "counter", "fs.pagecache.*", None),
    ):
        rows = probe_specs(reg, kind, pattern, arg)
        MetricsHub(label=label, catalog=rows).install(reg)

    elapsed = run_workload(system)
    print(f"elapsed: {elapsed:.0f} ns simulated")
    snapshot = metrics_snapshot(reg)
    fired = {
        name: info["hits"]
        for name, info in snapshot["tracepoints"].items()
        if info["hits"]
    }
    print(f"tracepoints that fired: {fired}")
    print("whole-run aggregates per hub:")
    lifetimes = {hub["label"]: hub["lifetime"] for hub in snapshot["programs"]}
    print(json.dumps(lifetimes, indent=2))


def steer() -> None:
    print("\n== sysfs knobs (the sanctioned way to change behaviour) ==")
    for label, window_ns in (
        ("baseline (no coalescing)", 0.0),
        ("coalescing_window_ns=20000", 20_000.0),
    ):
        # window_ns and max_batch=8 are the window and batch knobs'
        # values; with no window the baseline still flushes every
        # request on its own.
        system = build_system(coalescing=CoalescingConfig(window_ns, max_batch=8))
        elapsed = run_workload(system)
        coalescer = system.genesys.coalescer
        print(
            f"{label:>42}: {elapsed:8.0f} ns, "
            f"{system.genesys.interrupts_sent} irqs -> "
            f"{coalescer.bundles_flushed} worker tasks "
            f"(mean bundle {coalescer.mean_bundle_size:.1f})"
        )


def main() -> None:
    observe()
    steer()


if __name__ == "__main__":
    main()
