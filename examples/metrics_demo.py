#!/usr/bin/env python
"""Metrics demo: the windowed telemetry plane on a live run.

Attaches a ``MetricsHubPlan`` so every ``System`` built inside the
``attached`` block gets a ``MetricsHub``: windowed rate/gauge/histogram
estimators fed by the stack's tracepoints.  No timer drives them: a
window closes when a later sample lands or a reader asks, so the hub
schedules no simulator event.  Runs the paper's Figure 2
microbenchmark under the hub, prints the metrics frame, reads a few
metrics through the ``hub.read(name, window)`` API, and shows the
closed windows of one series from the hub's snapshot (what
``python -m repro run --json`` writes).

The load-bearing property: the run is byte-identical with or without
the hub attached (see tests/test_observer_neutrality.py).

Run:  python examples/metrics_demo.py
"""

from repro import experiments
from repro.metrics import MetricsHubPlan
from repro.probes.tracepoints import attached


def heap_pushes(*plans):
    """Run fig2 under ``plans``; every heap push takes a sequence number,
    so a System's ``sim._seq`` counts the events it scheduled."""
    registries = []
    with attached(registries.append, *plans):
        result = experiments.run("fig2")
    return result, sum(registry.sim._seq for registry in registries)


def main() -> None:
    bare, bare_pushes = heap_pushes()
    plan = MetricsHubPlan(window_ns=10_000.0)
    result, hub_pushes = heap_pushes(plan)

    hub = plan.hub
    assert hub is not None, "fig2 builds a System, the plan must fire"
    assert hub_pushes == bare_pushes, "the hub scheduled an event"

    print("== metrics frame (windowed view over the whole run) ==")
    print(hub.render_frame("fig2"))

    print("== point reads through hub.read(name, window) ==")
    for name, window, mode in (
        ("syscall.rate", 1000, "count"),
        ("syscall.latency", None, "p95"),
        ("syscall.inflight", None, "max"),
        ("pagecache.hit_rate", None, None),
    ):
        value = hub.read(name, window=window or 1, mode=mode)
        print(f"  {name:>22}  window={window or 1:<6} {mode or 'default':>8}"
              f"  -> {value:.3f}")

    print()
    print("== closed windows of syscall.latency.p99 (from hub.snapshot()) ==")
    snapshot = hub.snapshot()
    for t0, value in snapshot["series"]["syscall.latency.p99"]:
        print(f"  t0={t0 / 1000.0:6.1f}us  p99={value:.0f} ns")

    # The experiment itself is untouched by the instrumentation.
    assert result.render() == bare.render(), "the hub changed fig2"
    windows = sum(len(series) for series in snapshot["series"].values())
    print()
    print("fig2 output unchanged with the hub attached; "
          f"{windows} closed windows over {len(hub.metrics)} catalog metrics.")


if __name__ == "__main__":
    main()
