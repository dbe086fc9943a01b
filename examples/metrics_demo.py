#!/usr/bin/env python
"""Metrics demo: the windowed telemetry plane on a live run.

Attaches a ``MetricsHubPlan`` so every ``System`` built inside the
``attached`` block gets a ``MetricsHub``: windowed rate/gauge/histogram
estimators fed by the stack's tracepoints, flushed by weak simulator
ticks that never perturb simulated time.  Runs the paper's Figure 2
microbenchmark under the hub, prints a ``gtop``-style frame, reads a
few metrics through the ``hub.read(name, window)`` API, and shows the
Prometheus text exposition.

The load-bearing property: the run is byte-identical with or without
the hub attached (see tests/test_observer_neutrality.py).

Run:  python examples/metrics_demo.py
"""

from repro import experiments
from repro.metrics import MetricsHubPlan
from repro.metrics.gtop import render_frame
from repro.metrics.export import prometheus_text
from repro.probes.tracepoints import attached


def main() -> None:
    with attached(MetricsHubPlan(window_ns=10_000.0)) as (plan,):
        result = experiments.run("fig2")

    hub = plan.hub
    assert hub is not None, "fig2 builds a System, the plan must fire"
    assert hub.ticks > 0, "weak flush ticks ran at window boundaries"

    print("== gtop frame (windowed view over the whole run) ==")
    print(render_frame(hub, hub.now(), "fig2"))

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
    print("== Prometheus exposition (first lines) ==")
    for line in prometheus_text(hub, "fig2").splitlines()[:8]:
        print(f"  {line}")

    # The experiment itself is untouched by the instrumentation.
    assert result.render().strip(), "fig2 rendered its table"
    print()
    print("fig2 output unchanged with the hub attached; "
          f"{hub.ticks} weak ticks, {len(hub.metrics)} catalog metrics.")


if __name__ == "__main__":
    main()
