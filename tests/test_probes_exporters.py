"""Tests for the metrics-snapshot exporter and the probe hubs' Perfetto
counter tracks (attach specs and ``run --attach`` are in test_cli.py)."""

import json

from repro.machine import small_machine
from repro.metrics import MetricsHub, probe_specs
from repro.probes.exporters import metrics_snapshot
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Simulator
from repro.system import System
from repro.traceviz import PROCESSES, program_tracks, trace_events

METRICS_PID = PROCESSES["metrics"][0]


def probe_hub(registry, kind, pattern, window_ns=10_000.0):
    rows = probe_specs(registry, kind, pattern)
    return MetricsHub(window_ns, f"{kind}:{pattern}", catalog=rows).install(registry)


def ran_system():
    """A small run that exercises syscalls, irqs, and the page cache."""
    system = System(config=small_machine())
    system.kernel.fs.create_file("/data/f", b"t" * 8192, on_disk=True)
    system.kernel.fs.resolve("/data/f").cached_pages.clear()
    buf = system.memsystem.alloc_buffer(64)

    def kern(ctx):
        fd = yield from ctx.sys.open("/data/f")
        yield from ctx.sys.pread(fd, buf, 64, 0)
        yield from ctx.sys.close(fd)

    def body():
        yield system.launch(kern, 2, 2)

    system.run_to_completion(body())
    return system


class TestMetricsSnapshot:
    def test_shape_and_counts(self):
        system = System(config=small_machine())
        reg = system.probes
        probe_hub(reg, "counter", "irq.raised")
        snap = metrics_snapshot(reg)
        assert set(snap) == {"simulated_ns", "tracepoints", "programs"}
        assert snap["simulated_ns"] == 0.0
        assert snap["tracepoints"]["irq.raised"]["observers"] == 1
        (program,) = snap["programs"]
        assert program["label"] == "counter:irq.raised"
        assert program["lifetime"] == {"irq.raised": {"total": 0.0}}
        assert program["series"] == {"irq.raised": [], "irq.raised.rate": []}

    def test_hits_recorded_after_run(self):
        system = ran_system()
        reg = system.probes
        snap = metrics_snapshot(reg)
        # Tracepoints fire (and count hits) only while observed; these
        # had no observers, so hits stay zero — the detached guarantee.
        assert all(tp["hits"] == 0 for tp in snap["tracepoints"].values())

    def test_snapshot_is_json_serialisable(self):
        system = ran_system()
        json.dumps(metrics_snapshot(system.probes))


class TestProbeCounterTracks:
    def test_no_programs_no_events(self):
        assert trace_events(program_tracks(ProbeRegistry().programs)) == []

    def test_hub_with_no_closed_window_draws_nothing(self):
        reg = ProbeRegistry(Simulator())
        reg.tracepoint("t", ("x",))
        probe_hub(reg, "counter", "t")
        reg.get("t").fire(1)
        assert trace_events(program_tracks(reg.programs)) == []

    def test_rate_hub_becomes_counter_tracks(self):
        sim = Simulator()
        reg = ProbeRegistry(sim)
        tp = reg.tracepoint("irq.raised", ("payload",))
        hub = probe_hub(reg, "rate", "irq.raised", window_ns=1000.0)
        for t_ns in (0.0, 0.0, 2000.0):
            sim.call_at(t_ns, lambda: tp.fire(1))
        # Run past the last fire, so drawing closes its window too.
        sim.run(until=3000.0)
        events = trace_events(program_tracks(reg.programs))
        assert events[0]["ph"] == "M"
        assert events[0]["pid"] == METRICS_PID
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["pid"] for e in counters} == {METRICS_PID}
        # Closed windows only: 2 fires in the first 1000 ns, an idle
        # window that reads 0, then 1 fire.
        assert [(e["ts"], e["args"]["value"]) for e in counters
                if e["name"] == "metric:rate:irq.raised:irq.raised.rate"] == [
            (0.0, 2e6), (1.0, 0.0), (2.0, 1e6)
        ]
        assert [e["args"]["value"] for e in counters
                if e["name"] == "metric:rate:irq.raised:irq.raised"] == [2.0, 0.0, 1.0]

