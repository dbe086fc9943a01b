"""Tests for the metrics-snapshot exporter and the rate meters' Perfetto
counter tracks (attach specs and ``run --attach`` are in test_cli.py)."""

import json

from repro.machine import small_machine
from repro.probes.exporters import metrics_snapshot
from repro.probes.policy import fixed
from repro.probes.programs import CounterProbe, RateMeter
from repro.probes.tracepoints import ProbeRegistry
from repro.system import System
from repro.traceviz import PROCESSES, program_tracks, trace_events

PROBES_PID = PROCESSES["probes"][0]


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
        reg.attach("irq.raised", CounterProbe(reg))
        reg.attach_policy("coalesce.window", fixed(1000.0))
        snap = metrics_snapshot(reg, experiment="unit")
        assert snap["schema"] == 1
        assert snap["experiment"] == "unit"
        assert snap["simulated_ns"] == 0.0
        assert snap["tracepoints"]["irq.raised"]["observers"] == 1
        assert snap["hooks"]["coalesce.window"]["programs"] == 1
        assert len(snap["programs"]) == 1

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

    def test_no_series_programs_no_events(self):
        reg = ProbeRegistry()
        reg.tracepoint("t")
        reg.attach("t", CounterProbe(reg))
        assert program_tracks(reg.programs) == []

    def test_rate_meter_becomes_counter_track(self):
        class Clock:
            now = 0.0

        reg = ProbeRegistry(Clock())
        reg.tracepoint("irq.raised")
        meter = reg.attach("irq.raised", RateMeter(reg, bin_ns=1000.0))
        meter()
        meter()
        events = trace_events(program_tracks(reg.programs))
        assert events[0]["ph"] == "M"
        assert events[0]["pid"] == PROBES_PID
        counters = [e for e in events if e["ph"] == "C"]
        # 2 fires / 1000 ns, then the idle bin after it drops to zero.
        assert [(e["ts"], e["args"]["value"]) for e in counters] == [
            (0.0, 2e6), (1.0, 0.0)
        ]
        for event in counters:
            assert event["name"] == "probe:irq.raised"
            assert event["pid"] == PROBES_PID

