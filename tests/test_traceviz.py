"""Tests for the Chrome-trace exporter, the one Trace Event Format writer."""

import ast
import json
from pathlib import Path

import pytest

import repro
from repro.machine import small_machine
from repro.metrics import MetricsHub
from repro.probes.programs import RateMeter
from repro.system import System
from repro.traceviz import PROCESSES, export_chrome_trace, write_chrome_trace
from repro.tracing import SpanTracer

SRC = Path(repro.__file__).parent


def run_rw(system):
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


@pytest.fixture
def ran_system():
    return run_rw(System(config=small_machine()))


class TestExport:
    def test_syscall_events_present(self, ran_system):
        trace = export_chrome_trace(ran_system)
        syscall_events = [
            e for e in trace["traceEvents"] if e.get("cat") == "syscall"
        ]
        names = {e["name"] for e in syscall_events}
        assert {"open", "pread", "close"} <= names
        assert len(syscall_events) == ran_system.genesys.syscalls_completed

    def test_events_have_positive_durations(self, ran_system):
        trace = export_chrome_trace(ran_system)
        for event in trace["traceEvents"]:
            if event.get("ph") == "X":
                assert event["dur"] > 0
                assert event["ts"] >= 0

    def test_counter_tracks_present(self, ran_system):
        trace = export_chrome_trace(ran_system)
        counters = {e["name"] for e in trace["traceEvents"] if e.get("ph") == "C"}
        assert "cpu_utilization" in counters
        assert "gpu_slot_utilization" in counters
        assert "disk_throughput_MBps" in counters

    def test_timestamps_within_run(self, ran_system):
        trace = export_chrome_trace(ran_system)
        end_us = ran_system.now / 1000.0
        for event in trace["traceEvents"]:
            if "ts" in event and event.get("ph") != "M":
                assert 0 <= event["ts"] <= end_us + 1

    def test_metadata(self, ran_system):
        trace = export_chrome_trace(ran_system)
        assert trace["otherData"]["syscalls"] == ran_system.genesys.syscalls_completed
        assert trace["otherData"]["simulated_ns"] == ran_system.now

    def test_write_roundtrip(self, ran_system, tmp_path):
        path = tmp_path / "run.trace.json"
        written = write_chrome_trace(ran_system, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["otherData"] == written["otherData"]
        assert len(loaded["traceEvents"]) == len(written["traceEvents"])

    def test_empty_run_exports_cleanly(self):
        system = System(config=small_machine())
        trace = export_chrome_trace(system)
        assert isinstance(trace["traceEvents"], list)


class TestTraceEventFormat:
    """Validity of the emitted Trace Event Format records."""

    def test_complete_events_carry_required_keys(self, ran_system):
        trace = export_chrome_trace(ran_system)
        complete = [e for e in trace["traceEvents"] if e.get("ph") == "X"]
        assert complete
        for event in complete:
            assert {"name", "cat", "ph", "ts", "dur", "pid", "tid"} <= set(event)
            assert isinstance(event["name"], str)
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["dur"], (int, float))

    def test_counter_events_carry_required_keys(self, ran_system):
        trace = export_chrome_trace(ran_system)
        counters = [e for e in trace["traceEvents"] if e.get("ph") == "C"]
        assert counters
        for event in counters:
            assert {"name", "ph", "ts", "pid", "args"} <= set(event)
            assert isinstance(event["args"], dict)
            for value in event["args"].values():
                assert isinstance(value, (int, float))

    def test_every_pid_has_a_process_name(self, ran_system):
        trace = export_chrome_trace(ran_system)
        named = {
            e["pid"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        used = {e["pid"] for e in trace["traceEvents"] if e.get("ph") != "M"}
        assert used <= named

    def test_trace_is_json_serialisable(self, ran_system):
        json.dumps(export_chrome_trace(ran_system))


class TestProbeCounterTracks:
    def test_rate_meter_appears_as_probe_track(self):
        system = System(config=small_machine())
        meter = system.probes.attach(
            "syscall.complete", RateMeter(system.probes, bin_ns=5000.0)
        )
        run_rw(system)
        trace = export_chrome_trace(system)
        probe_events = [
            e
            for e in trace["traceEvents"]
            if e.get("ph") == "C" and e["name"].startswith("probe:")
        ]
        assert [(e["ts"] * 1000.0, e["args"]["value"]) for e in probe_events] == [
            (t, round(v, 4)) for t, v in meter.series()
        ]
        for event in probe_events:
            assert event["name"] == "probe:syscall.complete"
            assert event["pid"] == PROCESSES["probes"][0]
        # Idle time after the last busy bin reads as idle, not busy.
        assert probe_events[-1]["args"]["value"] == 0.0
        assert max(e["args"]["value"] for e in probe_events) > 0

    def test_no_probes_no_probe_tracks(self, ran_system):
        trace = export_chrome_trace(ran_system)
        assert not any(
            e["name"].startswith("probe:")
            for e in trace["traceEvents"]
            if e.get("ph") == "C"
        )


def _module_nodes():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        yield rel, ast.walk(ast.parse(path.read_text(), filename=str(path)))


class TestOneWriter:
    """traceviz is the only TEF writer, over the one pid table."""

    def test_only_traceviz_builds_trace_events(self):
        writers = set()
        for rel, nodes in _module_nodes():
            for node in nodes:
                keyed = isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "ph"
                    for k in node.keys
                )
                called = isinstance(node, ast.Call) and any(
                    kw.arg == "ph" for kw in node.keywords
                )
                if keyed or called:
                    writers.add(rel)
        assert writers == {"traceviz.py"}

    def test_no_pid_constants(self):
        found = [
            (rel, target.id)
            for rel, nodes in _module_nodes()
            for node in nodes
            if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name) and target.id.startswith("PID_")
        ]
        assert found == []

    def test_only_log2histogram_buckets(self):
        """One histogram: the package calls ``log2_bucket`` once, inside
        Log2Histogram."""

        def calls(nodes):
            return sum(
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Name)
                and n.func.id == "log2_bucket"
                for n in nodes
            )

        total = sum(calls(nodes) for _, nodes in _module_nodes())
        tree = ast.parse((SRC / "probes" / "programs.py").read_text())
        (hist,) = [
            n for n in tree.body
            if isinstance(n, ast.ClassDef) and n.name == "Log2Histogram"
        ]
        assert total == calls(ast.walk(hist)) == 1

    def test_shared_processes_and_threads_are_named_once(self):
        system = System(config=small_machine())
        registry = system.probes
        registry.attach("syscall.complete", RateMeter(registry, bin_ns=5000.0))
        registry.attach("irq.raised", RateMeter(registry, bin_ns=2000.0))
        SpanTracer(registry).install()
        MetricsHub(label="a").install(registry)
        MetricsHub(label="b").install(registry)
        run_rw(system)
        events = export_chrome_trace(system)["traceEvents"]

        used = {e["pid"] for e in events if e["ph"] != "M"}
        assert used == {pid for pid, _ in PROCESSES.values()}
        process_names = [
            (e["pid"], e["args"]["name"])
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert sorted(process_names) == sorted(PROCESSES.values())
        threads = [
            (e["pid"], e["tid"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(threads) == len(set(threads))

        tracks = {e["name"] for e in events if e["ph"] == "C"}
        assert {"probe:syscall.complete", "probe:irq.raised"} <= tracks
        metric_tracks = {t for t in tracks if t.startswith("metric:")}
        assert {t.split(":")[1] for t in metric_tracks} == {"a", "b"}
        assert "metric:a:syscall.rate" in metric_tracks
