"""MetricsHub integration: installation, weak flush ticks, reads, and
the exporters (Prometheus / CSV / TEF)."""

import json

import pytest

from repro import experiments
from repro.metrics import MetricsHub, MetricsHubPlan, metrics_hubs
from repro.metrics.export import csv_text, prometheus_text, series_payload
from repro.probes.tracepoints import attached
from repro.system import System
from repro.traceviz import PROCESSES, program_tracks, trace_events


def run_with_hub(name, window_ns=10_000.0):
    with attached(MetricsHubPlan(window_ns=window_ns)) as (plan,):
        return experiments.run(name), plan


class TestInstallation:
    def test_plan_installs_one_hub_per_system(self):
        with attached(MetricsHubPlan()) as (plan,):
            a = System()
            b = System()
        assert len(plan.hubs) == 2
        assert metrics_hubs(a.probes) == [plan.hubs[0]]
        assert metrics_hubs(b.probes) == [plan.hubs[1]]
        assert plan.hub is plan.hubs[-1]

    def test_hub_attaches_catalog_feeds(self):
        system = System()
        hub = MetricsHub().install(system.probes)
        # every catalog metric got an estimator…
        assert set(hub.metrics) == {s.name for s in hub.catalog}
        # …and the wired tracepoints are now enabled
        for tp_name in ("syscall.complete", "wq.depth", "net.drop"):
            assert system.probes.get(tp_name).enabled

    def test_install_on_partial_registry_skips_unknown(self):
        from repro.probes.tracepoints import ProbeRegistry

        registry = ProbeRegistry(None)
        registry.tracepoint("net.tx", ("nbytes",), "only this one exists")
        hub = MetricsHub().install(registry)
        assert "net.tx.rate" in hub.metrics  # wired
        assert "syscall.rate" in hub.metrics  # estimator exists, no feed

    def test_metrics_hubs_empty_cases(self):
        assert metrics_hubs(None) == []
        assert metrics_hubs(System().probes) == []


class TestTicksAndReads:
    def test_fig2_run_ticks_and_reads(self):
        _result, plan = run_with_hub("fig2")
        hub = plan.hub
        assert hub is not None
        assert hub.ticks > 0  # weak flush ticks ran at window boundaries
        assert hub.read("syscall.rate", window=1000, mode="count") > 0
        assert hub.read("syscall.latency", mode="count") > 0
        # reads never raise on idle metrics, they report zero
        assert hub.read("net.drop.rate") == 0.0

    def test_weak_ticks_never_advance_or_block_the_sim(self):
        registries = []

        def plan(registry):
            MetricsHub().install(registry)
            registries.append(registry)

        with attached(plan):
            experiments.run("fig2")
        sim = registries[0].sim
        assert sim.weak_scheduled > 0
        # drained: no parked metrics tick is keeping the heap alive
        assert not sim._live_work_pending()

    def test_plan_read_convenience(self):
        _result, plan = run_with_hub("fig2")
        assert plan.read("syscall.rate", window=1000) >= 0.0
        assert MetricsHubPlan().read("syscall.rate") == 0.0


class TestExporters:
    def test_prometheus_shape(self):
        _result, plan = run_with_hub("fig2")
        text = prometheus_text(plan.hub, "fig2")
        assert text.endswith("\n")
        lines = text.splitlines()
        assert any(line.startswith("# HELP repro_syscall_rate") for line in lines)
        assert any(line.startswith("# TYPE repro_syscall_rate_total counter")
                   for line in lines)
        for line in lines:
            if line.startswith("#"):
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample parses
            assert name_part.startswith("repro_")
            assert 'experiment="fig2"' in name_part

    def test_csv_shape(self):
        _result, plan = run_with_hub("fig2")
        text = csv_text(plan.hub)
        lines = text.strip().splitlines()
        assert lines[0] == "metric,t0_ns,value"
        assert len(lines) > 1
        for line in lines[1:]:
            metric, t0, value = line.split(",")
            float(t0)
            float(value)
            assert metric

    def test_series_payload_json_ready(self):
        _result, plan = run_with_hub("fig2")
        payload = series_payload(plan.hub)
        encoded = json.dumps(payload, sort_keys=True)
        assert payload["schema"] == 1
        assert payload["window_ns"] == 10_000.0
        assert "syscall.rate" in payload["series"]
        assert json.loads(encoded) == payload

    def test_tef_events_valid(self):
        _result, plan = run_with_hub("fig2")
        events = trace_events(program_tracks(plan.hub.registry.programs))
        assert events, "fig2 with a hub must export counter tracks"
        assert events[0]["ph"] == "M"
        assert all(e["pid"] == PROCESSES["metrics"][0] for e in events)
        for event in events:
            assert event["ph"] in ("M", "C")
            if event["ph"] == "C":
                assert event["name"].startswith("metric:")
                assert isinstance(event["ts"], float)
                assert isinstance(event["args"]["value"], (int, float))
        json.dumps(events)  # serializable as-is

    def test_idle_hub_draws_no_tracks(self):
        assert MetricsHub().install(System().probes).trace_tracks() == []

    def test_traceviz_merges_metrics_process(self):
        from repro.serving.sweep import ServingConfig, build_target, run_point_on
        from repro.traceviz import export_chrome_trace

        config = ServingConfig(
            workload="udp-echo", num_clients=8,
            warmup_ns=50_000.0, measure_ns=100_000.0,
        )
        with attached(MetricsHubPlan()):
            system, workload = build_target(config)
        run_point_on(system, workload, config, 20_000)
        trace = export_chrome_trace(system)
        pids = {e.get("pid") for e in trace["traceEvents"]}
        assert 5 in pids
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e.get("ph") == "M" and e["name"] == "process_name"
        }
        assert "metrics" in names
        json.dumps(trace)


class TestGtopRendering:
    def test_render_frame_lists_catalog(self):
        from repro.metrics.gtop import render_frame

        _result, plan = run_with_hub("fig2")
        hub = plan.hub
        frame = render_frame(hub, hub.now(), "fig2")
        for name in ("syscall.rate", "wq.depth", "dram.queue"):
            assert name in frame
        assert "TREND" in frame

    def test_cli_report_fig2(self, capsys):
        from repro.cli import main

        assert main(["run", "fig2", "--attach", "metrics", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "gtop — fig2" in out
        assert "syscall.rate" in out

    def test_cli_gtop_serving_point(self, capsys):
        from repro.cli import main

        rc = main([
            "gtop", "serving", "--workload", "udp-echo",
            "--rps", "20000", "--clients", "8",
            "--warmup-us", "50", "--measure-us", "100",
            "--every", "5",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gtop — serving udp-echo @20000rps" in out
        assert "net.tx.rate" in out
        assert "achieved" in out

    def test_cli_run_writes_exports(self, tmp_path, capsys):
        from repro.cli import main

        prom = tmp_path / "m.prom"
        csv = tmp_path / "m.csv"
        payload = tmp_path / "m.json"
        rc = main([
            "run", "fig2", "--attach", "metrics", "--quiet",
            "--prom", str(prom), "--csv", str(csv), "--hub-json", str(payload),
        ])
        assert rc == 0
        assert prom.read_text().startswith("# HELP")
        assert csv.read_text().startswith("metric,t0_ns,value")
        doc = json.loads(payload.read_text())
        assert doc["experiment"] == "fig2"
