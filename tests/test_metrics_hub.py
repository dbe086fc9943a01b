"""MetricsHub integration: installation, reads without a timer, the
whole-run snapshot, Perfetto counter tracks and the printed frame."""

import json

import pytest

from repro import experiments
from repro.metrics import MetricsHub, MetricsHubPlan, metrics_hubs, probe_specs
from repro.metrics.collectors import CATALOG
from repro.probes.tracepoints import ProbeRegistry, attached
from repro.sim.engine import Simulator
from repro.system import System
from repro.traceviz import PROCESSES, program_tracks, trace_events


def run_with_hub(name, window_ns=10_000.0):
    with attached(MetricsHubPlan(window_ns=window_ns)) as (plan,):
        return experiments.run(name), plan


def heap_pushes(name, *plans):
    """Every heap push takes a sequence number, so the Systems'
    ``sim._seq`` summed is the events the run ``name`` scheduled."""
    registries = []
    with attached(registries.append, *plans):
        experiments.run(name)
    return sum(registry.sim._seq for registry in registries)


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
        assert set(hub.metrics) == {s.name for s in CATALOG}
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


class TestReads:
    def test_fig2_run_reads(self):
        _result, plan = run_with_hub("fig2")
        hub = plan.hub
        assert hub is not None
        assert hub.read("syscall.rate", window=1000, mode="count") > 0
        assert hub.read("syscall.latency", mode="count") > 0
        # reads never raise on idle metrics, they report zero
        assert hub.read("net.drop.rate") == 0.0

    @pytest.mark.parametrize("name", ["fig2", "fig10", "fig12", "fig16"])
    def test_attached_hub_schedules_no_simulator_event(self, name):
        plan = MetricsHubPlan()
        assert heap_pushes(name, plan) == heap_pushes(name)
        assert plan.hub is not None

    def test_row_that_never_fires_keeps_no_windows(self):
        _result, plan = run_with_hub("fig2")
        series = plan.hub.export_series()
        assert series["syscall.rate"]
        assert series["net.drop.rate"] == series["net.drop.rate.rate"] == []

    def test_series_start_at_the_first_window_that_fired(self):
        """No timer opens windows before a row's first sample, so its
        series has no leading zeros; idle windows after it still close
        to zero."""
        registry = probe_registry()
        hub = probe_hub(registry, "counter", "irq.raised", window_ns=1000.0)
        fire_at(registry, "irq.raised", [(3500.0, (1,)), (6200.0, (1,))], until=8000.0)
        hub.finalize()
        assert hub.export_series()["irq.raised"] == [
            (3000.0, 1.0), (4000.0, 0.0), (5000.0, 0.0), (6000.0, 1.0), (7000.0, 0.0),
        ]

    def test_mid_run_read_closes_windows_up_to_now(self):
        """A read inside the run closes the windows that ended before
        ``sim.now`` itself."""
        registry = probe_registry()
        hub = probe_hub(registry, "counter", "irq.raised", window_ns=1000.0)
        reads = []
        registry.sim.call_at(5500.0, lambda: reads.append((
            hub.read("irq.raised", mode="count"),
            hub.read("irq.raised", window=2, mode="count"),
        )))
        fire_at(registry, "irq.raised", [(3500.0, (1,)), (6200.0, (1,))])
        assert reads == [(0.0, 1.0)]  # [4000, 5000) was idle, [3000, 4000) was not


class TestSnapshot:
    def test_snapshot_carries_the_closed_windows(self):
        _result, plan = run_with_hub("fig2")
        hub = plan.hub
        snap = hub.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert snap["window_ns"] == 10_000.0 and snap["label"] == "sys0"
        assert snap["series"] == {
            key: [[t0, value] for t0, value in windows]
            for key, windows in hub.export_series().items()
        }
        assert snap["series"]["syscall.rate"]
        assert snap["last_window"]["syscall.rate"] == hub.read("syscall.rate")


class TestExporters:
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


class TestFrame:
    def test_render_frame_lists_catalog(self):
        _result, plan = run_with_hub("fig2")
        frame = plan.hub.render_frame("fig2")
        assert frame.startswith("metrics — fig2  t=45.6us  window=10us  hub=sys0")
        for name in ("syscall.rate", "wq.depth", "dram.queue"):
            assert name in frame
        assert "TREND" in frame

    def test_cli_report_fig2(self, capsys):
        from repro.cli import main

        assert main(["run", "fig2", "--attach", "metrics", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "metrics — fig2" in out
        assert "syscall.rate" in out

    def test_cli_serving_point_writes_series(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "serving.json"
        rc = main([
            "serve", "--workload", "udp-echo", "--attach", "metrics",
            "--rps", "20000", "--clients", "8",
            "--warmup-us", "50", "--measure-us", "100", "--json", str(path),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "metrics — serving" in out and "net.tx.rate" in out
        assert "achieved" in out
        doc = json.loads(path.read_text())
        (hub,) = doc["systems"][0]["programs"]
        assert hub["label"] == "sys0"
        assert hub["series"]["net.tx.rate"]
        assert doc["point"]["rps_target"] == 20000


def probe_registry():
    """A registry on a bare simulator with three declared tracepoints."""
    registry = ProbeRegistry(Simulator())
    registry.tracepoint("irq.raised", ("payload",))
    registry.tracepoint("irq.serviced", ("payload",))
    registry.tracepoint("t", ("name", "hw_id", "service_ns"))
    return registry


def probe_hub(registry, kind, pattern, arg=None, window_ns=10_000.0):
    rows = probe_specs(registry, kind, pattern, arg)
    return MetricsHub(window_ns, f"{kind}:{pattern}", catalog=rows).install(registry)


def fire_at(registry, name, fires, until=None):
    """Fire ``name`` with each ``(t_ns, args)`` at its simulated time,
    and leave the clock at ``until`` if given."""
    tp = registry.get(name)
    for t_ns, args in fires:
        registry.sim.call_at(t_ns, lambda args=args: tp.fire(*args))
    registry.sim.run(until)


class TestProbeSpecs:
    """``--attach counter|hist|rate`` specs as catalog rows."""

    def test_counter_gives_one_row_per_match(self):
        rows = probe_specs(probe_registry(), "counter", "irq.*", 0)
        assert [(r.name, r.kind) for r in rows] == [
            ("irq.raised", "counter"), ("irq.serviced", "counter"),
        ]
        assert rows[0].sources == (("irq.raised", "count", {"key_arg": 0}),)

    def test_rate_rows_are_counter_rows(self):
        registry = probe_registry()
        rate = probe_specs(registry, "rate", "*")
        counter = probe_specs(registry, "counter", "*")
        assert [(r.name, r.kind, r.sources) for r in rate] == [
            (r.name, r.kind, r.sources) for r in counter
        ]

    def test_hist_observes_argument_zero_by_default(self):
        (row,) = probe_specs(probe_registry(), "hist", "t")
        assert row.kind == "histogram"
        assert row.sources == (("t", "observe", {"value_arg": 0}),)
        (row,) = probe_specs(probe_registry(), "hist", "t", 2)
        assert row.sources == (("t", "observe", {"value_arg": 2}),)

    @pytest.mark.parametrize("pattern", ["no.such.tp", "no.such.*"])
    def test_nothing_matched_is_a_key_error(self, pattern):
        with pytest.raises(KeyError, match="no.such"):
            probe_specs(probe_registry(), "counter", pattern)

    @pytest.mark.parametrize(
        "kind, pattern, arg",
        [("hist", "t", 3), ("counter", "t", 9), ("counter", "*", 1)],
    )
    def test_argument_past_the_declaration_is_refused(self, kind, pattern, arg):
        with pytest.raises(ValueError, match=rf"has no argument {arg}; its arguments are \("):
            probe_specs(probe_registry(), kind, pattern, arg)


class TestProbeHubs:
    """What the deleted probe programs did, pinned on a probe hub."""

    def test_counts_per_key(self):
        registry = probe_registry()
        hub = probe_hub(registry, "counter", "t", 0)
        fire_at(registry, "t", [(0.0, ("pread", 1, 5.0)), (1.0, ("pread", 2, 5.0)),
                                (2.0, ("open", 3, 5.0))])
        counter = hub.metrics["t"]
        assert counter.total == 3.0
        assert counter.by_key == {"open": 1.0, "pread": 2.0}

    def test_keys_are_the_argument_as_text(self):
        registry = probe_registry()
        hub = probe_hub(registry, "counter", "irq.raised", 0)
        fire_at(registry, "irq.raised", [(0.0, (7,)), (1.0, ([1, 2],))])
        assert hub.metrics["irq.raised"].by_key == {"7": 1.0, "[1, 2]": 1.0}

    def test_value_arg_selects_the_position(self):
        registry = probe_registry()
        hub = probe_hub(registry, "hist", "t", 2)
        fire_at(registry, "t", [(0.0, ("pread", 7, 4096.0))])
        lifetime = hub.metrics["t"].lifetime
        assert (lifetime.count, lifetime.max) == (1, 4096.0)

    def test_fires_without_a_number_are_skipped(self):
        registry = probe_registry()
        hub = probe_hub(registry, "hist", "t")
        fire_at(registry, "t", [(0.0, ("pread", 7, 1.0)), (1.0, (None, 7, 1.0)),
                                (2.0, (3, 7, 1.0))])
        assert hub.metrics["t"].lifetime.count == 1
        assert hub.metrics["t"].lifetime.total == 3.0

    @pytest.mark.parametrize(
        "until, series",
        [
            (999.0, []),
            (1000.0, [(0.0, 1.0)]),
            (2500.0, [(0.0, 1.0), (1000.0, 0.0)]),
        ],
    )
    def test_finalize_closes_the_windows_ended_by_now(self, until, series):
        registry = probe_registry()
        hub = probe_hub(registry, "counter", "irq.raised", window_ns=1000.0)
        fire_at(registry, "irq.raised", [(500.0, (1,))], until=until)
        hub.finalize()
        assert hub.export_series().get("irq.raised", []) == series

    def test_finalize_again_at_the_same_time_changes_nothing(self):
        registry = probe_registry()
        hub = probe_hub(registry, "counter", "irq.raised", window_ns=1000.0)
        fire_at(registry, "irq.raised", [(500.0, (1,)), (1500.0, (1,))], until=2500.0)
        hub.finalize()
        first = hub.export_series()
        hub.finalize()
        assert hub.export_series() == first

    def test_rate_reads_fires_per_simulated_second(self):
        registry = probe_registry()
        hub = probe_hub(registry, "rate", "irq.raised", window_ns=1000.0)
        fire_at(registry, "irq.raised", [(0.0, (1,)), (0.0, (1,)), (2500.0, (1,))],
                until=3000.0)
        hub.finalize()
        assert hub.export_series()["irq.raised.rate"] == [
            (0.0, 2e6), (1000.0, 0.0), (2000.0, 1e6),
        ]

    def test_idle_windows_read_zero_after_a_busy_run(self):
        """A counter track holds its value until the next sample, so
        every idle window after a busy one must read 0."""
        registry = probe_registry()
        hub = probe_hub(registry, "rate", "irq.raised", window_ns=100.0)
        fire_at(registry, "irq.raised",
                [(t, (1,)) for t in (10.0, 120.0, 130.0, 250.0, 940.0)], until=1000.0)
        hub.finalize()
        rates = [rate for _t0, rate in hub.export_series()["irq.raised.rate"]]
        assert rates == [1e7, 2e7, 1e7, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1e7]

    def test_snapshot_reports_whole_run_aggregates(self):
        registry = probe_registry()
        counter = probe_hub(registry, "counter", "t", 0)
        hist = probe_hub(registry, "hist", "t", 2)
        fire_at(registry, "t", [(0.0, ("pread", 1, 5.0)), (20_000.0, ("open", 1, 100.0))])
        assert counter.snapshot()["lifetime"] == {
            "t": {"total": 2.0, "by_key": {"open": 1.0, "pread": 1.0}},
        }
        snap = hist.snapshot()
        assert snap["label"] == "hist:t"
        assert snap["lifetime"]["t"] == {
            "count": 2, "mean": 52.5, "min": 5.0, "max": 100.0,
            "buckets": {"[4, 8)": 1, "[64, 128)": 1},
        }
        json.dumps([counter.snapshot(), snap])


class TestCatalogAndLabels:
    @pytest.mark.parametrize("window_ns", [0.0, -5.0])
    def test_window_must_be_positive(self, window_ns):
        with pytest.raises(ValueError, match="window_ns must be positive"):
            MetricsHub(window_ns)

    def test_hub_carries_only_its_catalog(self):
        registry = System().probes
        rows = [spec for spec in CATALOG if spec.name == "wq.depth"]
        hub = MetricsHub(catalog=rows).install(registry)
        assert list(hub.metrics) == list(hub.specs) == ["wq.depth"]
        assert registry.get("wq.depth").enabled
        assert not registry.get("syscall.complete").enabled

    def test_catalog_full_snapshot_has_one_lifetime_entry_per_metric(self):
        _result, plan = run_with_hub("fig2")
        snap = plan.hub.snapshot()
        assert list(snap["lifetime"]) == [spec.name for spec in CATALOG]
        assert snap["lifetime"]["syscall.latency"]["count"] > 0
        assert snap["lifetime"]["wq.depth"] == {}

    def test_every_hub_on_a_registry_gets_a_distinct_label(self):
        registry = System().probes
        labels = [MetricsHub(label=label).install(registry).label
                  for label in ("sys0", "sys0", "qos", "sys0")]
        assert labels == ["sys0", "sys0#2", "qos", "sys0#3"]

    def test_two_plans_on_one_system_keep_apart(self):
        with attached(MetricsHubPlan(), MetricsHubPlan(window_ns=20_000.0)) as (a, b):
            System()
        assert [hub.label for hub in a.hubs + b.hubs] == ["sys0", "sys0#2"]
