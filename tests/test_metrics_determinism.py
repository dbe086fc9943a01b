"""The metrics plane's load-bearing guarantees beyond suite neutrality
(``tests/test_observer_neutrality.py``): a serving point is
byte-identical with the hub, and hub snapshots are seed-deterministic.
That a hub schedules no simulator event is checked in
``tests/test_metrics_hub.py``."""

import json

from repro import experiments
from repro.metrics import MetricsHubPlan
from repro.probes.tracepoints import attached


def run_attached(name, **plan_kwargs):
    with attached(MetricsHubPlan(**plan_kwargs)) as (plan,):
        return experiments.run(name).render(), plan


class TestAttachedVersusBare:
    def test_serving_point_byte_identical_with_hub(self):
        from repro.serving.sweep import ServingConfig, run_point

        config = ServingConfig(
            workload="udp-echo", num_clients=8,
            warmup_ns=50_000.0, measure_ns=100_000.0,
        )
        bare = json.dumps(run_point(config, 30_000), sort_keys=True)
        with attached(MetricsHubPlan()) as (plan,):
            attached_run = json.dumps(run_point(config, 30_000), sort_keys=True)
        assert attached_run == bare
        assert plan.hubs


class TestExportDeterminism:
    def test_same_seed_snapshots_byte_identical(self):
        _r1, plan1 = run_attached("fig2")
        _r2, plan2 = run_attached("fig2")
        first, second = plan1.hub.snapshot(), plan2.hub.snapshot()
        assert first["series"]["syscall.latency.p99"]
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)


class TestGSanComposition:
    def test_gsan_green_with_hub_under_serving_chaos(self):
        from repro.faults.chaos import run_one
        from repro.sanitizers.gsan import GSanPlan

        with attached(GSanPlan(), MetricsHubPlan()) as (gsan_plan, metrics_plan):
            report = run_one("serving", seed=7)
        assert report.ok, report.violations
        violations = gsan_plan.finish()
        assert violations == [], "\n".join(v.render() for v in violations)
        assert metrics_plan.hubs, "metrics plan never saw a System"
        # the hub measured the chaos run, it didn't just ride along
        assert any(
            hub.read("net.tx.rate", window=100_000, mode="count") > 0
            for hub in metrics_plan.hubs
        )
