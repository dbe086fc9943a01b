"""Farmed serving sweeps and chaos/GSan riding the serving harness.

Worker count must be invisible in the curves: every sweep or overload
point — grid or bisection probe, bare or under QoS — runs on its own
freshly built machine, which numbers its own pids, inodes and sockets,
so 1-, 2- and 4-worker runs serialize to identical JSON bytes.  Every
such machine is built under the caller's attach stack.  And the harness
composes with the fault stack: the ``serving``
chaos profile (IRQ drops + worker kills at moderate open-loop load)
must hold the liveness/safety invariants and stay GSan-clean.
"""

import pytest

from repro.faults import chaos
from repro.runfarm import _chaos_cell
from repro.serving import report
from repro.probes import attached
from repro.serving.sweep import ServingConfig, overload_curve, sweep

SMALL = dict(
    num_clients=32,
    warmup_ns=50_000.0,
    measure_ns=200_000.0,
    timeout_ns=300_000.0,
    elems_per_bucket=32,
    value_bytes=128,
    num_workgroups=4,
    workgroup_size=16,
    slo_p99_ns=150_000.0,
    bisect_iters=3,
)
GRID = [60_000, 120_000, 360_000]


def test_farmed_sweep_matches_serial_exactly():
    config = ServingConfig(seed=9, **SMALL)
    serial = sweep(config, GRID, workers=1)
    assert report.check_report(serial) == []
    for workers in (2, 4):
        farmed = sweep(config, GRID, workers=workers)
        assert report.to_json(farmed) == report.to_json(serial), (
            f"{workers}-worker sweep diverged from serial"
        )


def test_farmed_udp_echo_sweep_matches_serial():
    config = ServingConfig(workload="udp-echo", seed=4, **SMALL)
    serial = sweep(config, GRID, workers=1)
    farmed = sweep(config, GRID, workers=4)
    assert report.to_json(farmed) == report.to_json(serial)


@pytest.mark.parametrize("workload", ("memcached", "udp-echo"))
def test_farmed_overload_curve_matches_serial(workload):
    # A short receive queue makes the 2x-knee point drop datagrams, so
    # the document carries socket ids (drops.by_socket) as well.
    config = ServingConfig(workload=workload, rx_backlog=8, **SMALL)
    serial = overload_curve(config, multipliers=(1.0, 2.0), workers=1)
    farmed = overload_curve(config, multipliers=(1.0, 2.0), workers=2)
    assert report.to_json(farmed) == report.to_json(serial)
    assert serial["baseline"][-1]["drops"]["by_socket"]


class _CountingPlan:
    """An attach plan that attaches nothing and counts the machines
    it is applied to."""

    def __init__(self):
        self.machines = 0

    def __call__(self, registry):
        self.machines += 1


def test_every_sweep_point_machine_gets_the_attach_stack():
    config = ServingConfig(seed=9, **SMALL)
    with attached(_CountingPlan()) as (plan,):
        doc = sweep(config, GRID, workers=1)
    assert plan.machines == len(doc["points"]) + len(doc["bisection"])
    assert len(doc["bisection"]) > 0


def test_every_overload_point_machine_gets_the_attach_stack():
    config = ServingConfig(workload="udp-echo", **SMALL)
    with attached(_CountingPlan()) as (plan,):
        doc = overload_curve(config, multipliers=(1.0, 2.0), workers=1)
    assert plan.machines == len(doc["baseline"]) + len(doc["qos"]) == 4


# -- chaos + GSan riding a serving run ---------------------------------------


def test_serving_profile_enrolled():
    assert "serving" in chaos.PROFILES
    assert "serving" in chaos.EXPERIMENTS


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_serving_chaos_liveness_and_safety(seed):
    result = chaos.run_one("serving", seed)
    assert result.ok, result.violations
    assert result.injected > 0
    detail = result.detail
    # Faults may lose or delay replies, but the run drains and every
    # request classifies.
    assert detail["sent"] == (
        detail["completed"] + detail["late"] + detail["timeout"]
    )
    assert detail["completed"] > 0


def test_serving_chaos_gsan_clean():
    cell = _chaos_cell("serving", 7, 1.0, gsan=True)
    assert cell["ok"], cell["violations"]
    assert cell["injected"] > 0
    assert cell["gsan"]["events"] > 0
    assert cell["gsan"]["violations"] == []
