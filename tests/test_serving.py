"""repro.serving: open-loop arrivals, zipf popularity, fixed-RPS points.

The harness's whole value is determinism: a seed pins the arrival
timestamp stream, the key sequence, and therefore every latency and
every byte of ``BENCH_serving.json``.  These tests also pin the
open-loop semantics themselves — overload shows up as lost completions
and bounded-backlog drops, not as a throttled arrival clock.
"""

import json
import weakref

import pytest

from repro.serving.arrivals import ArrivalSpec, arrival_times
from repro.serving.clients import (
    HDR_BYTES,
    ZipfKeys,
    build_schedule,
    pack_reqid,
    unpack_reqid,
)
from repro.serving import report
from repro.serving.sweep import (
    ServingConfig,
    build_target,
    run_point,
    run_point_on,
    sweep,
)
from repro.workloads.base import DeterministicRandom

#: Small-but-real serving shape shared by the tests: ~0.05 s wall per
#: point at these windows.
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


# -- arrivals ----------------------------------------------------------------


def test_poisson_same_seed_identical_stream():
    spec = ArrivalSpec()
    a = arrival_times(spec, 100_000, 1_000_000.0, seed=42)
    b = arrival_times(spec, 100_000, 1_000_000.0, seed=42)
    assert a == b
    assert arrival_times(spec, 100_000, 1_000_000.0, seed=43) != a


def test_poisson_rate_and_monotonicity():
    times = arrival_times(ArrivalSpec(), 200_000, 5_000_000.0, seed=7)
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(0 <= t < 5_000_000.0 for t in times)
    # 200k RPS over 5 ms -> ~1000 arrivals; Poisson sd ~ 32.
    assert 850 <= len(times) <= 1150


def test_onoff_same_seed_identical_and_rate_preserving():
    spec = ArrivalSpec(kind="onoff", on_fraction=0.4, period_ns=80_000.0)
    a = arrival_times(spec, 200_000, 5_000_000.0, seed=5)
    assert a == arrival_times(spec, 200_000, 5_000_000.0, seed=5)
    assert all(b > a_ for a_, b in zip(a, a[1:]))
    # Long-run average still ~200k RPS even though arrivals are bursty.
    assert 700 <= len(a) <= 1300


def test_onoff_is_burstier_than_poisson():
    """Max arrivals in any 10 us bucket: the ON/OFF burst rate is
    1/on_fraction times the average, so its peak bucket must beat
    Poisson's at the same offered rate."""

    def peak_bucket(times):
        buckets = {}
        for t in times:
            buckets[int(t // 10_000)] = buckets.get(int(t // 10_000), 0) + 1
        return max(buckets.values())

    poisson = arrival_times(ArrivalSpec(), 100_000, 10_000_000.0, seed=11)
    onoff = arrival_times(
        ArrivalSpec(kind="onoff", on_fraction=0.25, period_ns=200_000.0),
        100_000, 10_000_000.0, seed=11,
    )
    assert peak_bucket(onoff) > peak_bucket(poisson)


def test_arrival_validation():
    with pytest.raises(ValueError):
        ArrivalSpec(kind="uniform")
    with pytest.raises(ValueError):
        ArrivalSpec(on_fraction=0.0)
    with pytest.raises(ValueError):
        arrival_times(ArrivalSpec(), 0, 1000.0, seed=1)


# -- zipf popularity ---------------------------------------------------------


def test_zipf_same_seed_identical_sequence():
    keys = [b"key%04d" % i for i in range(64)]
    za = ZipfKeys(keys, s=0.99, perm_seed=3)
    zb = ZipfKeys(keys, s=0.99, perm_seed=3)
    ra, rb = DeterministicRandom(9), DeterministicRandom(9)
    seq_a = [za.draw(ra) for _ in range(500)]
    assert seq_a == [zb.draw(rb) for _ in range(500)]
    # A different permutation seed makes different keys hot.
    zc = ZipfKeys(keys, s=0.99, perm_seed=4)
    assert zc.keys != za.keys
    assert sorted(zc.keys) == sorted(za.keys)


def test_zipf_skew_and_uniform_degenerate():
    keys = [b"key%04d" % i for i in range(64)]
    skewed = ZipfKeys(keys, s=1.2, perm_seed=1)
    rng = DeterministicRandom(2)
    draws = [skewed.draw(rng) for _ in range(2000)]
    hottest = max(set(draws), key=draws.count)
    # Rank-1 key dominates and is the permutation's first key.
    assert hottest == skewed.keys[0]
    assert draws.count(hottest) > 2000 / 64 * 4
    uniform = ZipfKeys(keys, s=0.0, perm_seed=1)
    rng = DeterministicRandom(2)
    udraws = [uniform.draw(rng) for _ in range(2000)]
    assert max(udraws.count(k) for k in keys) < 2000 / 64 * 2.5


def test_reqid_framing_roundtrip():
    payload = b"Q" + pack_reqid(123_456_789) + b"GET key00000001"
    assert unpack_reqid(payload) == 123_456_789
    assert HDR_BYTES == 9


def test_build_schedule_round_robin_and_keys():
    keys = [b"k%02d" % i for i in range(8)]
    schedule = build_schedule(
        [10.0, 20.0, 30.0, 40.0], num_clients=2,
        make_payload=lambda reqid, key: b"Q" + pack_reqid(reqid) + key,
        popularity=ZipfKeys(keys, s=0.5, perm_seed=1), key_seed=4,
    )
    assert [r.client for r in schedule] == [0, 1, 0, 1]
    assert [r.reqid for r in schedule] == [0, 1, 2, 3]
    assert all(r.key in keys for r in schedule)


# -- fixed-RPS points --------------------------------------------------------


def test_point_same_seed_identical():
    config = ServingConfig(seed=5, **SMALL)
    a = run_point(config, 100_000)
    b = run_point(config, 100_000)
    assert a == b


def test_point_different_seed_differs():
    a = run_point(ServingConfig(seed=5, **SMALL), 100_000)
    b = run_point(ServingConfig(seed=6, **SMALL), 100_000)
    assert a["latency_ns"] != b["latency_ns"]


def test_point_lifecycle_accounting():
    point = run_point(ServingConfig(seed=1, **SMALL), 100_000)
    lifecycle = point["lifecycle"]
    assert lifecycle["sent"] == (
        lifecycle["completed"] + lifecycle["late"] + lifecycle["timeout"]
    )
    assert lifecycle["bad_replies"] == 0
    assert point["served"] >= lifecycle["completed"]
    assert point["slo_ok"]
    assert point["latency_ns"]["p50"] <= point["latency_ns"]["p99"]


def test_overload_drops_and_misses_slo():
    """Open-loop overload: offered RPS stays on target while the bounded
    server backlog drops datagrams and completions collapse."""
    config = ServingConfig(seed=1, rx_backlog=64, **SMALL)
    point = run_point(config, 500_000)
    assert not point["slo_ok"]
    assert point["completion"] < 0.9
    assert point["lifecycle"]["timeout"] > 0
    assert point["net"]["rx_queue_drops"] > 0
    assert point["offered_rps"] > 400_000
    # The backlog bound held: peak depth never exceeded capacity.
    assert point["net"]["rx_backlog_peak"] <= 64


def test_fresh_target_frees_the_previous_machine():
    # Machines are reference cycles; build_target collects before it
    # builds, so serving many points in one process keeps memory flat.
    config = ServingConfig(seed=1, **SMALL)
    system, workload = build_target(config)
    run_point_on(system, workload, config, 100_000)
    previous = weakref.ref(system)
    del system, workload
    build_target(config)
    assert previous() is None


def test_udp_echo_point():
    config = ServingConfig(workload="udp-echo", seed=2, **SMALL)
    point = run_point(config, 100_000)
    assert point["slo_ok"]
    assert point["lifecycle"]["completed"] > 0
    assert point == run_point(config, 100_000)


# -- sweeps and the report ---------------------------------------------------


def test_sweep_document_and_byte_identity():
    config = ServingConfig(seed=3, **SMALL)
    grid = [60_000, 120_000, 360_000]
    doc = sweep(config, grid)
    assert report.check_report(doc) == []
    assert [p["rps_target"] for p in doc["points"]] == grid
    assert doc["max_sustainable_rps"] > 0
    # SLO knee is bracketed by the grid and refined by bisection.
    assert 60_000 <= doc["max_sustainable_rps"] < 360_000
    again = sweep(config, grid)
    assert report.to_json(doc) == report.to_json(again)


def test_report_check_catches_structural_damage():
    config = ServingConfig(seed=3, **SMALL)
    doc = sweep(config, [60_000, 120_000])
    assert report.check_report(doc) == []
    broken = json.loads(report.to_json(doc))
    broken["points"][0].pop("latency_ns")
    broken["points"].reverse()
    broken["version"] = 99
    problems = report.check_report(broken)
    assert any("latency_ns" in p for p in problems)
    assert any("increasing" in p for p in problems)
    assert any("version" in p for p in problems)
    assert report.check_report({"schema": "nope"})


def test_serving_config_validation():
    with pytest.raises(ValueError):
        ServingConfig(workload="redis")
    with pytest.raises(ValueError):
        sweep(ServingConfig(**SMALL), [])
