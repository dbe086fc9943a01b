"""Tests for the attachable probe programs (counters, hists, rates)."""

import pytest

from repro.metrics.series import WindowedLog2Histogram
from repro.probes.programs import CounterProbe, LatencyHistogram, RateMeter, log2_bucket
from repro.probes.tracepoints import ProbeRegistry


class FakeSim:
    """A clock the tests can move by hand."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def registry():
    return ProbeRegistry(FakeSim())


class TestCounterProbe:
    def test_counts_fires(self, registry):
        probe = CounterProbe(registry)
        registry.tracepoint("t")
        registry.attach("t", probe)
        registry.get("t").fire()
        registry.get("t").fire()
        assert probe.count == 2
        assert probe.snapshot()["count"] == 2

    def test_key_arg_buckets_by_value(self, registry):
        probe = CounterProbe(registry, key_arg=0)
        probe("pread", 1)
        probe("pread", 2)
        probe("open", 3)
        assert probe.by_key == {"pread": 2, "open": 1}
        assert probe.snapshot()["by_key"] == {"open": 1, "pread": 2}

    def test_key_arg_beyond_fire_args_is_safe(self, registry):
        probe = CounterProbe(registry, key_arg=5)
        probe("only-one")
        assert probe.count == 1
        assert probe.by_key == {}

    def test_name_defaults_to_tracepoint(self, registry):
        registry.tracepoint("wq.enqueue")
        probe = registry.attach("wq.enqueue", CounterProbe(registry))
        assert probe.name == "wq.enqueue"


#: (value, bucket) pairs at and around the power-of-two edges.
LOG2_BUCKETS = [
    (-3.0, 0),
    (0.0, 0),
    (0.5, 0),
    (1.0, 0),
    (1.999, 0),
    (2.0, 1),
    (3.0, 1),
    (4.0, 2),
    (1023.0, 9),
    (1024.0, 10),
    (1025.0, 10),
    (2.0**40, 40),
]


class TestLog2Bucket:
    @pytest.mark.parametrize("value, bucket", LOG2_BUCKETS)
    def test_bucket_is_floor_log2_with_sub_one_in_zero(self, value, bucket):
        assert log2_bucket(value) == bucket

    @pytest.mark.parametrize("value, bucket", LOG2_BUCKETS)
    def test_probe_and_windowed_histograms_share_it(self, registry, value, bucket):
        probe = LatencyHistogram(registry)
        probe(value)
        windowed = WindowedLog2Histogram(10.0)
        windowed.observe(1.0, value)
        windowed.flush(1)
        assert probe.hist.buckets == {bucket: 1}
        edge = float(2 ** (bucket + 1))
        assert probe.hist.percentile(50.0) == windowed.windows[0][1]["p50"] == edge


class TestLatencyHistogram:
    def test_log2_buckets(self, registry):
        probe = LatencyHistogram(registry)
        for value in (0.25, 1, 1.5, 2, 3, 1000):
            probe(value)
        # [0,2) -> bucket 0 for <1 and [1,2); [2,4) -> bucket 1; 1000 -> bucket 9.
        assert probe.hist.buckets == {0: 3, 1: 2, 9: 1}

    def test_stats(self, registry):
        probe = LatencyHistogram(registry)
        probe(10)
        probe(30)
        assert probe.hist.count == 2
        assert probe.hist.mean == pytest.approx(20.0)
        assert probe.hist.min == 10
        assert probe.hist.max == 30

    def test_non_numeric_and_missing_args_skipped(self, registry):
        probe = LatencyHistogram(registry, value_arg=1)
        probe("name-only")  # no arg 1
        probe("name", "not-a-number")
        assert probe.hist.count == 0
        assert probe.hist.mean == 0.0

    def test_value_arg_selects_position(self, registry):
        probe = LatencyHistogram(registry, value_arg=2)
        probe("pread", 7, 4096.0)
        assert probe.hist.count == 1
        assert probe.hist.max == 4096.0

    def test_snapshot_bucket_labels(self, registry):
        hist = LatencyHistogram(registry)
        hist(5)
        snap = hist.snapshot()
        assert snap["buckets"] == {"[4, 8)": 1}
        assert snap["kind"] == "histogram"


class TestRateMeter:
    def test_rejects_nonpositive_bin(self, registry):
        with pytest.raises(ValueError):
            RateMeter(registry, bin_ns=0)

    def test_series_reports_rate_per_second(self, registry):
        meter = RateMeter(registry, bin_ns=1000.0)
        sim = registry.sim
        meter()
        meter()
        sim.now = 2500.0
        meter()
        # bin 0 holds 2 fires, bin 2 holds 1; rate = count * 1e9 / bin_ns.
        # The empty bin after each populated run reads 0.
        assert meter.series() == [
            (0.0, 2e6), (1000.0, 0.0), (2000.0, 1e6), (3000.0, 0.0)
        ]
        assert meter.count == 3

    def test_idle_bins_drop_to_zero_once(self, registry):
        """A Perfetto counter holds its value until the next sample, so
        the first idle bin after a busy run must read 0 (and only the
        first: a run of busy bins stays one unbroken track)."""
        meter = RateMeter(registry, bin_ns=100.0)
        for t in (10.0, 120.0, 130.0, 250.0, 940.0):
            registry.sim.now = t
            meter()
        assert meter.series() == [
            (0.0, 1e7), (100.0, 2e7), (200.0, 1e7), (300.0, 0.0),
            (900.0, 1e7), (1000.0, 0.0),
        ]
        assert meter.snapshot()["bins"] == 4  # the zeros are not bins

    def test_snapshot(self, registry):
        meter = RateMeter(registry, bin_ns=500.0)
        meter()
        snap = meter.snapshot()
        assert snap["kind"] == "rate"
        assert snap["count"] == 1
        assert snap["bin_ns"] == 500.0
        assert snap["bins"] == 1

    def test_counter_and_hist_draw_no_tracks(self, registry):
        assert not hasattr(CounterProbe(registry), "trace_tracks")
        assert not hasattr(LatencyHistogram(registry), "trace_tracks")
