"""Unit tests for the windowed estimator primitives (repro.metrics.series)
and the one log2 histogram behind them."""

import pickle

import pytest

from repro.metrics.series import (
    LevelSeries,
    Log2Histogram,
    WindowedCounter,
    WindowedGauge,
    WindowedLog2Histogram,
    WindowedRatio,
    log2_bucket,
)


class TestWindowedCounter:
    def test_counts_close_per_window(self):
        c = WindowedCounter(10.0)
        c.add(1.0)
        c.add(2.0)
        c.add(15.0)
        c.add(25.0)  # closes [0,10) and [10,20)
        assert c.windows == [(0.0, 2.0), (10.0, 1.0)]
        assert c.total == 4.0

    def test_empty_read_is_zero_not_raise(self):
        c = WindowedCounter(10.0)
        assert c.read() == 0.0
        assert c.read(5, mode="count") == 0.0
        assert c.read(0, mode="rate") == 0.0

    def test_rate_read(self):
        c = WindowedCounter(1000.0)
        for t in (0.0, 100.0, 200.0):
            c.add(t)
        c.flush(1)
        # 3 events in a 1000 ns window = 3e6 events/second
        assert c.read() == pytest.approx(3e6)
        assert c.read(mode="count") == 3.0

    def test_fraction_mode_for_duration_accumulators(self):
        c = WindowedCounter(100.0)
        c.add(5.0, n=25.0)  # 25 ns of stall inside a 100 ns window
        c.flush(1)
        assert c.read(mode="fraction") == pytest.approx(0.25)

    def test_gap_windows_close_to_zero(self):
        c = WindowedCounter(10.0)
        c.add(5.0)
        c.add(45.0)
        assert c.windows == [(0.0, 1.0), (10.0, 0.0), (20.0, 0.0), (30.0, 0.0)]

    def test_history_is_bounded(self, monkeypatch):
        monkeypatch.setattr(WindowedCounter, "MAX_WINDOWS", 8)
        c = WindowedCounter(1.0)
        for t in range(100):
            c.add(float(t))
        assert len(c.windows) <= 8

    def test_by_key_lifetime_totals(self):
        c = WindowedCounter(10.0)
        c.add(1.0, key="backlog")
        c.add(2.0, key="backlog")
        c.add(3.0, key="loss-model")
        assert c.by_key == {"backlog": 2.0, "loss-model": 1.0}
        assert c.lifetime_snapshot() == {
            "total": 3.0, "by_key": {"backlog": 2.0, "loss-model": 1.0},
        }

    def test_unkeyed_lifetime_has_no_by_key(self):
        c = WindowedCounter(10.0)
        c.add(1.0)
        assert c.lifetime_snapshot() == {"total": 1.0}

    @pytest.mark.parametrize("cls", [WindowedGauge, WindowedRatio, LevelSeries])
    def test_kinds_without_a_whole_run_aggregate(self, cls):
        assert cls(10.0).lifetime_snapshot() == {}


class TestWindowedGauge:
    def test_window_stats(self):
        g = WindowedGauge(10.0)
        g.set(1.0, 4.0)
        g.set(2.0, 8.0)
        g.set(11.0, 2.0)
        t0, (mean, mn, mx, last) = g.windows[0]
        assert (t0, mean, mn, mx, last) == (0.0, 6.0, 4.0, 8.0, 8.0)

    def test_empty_read_returns_last_or_zero(self):
        g = WindowedGauge(10.0)
        assert g.read() == 0.0
        g.set(1.0, 7.0)
        assert g.read() == 7.0  # no closed window yet -> standing level

    def test_carry_forward_across_idle_windows(self):
        g = WindowedGauge(10.0)
        g.set(1.0, 5.0)
        g.flush(4)  # a read at t=40: idle windows hold the level
        values = [v[0] for _, v in g.windows]
        assert values == [5.0, 5.0, 5.0, 5.0]

    def test_read_modes(self):
        g = WindowedGauge(10.0)
        g.set(1.0, 2.0)
        g.set(2.0, 10.0)
        g.flush(1)
        assert g.read(mode="max") == 10.0
        assert g.read(mode="min") == 2.0
        assert g.read(mode="last") == 10.0
        assert g.read(mode="mean") == 6.0


class TestWindowedLog2Histogram:
    def test_single_sample_percentiles_do_not_raise(self):
        h = WindowedLog2Histogram(10.0)
        h.observe(1.0, 3000.0)
        h.flush(1)
        # 3000 lands in bucket [2048, 4096): every percentile reports
        # the bucket's upper edge.
        for mode in ("p50", "p95", "p99"):
            assert h.read(mode=mode) == 4096.0

    def test_empty_reads_are_zero(self):
        h = WindowedLog2Histogram(10.0)
        assert h.read() == 0.0
        assert h.read(mode="count") == 0.0

    def test_window_dict_shape(self):
        h = WindowedLog2Histogram(10.0)
        h.observe(1.0, 10.0)
        h.observe(2.0, 100.0)
        h.observe(11.0, 1.0)
        _t0, stats = h.windows[0]
        assert stats["count"] == 2
        assert stats["mean"] == 55.0
        assert stats["max"] == 100.0
        assert stats["p50"] == 16.0  # 10 -> bucket [8,16)
        assert h.lifetime.count == 3

    def test_skipped_and_closed_empty_windows_are_all_zero(self):
        zeros = dict.fromkeys(WindowedLog2Histogram.FIELDS, 0)
        h = WindowedLog2Histogram(10.0)
        h.observe(1.0, 10.0)
        h.observe(35.0, 10.0)  # windows [10,20) and [20,30) saw nothing
        h.flush(4)
        h.flush(5)  # [40,50) opened by a flush and closed empty
        assert [t0 for t0, _ in h.windows] == [0.0, 10.0, 20.0, 30.0, 40.0]
        assert [stats for _, stats in h.windows][1:3] == [zeros, zeros]
        assert h.windows[4][1] == zeros
        assert h.windows[3][1]["count"] == 1

    def test_lifetime_histogram_spans_windows(self):
        h = WindowedLog2Histogram(10.0)
        for t, v in ((1.0, 2.0), (11.0, 2.0), (21.0, 1000.0)):
            h.observe(t, v)
        h.flush(3)
        assert [stats["count"] for _, stats in h.windows] == [1, 1, 1]
        assert h.lifetime.count == 3
        assert h.lifetime.buckets == {1: 2, 9: 1}
        assert h.lifetime_snapshot() == {
            "count": 3, "mean": 1004.0 / 3, "min": 2.0, "max": 1000.0,
            "buckets": {"[2, 4)": 2, "[512, 1024)": 1},
        }

    def test_snapshot_bucket_labels_start_at_zero(self):
        h = WindowedLog2Histogram(10.0)
        h.observe(1.0, 0.25)
        h.observe(1.0, 5.0)
        assert h.lifetime_snapshot()["buckets"] == {"[0, 2)": 1, "[4, 8)": 1}

    def test_empty_lifetime_snapshot(self):
        assert WindowedLog2Histogram(10.0).lifetime_snapshot() == {
            "count": 0, "mean": 0.0, "min": None, "max": None, "buckets": {},
        }


class TestWindowedRatio:
    def test_hit_rate_shape(self):
        r = WindowedRatio(10.0)
        r.add(1.0, 3.0, 4.0)  # 3 hits of 4 pages
        r.add(2.0, 0.0, 4.0)  # 4-page miss
        r.flush(1)
        assert r.read() == pytest.approx(3.0 / 8.0)

    def test_zero_denominator_window_reads_zero(self):
        r = WindowedRatio(10.0)
        r.add(1.0, 0.0, 0.0)
        r.flush(1)
        assert r.read() == 0.0

    def test_empty_read(self):
        assert WindowedRatio(10.0).read(4) == 0.0


class TestLevelSeries:
    def test_time_weighted_mean(self):
        ls = LevelSeries(10.0)
        ls.set(0.0, 0.0)
        ls.set(2.0, 1.0)
        ls.set(7.0, 0.0)
        ls.flush(1)
        assert ls.windows == [(0.0, 0.5)]

    def test_dwell_spanning_boundaries(self):
        ls = LevelSeries(10.0)
        ls.set(5.0, 1.0)
        ls.set(25.0, 0.0)
        ls.flush(3)
        assert ls.windows == [(0.0, 0.5), (10.0, 1.0), (20.0, 0.5)]

    def test_empty_read_reports_standing_level(self):
        ls = LevelSeries(10.0)
        assert ls.read() == 0.0
        ls.set(3.0, 0.75)
        assert ls.read() == 0.75

    def test_long_idle_is_bounded(self, monkeypatch):
        monkeypatch.setattr(LevelSeries, "MAX_WINDOWS", 16)
        ls = LevelSeries(1.0)
        ls.set(0.0, 1.0)
        ls.flush(10_000_000)
        assert len(ls.windows) <= 16
        assert all(v == 1.0 for _, v in ls.windows)


class TestValidationAndPickle:
    def test_zero_width_windows_rejected_at_construction(self):
        for cls in (WindowedCounter, WindowedGauge, LevelSeries):
            with pytest.raises(ValueError):
                cls(0.0)
            with pytest.raises(ValueError):
                cls(-5.0)

    def test_estimators_pickle_roundtrip(self):
        c = WindowedCounter(10.0)
        c.add(1.0)
        c.add(15.0)
        c2 = pickle.loads(pickle.dumps(c))
        assert c2.windows == c.windows
        assert c2.total == c.total


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
    def test_window_and_lifetime_histograms_share_it(self, value, bucket):
        windowed = WindowedLog2Histogram(10.0)
        windowed.observe(1.0, value)
        windowed.flush(1)
        assert windowed.lifetime.buckets == {bucket: 1}
        edge = float(2 ** (bucket + 1))
        assert windowed.lifetime.percentile(50.0) == windowed.windows[0][1]["p50"] == edge


class TestLog2Histogram:
    """The one log2 histogram, behind every window and every lifetime
    aggregate: percentile edge cases and the summary dict."""

    def test_buckets(self):
        h = Log2Histogram()
        for value in (0.25, 1, 1.5, 2, 3, 1000):
            h.add(value)
        # [0,2) -> bucket 0 for <1 and [1,2); [2,4) -> bucket 1; 1000 -> bucket 9.
        assert h.buckets == {0: 3, 1: 2, 9: 1}

    def test_empty(self):
        h = Log2Histogram()
        assert h.percentile(99.0) == 0.0
        assert h.summary() == dict.fromkeys(WindowedLog2Histogram.FIELDS, 0)

    def test_single_sample_answers_every_q(self):
        h = Log2Histogram()
        h.add(500.0)
        assert h.percentile(50.0) == 512.0
        assert h.percentile(99.9) == 512.0

    def test_out_of_range_q_is_clamped(self):
        h = Log2Histogram()
        h.add(8.0)  # bucket 3: [8, 16)
        assert h.percentile(150.0) == 16.0
        assert h.percentile(-5.0) == 16.0

    def test_nearest_rank_walks_buckets(self):
        h = Log2Histogram()
        for value in (2.0, 2.0, 3.0, 1000.0):
            h.add(value)
        assert h.percentile(75.0) == 4.0  # rank 3 of 4 is still in [2, 4)
        assert h.percentile(76.0) == 1024.0

    def test_summary(self):
        h = Log2Histogram()
        for value in (10.0, 100.0):
            h.add(value)
        assert h.summary() == {
            "count": 2, "mean": 55.0, "p50": 16.0,
            "p95": 128.0, "p99": 128.0, "max": 100.0,
        }
        assert (h.min, h.max, h.total) == (10.0, 100.0, 110.0)
