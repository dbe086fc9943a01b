"""Windowed estimator primitives for the metrics plane.

Every estimator here is *lazily self-windowing*: samples carry their own
sim timestamp and the estimator derives the window index as
``int(t_ns // window_ns)``.  A window closes the moment a sample lands
in a later one, and :meth:`WindowedSeries.flush` closes windows up to a
given index on demand, so no timer callback ever drives an estimator.
The windows a gap spans close as the kind's empty value (counters,
ratios and levels as zeros; gauges carry the last level forward).

All estimators hold no simulator handle, and all read paths tolerate
the awkward cases: empty-window reads, single-sample percentiles, and
zero-duration intervals return zeros instead of raising.

:class:`Log2Histogram` is the repo's one log2 histogram: a
:class:`WindowedLog2Histogram` keeps one per open window and one for
the whole run.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = [
    "LevelSeries",
    "Log2Histogram",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedLog2Histogram",
    "WindowedRatio",
    "log2_bucket",
]


def log2_bucket(value: float) -> int:
    """The log2 bucket holding ``value``: ``floor(log2(value))``, with
    everything below 1.0 in bucket 0."""
    return int(math.floor(math.log2(value))) if value >= 1.0 else 0


class Log2Histogram:
    """Log2-bucketed value distribution: count, sum, extremes, buckets.

    Bucket *b* holds values in ``[2^b, 2^(b+1))`` (bucket 0 also takes
    everything below 1.0) — the bpftrace ``hist()`` shape, which stays
    small at any latency scale.  Percentiles are the holding bucket's
    upper edge: a conservative bound, exact to within one power of two.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        bucket = log2_bucket(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile, ``q`` clamped to [0, 100]; 0.0 when
        empty, and a single sample answers every ``q`` with its edge."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(min(max(q, 0.0), 100.0) / 100.0 * self.count))
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                break
        return float(2 ** (bucket + 1))

    def summary(self) -> Dict[str, float]:
        """``{count, mean, p50, p95, p99, max}``, all zero when empty."""
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "max": self.max if self.max is not None else 0.0,
        }


class WindowedSeries:
    """Base: fixed sim-time windows with bounded closed-window history.

    ``windows`` is a list of ``(t0_ns, value)`` pairs for closed windows
    in time order; the value type is subclass-specific.  The first
    window is the one the first sample (or :meth:`flush`) lands in, so
    a series that never sees a sample keeps no windows.
    """

    kind = "series"

    #: Closed windows kept per series; older ones are trimmed.
    MAX_WINDOWS = 4096

    def __init__(self, window_ns: float) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = float(window_ns)
        self.windows: List[Tuple[float, object]] = []
        self._cur_index: Optional[int] = None

    # -- subclass protocol --------------------------------------------------

    def _close(self) -> object:
        """Return the closed value of the current window and reset the
        accumulator.  Subclasses override."""
        raise NotImplementedError

    def _empty_value(self) -> Optional[object]:
        """Value recorded for a flushed-over window that saw no samples,
        or None to leave the gap sparse."""
        return None

    # -- windowing machinery ------------------------------------------------

    def index_of(self, t_ns: float) -> int:
        return int(t_ns // self.window_ns)

    def _append(self, index: int, value: object) -> None:
        self.windows.append((index * self.window_ns, value))
        if len(self.windows) > self.MAX_WINDOWS:
            del self.windows[: len(self.windows) - self.MAX_WINDOWS]

    def _note(self, index: int) -> None:
        """Route a sample timestamped into window ``index``: close the
        current window first if the sample belongs to a later one."""
        cur = self._cur_index
        if cur is None:
            self._cur_index = index
        elif index > cur:
            self._append(cur, self._close())
            gap = self._empty_value()
            if gap is not None:
                # Windows beyond the history bound would be trimmed
                # straight away; skip materialising them.
                start = max(cur + 1, index - self.MAX_WINDOWS)
                for missed in range(start, index):
                    self._append(missed, gap)
            self._cur_index = index

    def flush(self, index: int) -> None:
        """Close the in-progress window if ``index`` is past it.  A
        fresh, empty window then begins at ``index``."""
        self._note(index)

    # -- reads --------------------------------------------------------------

    def lifetime_snapshot(self) -> dict:
        """JSON-ready whole-run aggregate; ``{}`` for kinds that keep
        none (gauges, ratios, levels).  Counters and histograms
        override."""
        return {}

    def closed(self, last: Optional[int] = None) -> List[Tuple[float, object]]:
        if last is None or last >= len(self.windows):
            return list(self.windows)
        if last <= 0:
            return []
        return self.windows[-last:]

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Flatten closed windows to scalar sub-series keyed by suffix
        ('' = the primary value).  Subclasses override."""
        raise NotImplementedError


class WindowedCounter(WindowedSeries):
    """Event counter: per-window counts.

    ``add`` defaults to counting one event; pass ``n`` to accumulate a
    quantity (bytes, pages, stall-ns).  ``read`` modes: ``"count"`` sums
    raw window values, ``"rate"`` converts to events/second, and
    ``"fraction"`` divides by window span (for duration accumulators
    like DRAM stall-ns, yielding a busy/stall fraction).
    """

    kind = "counter"

    def __init__(self, window_ns: float) -> None:
        super().__init__(window_ns)
        self._count = 0.0
        self.total = 0.0
        self.by_key: Dict[str, float] = {}

    def add(self, t_ns: float, n: float = 1.0, key: Optional[str] = None) -> None:
        self._note(self.index_of(t_ns))
        self._count += n
        self.total += n
        if key is not None:
            self.by_key[key] = self.by_key.get(key, 0.0) + n

    def _close(self) -> object:
        count, self._count = self._count, 0.0
        return count

    def _empty_value(self) -> Optional[object]:
        return 0.0

    def lifetime_snapshot(self) -> dict:
        out: dict = {"total": self.total}
        if self.by_key:
            out["by_key"] = dict(sorted(self.by_key.items()))
        return out

    def rate_of(self, count: float) -> float:
        return count / self.window_ns * 1e9

    def read(self, last: int = 1, mode: str = "rate") -> float:
        values = [float(v) for _, v in self.closed(last)]  # type: ignore[arg-type]
        if not values:
            return 0.0
        if mode == "count":
            return sum(values)
        span_ns = len(values) * self.window_ns
        if span_ns <= 0:
            return 0.0
        if mode == "fraction":
            return sum(values) / span_ns
        return sum(values) / span_ns * 1e9

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        counts = [(t0, float(v)) for t0, v in self.windows]  # type: ignore[misc]
        return {
            "": counts,
            "rate": [(t0, self.rate_of(v)) for t0, v in counts],
        }


class WindowedRatio(WindowedSeries):
    """Paired numerator/denominator counter; window value = num/den.

    Used for hit rates and shares (page-cache hits/lookups, suppressed
    IRQs/completions).  Windows with a zero denominator close to 0.0.
    """

    kind = "ratio"

    def __init__(self, window_ns: float) -> None:
        super().__init__(window_ns)
        self._num = 0.0
        self._den = 0.0

    def add(self, t_ns: float, num: float, den: float) -> None:
        self._note(self.index_of(t_ns))
        self._num += num
        self._den += den

    def _close(self) -> object:
        num, self._num = self._num, 0.0
        den, self._den = self._den, 0.0
        return num / den if den > 0 else 0.0

    def _empty_value(self) -> Optional[object]:
        return 0.0

    def read(self, last: int = 1) -> float:
        values = [float(v) for _, v in self.closed(last)]  # type: ignore[arg-type]
        if not values:
            return 0.0
        return sum(values) / len(values)

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        return {"": [(t0, float(v)) for t0, v in self.windows]}  # type: ignore[misc]


class WindowedGauge(WindowedSeries):
    """Sampled level (queue depth, occupancy count, resident pages).

    Each window closes to ``(mean, min, max, last)`` over the samples it
    saw.  Idle windows report the level as it stood (a queue that stays
    at depth 7 with no traffic is still at depth 7).
    """

    kind = "gauge"

    def __init__(self, window_ns: float) -> None:
        super().__init__(window_ns)
        self._sum = 0.0
        self._n = 0
        self._min = 0.0
        self._max = 0.0
        self.last: Optional[float] = None

    def set(self, t_ns: float, value: float) -> None:
        self._note(self.index_of(t_ns))
        value = float(value)
        if self._n == 0:
            self._min = value
            self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._sum += value
        self._n += 1
        self.last = value

    def _close(self) -> object:
        if self._n == 0:
            level = self.last if self.last is not None else 0.0
            value = (level, level, level, level)
        else:
            value = (self._sum / self._n, self._min, self._max, self.last)
        self._sum = 0.0
        self._n = 0
        return value

    def _empty_value(self) -> Optional[object]:
        level = self.last if self.last is not None else 0.0
        return (level, level, level, level)

    def read(self, last: int = 1, mode: str = "mean") -> float:
        rows = self.closed(last)
        if not rows:
            return float(self.last) if self.last is not None else 0.0
        field = {"mean": 0, "min": 1, "max": 2, "last": 3}[mode]
        values = [float(v[field]) for _, v in rows]  # type: ignore[index]
        if mode == "min":
            return min(values)
        if mode == "max":
            return max(values)
        if mode == "last":
            return values[-1]
        return sum(values) / len(values)

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        rows = self.windows
        return {
            "": [(t0, float(v[0])) for t0, v in rows],  # type: ignore[index]
            "max": [(t0, float(v[2])) for t0, v in rows],  # type: ignore[index]
        }


class WindowedLog2Histogram(WindowedSeries):
    """Log2-bucketed value distribution with windowed percentiles.

    The open window is one :class:`Log2Histogram`; it closes to that
    histogram's ``summary()``, a compact dict ``{count, mean, p50, p95,
    p99, max}`` (percentiles are bucket upper edges).  ``lifetime`` is a
    second one that takes every observation of the run.
    """

    kind = "histogram"

    FIELDS = ("count", "mean", "p50", "p95", "p99", "max")

    def __init__(self, window_ns: float) -> None:
        super().__init__(window_ns)
        self._hist = Log2Histogram()
        self.lifetime = Log2Histogram()

    def observe(self, t_ns: float, value: float) -> None:
        self._note(self.index_of(t_ns))
        value = float(value)
        self._hist.add(value)
        self.lifetime.add(value)

    def _close(self) -> object:
        summary, self._hist = self._hist.summary(), Log2Histogram()
        return summary

    def _empty_value(self) -> Optional[object]:
        return Log2Histogram().summary()

    def lifetime_snapshot(self) -> dict:
        hist = self.lifetime
        return {
            "count": hist.count,
            "mean": hist.mean,
            "min": hist.min,
            "max": hist.max,
            "buckets": {
                f"[{2**b if b else 0}, {2**(b + 1)})": n
                for b, n in sorted(hist.buckets.items())
            },
        }

    def read(self, last: int = 1, mode: str = "p95") -> float:
        rows = self.closed(last)
        if not rows:
            return 0.0
        stats = [v for _, v in rows]  # type: ignore[misc]
        if mode == "count":
            return float(sum(s["count"] for s in stats))  # type: ignore[index]
        if mode == "max":
            return max(float(s["max"]) for s in stats)  # type: ignore[index]
        if mode == "mean":
            total = sum(s["count"] for s in stats)  # type: ignore[index]
            if total == 0:
                return 0.0
            weighted = sum(
                float(s["mean"]) * s["count"] for s in stats  # type: ignore[index]
            )
            return weighted / total
        populated = [s for s in stats if s["count"]]  # type: ignore[index]
        if not populated:
            return 0.0
        return max(float(s[mode]) for s in populated)  # type: ignore[index]

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        out: Dict[str, List[Tuple[float, float]]] = {}
        for field in self.FIELDS:
            out[field] = [
                (t0, float(v[field]))  # type: ignore[index]
                for t0, v in self.windows
            ]
        return out


class LevelSeries(WindowedSeries):
    """Time-weighted level integrator — the honest utilization measure.

    ``set(t, level)`` records that the level changed at ``t``; each
    window closes to the time-weighted mean of the level across the
    window, splitting dwell time that spans a boundary across the
    windows it covers.  A worker that is busy for the first quarter of a
    window reads 0.25, however many tracepoint fires that took.
    """

    kind = "level"

    def __init__(self, window_ns: float) -> None:
        super().__init__(window_ns)
        self._level = 0.0
        self._last_t: Optional[float] = None
        self._area = 0.0  # level-ns accumulated in the current window

    def _advance_to(self, t_ns: float) -> None:
        """Integrate the current level from _last_t to t_ns, closing any
        windows the dwell spans."""
        if self._last_t is None:
            self._cur_index = self.index_of(t_ns)
            self._last_t = t_ns
            return
        if t_ns <= self._last_t:
            return
        assert self._cur_index is not None
        target = self.index_of(t_ns)
        if target - self._cur_index > self.MAX_WINDOWS:
            # Every window we could materialise before this point would
            # be trimmed by the history bound; fast-forward to the last
            # MAX_WINDOWS span (the standing level covers it entirely).
            skip_to = target - self.MAX_WINDOWS
            self._cur_index = skip_to
            self._last_t = skip_to * self.window_ns
            self._area = 0.0
        boundary = (self._cur_index + 1) * self.window_ns
        while t_ns >= boundary:
            self._area += self._level * (boundary - self._last_t)
            self._append(self._cur_index, self._area / self.window_ns)
            self._area = 0.0
            self._last_t = boundary
            self._cur_index += 1
            boundary += self.window_ns
        self._area += self._level * (t_ns - self._last_t)
        self._last_t = t_ns

    def set(self, t_ns: float, level: float) -> None:
        self._advance_to(t_ns)
        self._level = float(level)

    def flush(self, index: int) -> None:
        """Close every window before ``index`` by integrating the
        standing level up to that boundary."""
        self._advance_to(index * self.window_ns)

    @property
    def level(self) -> float:
        return self._level

    def read(self, last: int = 1) -> float:
        values = [float(v) for _, v in self.closed(last)]  # type: ignore[arg-type]
        if not values:
            return self._level
        return sum(values) / len(values)

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        return {"": [(t0, float(v)) for t0, v in self.windows]}  # type: ignore[misc]
