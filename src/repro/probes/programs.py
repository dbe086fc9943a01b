"""Attachable probe programs: counters, latency histograms, rate meters.

These are the observer-side building blocks — the moral equivalents of
``BPF_MAP_TYPE_ARRAY`` counters, ``hist()`` in bpftrace, and a
per-interval event rate.  All of them are *pure observers*: they read
the fire arguments and the registry clock, accumulate into private
state, and never touch the simulator.  Attaching any mix of them leaves
experiment outputs byte-identical (the determinism contract in
:mod:`repro.probes.tracepoints`).

Each program implements:

* ``bind(tracepoint)`` — called by ``ProbeRegistry.attach``; lets the
  program remember what it measures and registers it for export;
* ``__call__(*fire_args)`` — the observer body;
* ``snapshot()`` — a JSON-ready dict for the metrics exporter.

The rate meter, the one program with a time dimension, also draws a
Perfetto counter track through ``trace_tracks()`` (see
:mod:`repro.traceviz`).  :class:`Log2Histogram` is the one log2
histogram: ``LatencyHistogram`` keeps one for the whole run, and the
metrics plane's windowed histogram keeps one per open window.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.probes.tracepoints import ProbeRegistry, Tracepoint
from repro.traceviz import Counter, Thread


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


class ProbeProgram:
    """Base class wiring the bind/snapshot plumbing."""

    kind = "probe"

    def __init__(self, registry: ProbeRegistry, name: Optional[str] = None):
        self.registry = registry
        self.name = name
        self.tracepoint: Optional[Tracepoint] = None

    def bind(self, tracepoint: Tracepoint) -> None:
        self.tracepoint = tracepoint
        if self.name is None:
            self.name = tracepoint.name

    def __call__(self, *values: Any) -> None:
        raise NotImplementedError

    def snapshot(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "tracepoint": self.tracepoint.name if self.tracepoint else None,
        }


class CounterProbe(ProbeProgram):
    """Counts fires; with ``key_arg`` set, counts per distinct value of
    that fire argument (e.g. hits per syscall name)."""

    kind = "counter"

    def __init__(
        self,
        registry: ProbeRegistry,
        name: Optional[str] = None,
        key_arg: Optional[int] = None,
    ):
        super().__init__(registry, name)
        self.key_arg = key_arg
        self.count = 0
        self.by_key: Dict[str, int] = {}

    def __call__(self, *values: Any) -> None:
        self.count += 1
        if self.key_arg is not None and self.key_arg < len(values):
            key = str(values[self.key_arg])
            self.by_key[key] = self.by_key.get(key, 0) + 1

    def snapshot(self) -> dict:
        out = super().snapshot()
        out["count"] = self.count
        if self.key_arg is not None:
            out["by_key"] = dict(sorted(self.by_key.items()))
        return out


class LatencyHistogram(ProbeProgram):
    """A whole-run :class:`Log2Histogram` over one numeric fire argument
    (``value_arg``); fires without a number there are skipped."""

    kind = "histogram"

    def __init__(
        self,
        registry: ProbeRegistry,
        name: Optional[str] = None,
        value_arg: int = 0,
    ):
        super().__init__(registry, name)
        self.value_arg = value_arg
        self.hist = Log2Histogram()

    def __call__(self, *values: Any) -> None:
        if self.value_arg >= len(values):
            return
        value = values[self.value_arg]
        if isinstance(value, (int, float)):
            self.hist.add(float(value))

    def snapshot(self) -> dict:
        hist = self.hist
        out = super().snapshot()
        out.update(
            count=hist.count,
            mean=hist.mean,
            min=hist.min,
            max=hist.max,
            buckets={
                f"[{2**b if b else 0}, {2**(b+1)})": n
                for b, n in sorted(hist.buckets.items())
            },
        )
        return out


class RateMeter(ProbeProgram):
    """Fires per time bin — the one program with a time series.

    Samples the registry clock at each fire and buckets counts into
    ``bin_ns``-wide bins; ``series()`` reports the *rate* (fires per
    second of simulated time) at each bin start, and ``trace_tracks()``
    draws it as a ``probe:<name>`` Perfetto counter track.
    """

    kind = "rate"
    trace_process = "probes"

    def __init__(
        self,
        registry: ProbeRegistry,
        name: Optional[str] = None,
        bin_ns: float = 10_000.0,
    ):
        super().__init__(registry, name)
        if bin_ns <= 0:
            raise ValueError("bin_ns must be positive")
        self.bin_ns = float(bin_ns)
        self.count = 0
        self.bins: Dict[int, int] = {}

    def __call__(self, *values: Any) -> None:
        self.count += 1
        index = int(self.registry.now() // self.bin_ns)
        self.bins[index] = self.bins.get(index, 0) + 1

    def series(self) -> List[Tuple[float, float]]:
        """``(bin start, fires/s)`` per populated bin, plus a 0.0 sample
        at the first empty bin after each run of populated ones: a
        counter track holds its value until the next sample, so without
        it an idle stretch would read as the last busy rate."""
        scale = 1e9 / self.bin_ns  # events per simulated second
        out = []
        for index in sorted(self.bins):
            out.append((index * self.bin_ns, self.bins[index] * scale))
            if index + 1 not in self.bins:
                out.append(((index + 1) * self.bin_ns, 0.0))
        return out

    def trace_tracks(self) -> list:
        series = self.series()
        if not series:
            return []
        return [
            Thread(0, "probe counters"),
            Counter(f"probe:{self.name}", "probe", series),
        ]

    def snapshot(self) -> dict:
        out = super().snapshot()
        out.update(count=self.count, bin_ns=self.bin_ns, bins=len(self.bins))
        return out
