"""Tracepoint-to-estimator feeds and the default metric catalog.

A *feed* is a pure observer: attached to one tracepoint, it timestamps
the fire via the hub and folds the arguments into a windowed estimator.
Feeds never touch simulator state — the only side effect beyond
their own accumulators is asking the hub to (weakly) arm its flush
tick.

The catalog below is the wiring table the issue calls for: utilization
and occupancy accounting over the existing syscall/fs/net/dram stream
plus the gauge-grade fire sites added alongside this package
(``gpu.wf.occupancy``, ``gpu.lanes.runnable``, ``wq.depth``,
``wq.busy``, ``slot.occupancy``, ``fs.pagecache.resident``,
``syscall.inflight``, ``dram.queue``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.metrics.series import (
    LevelSeries,
    WindowedCounter,
    WindowedGauge,
    WindowedLog2Histogram,
    WindowedRatio,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.hub import MetricsHub

__all__ = [
    "CATALOG",
    "CountFeed",
    "GaugeFeed",
    "LevelFeed",
    "MetricSpec",
    "ObserveFeed",
    "RatioFeed",
    "ShareFeed",
    "build_estimator",
]


def _as_float(value: object) -> float:
    return float(value) if value is not None else 0.0


class CountFeed:
    """Count fires (or accumulate ``args[amount_arg]``) into a counter.

    ``gate_arg`` skips fires whose flagged argument is truthy (used to
    count only non-suppressed interrupts); ``key_arg`` also buckets the
    lifetime total by that argument (drop reasons).
    """

    __slots__ = ("hub", "metric", "amount_arg", "key_arg", "gate_arg")

    def __init__(
        self,
        hub: "MetricsHub",
        metric: WindowedCounter,
        amount_arg: Optional[int] = None,
        key_arg: Optional[int] = None,
        gate_arg: Optional[int] = None,
    ) -> None:
        self.hub = hub
        self.metric = metric
        self.amount_arg = amount_arg
        self.key_arg = key_arg
        self.gate_arg = gate_arg

    def __call__(self, *args: object) -> None:
        if self.gate_arg is not None and args[self.gate_arg]:
            return
        t_ns = self.hub.pulse()
        amount = (
            _as_float(args[self.amount_arg])
            if self.amount_arg is not None
            else 1.0
        )
        key = args[self.key_arg] if self.key_arg is not None else None
        self.metric.add(t_ns, amount, key=key)


class ObserveFeed:
    """Feed ``args[value_arg]`` into a log2 histogram."""

    __slots__ = ("hub", "metric", "value_arg")

    def __init__(
        self, hub: "MetricsHub", metric: WindowedLog2Histogram, value_arg: int
    ) -> None:
        self.hub = hub
        self.metric = metric
        self.value_arg = value_arg

    def __call__(self, *args: object) -> None:
        self.metric.observe(self.hub.pulse(), _as_float(args[self.value_arg]))


class GaugeFeed:
    """Sample ``args[value_arg]`` (optionally ``/ args[den_arg]``) into a
    gauge."""

    __slots__ = ("hub", "metric", "value_arg", "den_arg")

    def __init__(
        self,
        hub: "MetricsHub",
        metric: WindowedGauge,
        value_arg: int,
        den_arg: Optional[int] = None,
    ) -> None:
        self.hub = hub
        self.metric = metric
        self.value_arg = value_arg
        self.den_arg = den_arg

    def __call__(self, *args: object) -> None:
        t_ns = self.hub.pulse()
        value = _as_float(args[self.value_arg])
        if self.den_arg is not None:
            den = _as_float(args[self.den_arg])
            value = value / den if den > 0 else 0.0
        self.metric.set(t_ns, value)


class LevelFeed:
    """Track a time-weighted level: ``args[num_arg]`` scaled by
    ``args[den_arg]`` when given (busy workers / pool size, halted
    wavefronts / live wavefronts)."""

    __slots__ = ("hub", "metric", "num_arg", "den_arg")

    def __init__(
        self,
        hub: "MetricsHub",
        metric: LevelSeries,
        num_arg: int,
        den_arg: Optional[int] = None,
    ) -> None:
        self.hub = hub
        self.metric = metric
        self.num_arg = num_arg
        self.den_arg = den_arg

    def __call__(self, *args: object) -> None:
        t_ns = self.hub.pulse()
        level = _as_float(args[self.num_arg])
        if self.den_arg is not None:
            den = _as_float(args[self.den_arg])
            level = level / den if den > 0 else 0.0
        self.metric.set(t_ns, level)


class RatioFeed:
    """Accumulate ``args[amount_arg]`` into a ratio's numerator and/or
    denominator — attach one per contributing tracepoint (page-cache
    hits feed num+den, misses feed den only)."""

    __slots__ = ("hub", "metric", "amount_arg", "to_num")

    def __init__(
        self,
        hub: "MetricsHub",
        metric: WindowedRatio,
        amount_arg: int,
        to_num: bool,
    ) -> None:
        self.hub = hub
        self.metric = metric
        self.amount_arg = amount_arg
        self.to_num = to_num

    def __call__(self, *args: object) -> None:
        amount = _as_float(args[self.amount_arg])
        self.metric.add(
            self.hub.pulse(), amount if self.to_num else 0.0, amount
        )


class ShareFeed:
    """Accumulate the share of fires whose ``args[flag_arg]`` is truthy
    (suppressed-IRQ share)."""

    __slots__ = ("hub", "metric", "flag_arg")

    def __init__(
        self, hub: "MetricsHub", metric: WindowedRatio, flag_arg: int
    ) -> None:
        self.hub = hub
        self.metric = metric
        self.flag_arg = flag_arg

    def __call__(self, *args: object) -> None:
        self.metric.add(
            self.hub.pulse(), 1.0 if args[self.flag_arg] else 0.0, 1.0
        )


class MetricSpec:
    """One catalog row: estimator kind, source tracepoint(s), wiring.

    ``sources`` is a tuple of ``(tracepoint_name, feed_kind, feed_args)``
    triples; most metrics have one source, ratios may have several.
    ``unit`` and ``help`` flow through to the exporters.
    """

    __slots__ = ("name", "kind", "sources", "unit", "help", "read_mode")

    def __init__(
        self,
        name: str,
        kind: str,
        sources: Tuple[Tuple[str, str, dict], ...],
        unit: str = "",
        help: str = "",
        read_mode: str = "",
    ) -> None:
        self.name = name
        self.kind = kind
        self.sources = sources
        self.unit = unit
        self.help = help
        self.read_mode = read_mode


def build_estimator(
    spec: MetricSpec, window_ns: float, max_windows: int
):
    if spec.kind == "counter":
        return WindowedCounter(window_ns, name=spec.name, max_windows=max_windows)
    if spec.kind == "histogram":
        return WindowedLog2Histogram(
            window_ns, name=spec.name, max_windows=max_windows
        )
    if spec.kind == "gauge":
        return WindowedGauge(window_ns, name=spec.name, max_windows=max_windows)
    if spec.kind == "level":
        return LevelSeries(window_ns, name=spec.name, max_windows=max_windows)
    if spec.kind == "ratio":
        return WindowedRatio(window_ns, name=spec.name, max_windows=max_windows)
    raise ValueError(f"unknown estimator kind {spec.kind!r}")


FEED_KINDS = {
    "count": CountFeed,
    "observe": ObserveFeed,
    "gauge": GaugeFeed,
    "level": LevelFeed,
    "ratio": RatioFeed,
    "share": ShareFeed,
}


CATALOG: Tuple[MetricSpec, ...] = (
    MetricSpec(
        "syscall.rate", "counter",
        (("syscall.complete", "count", {}),),
        unit="calls/s", help="completed syscall invocations per second",
    ),
    MetricSpec(
        "syscall.latency", "histogram",
        (("syscall.complete", "observe", {"value_arg": 2}),),
        unit="ns", help="syscall service time (PROCESSING span)",
    ),
    MetricSpec(
        "syscall.inflight", "gauge",
        (("syscall.inflight", "gauge", {"value_arg": 0}),),
        unit="calls", help="invocations in flight",
    ),
    MetricSpec(
        "gpu.halt_fraction", "level",
        (("gpu.wf.occupancy", "level", {"num_arg": 0, "den_arg": 1}),),
        unit="fraction",
        help="time-weighted share of live wavefronts halted on syscalls",
    ),
    MetricSpec(
        "gpu.lanes.runnable", "gauge",
        (("gpu.lanes.runnable", "gauge", {"value_arg": 1, "den_arg": 2}),),
        unit="fraction",
        help="runnable share of live lanes at wavefront dispatch",
    ),
    MetricSpec(
        "wq.depth", "gauge",
        (("wq.depth", "gauge", {"value_arg": 0}),),
        unit="tasks", help="workqueue backlog depth",
    ),
    MetricSpec(
        "wq.busy_fraction", "level",
        (("wq.busy", "level", {"num_arg": 0, "den_arg": 1}),),
        unit="fraction", help="time-weighted worker-pool busy fraction",
    ),
    MetricSpec(
        "slot.occupancy", "level",
        (("slot.occupancy", "level", {"num_arg": 0, "den_arg": 1}),),
        unit="fraction",
        help="time-weighted share of syscall-area slots not FREE",
    ),
    MetricSpec(
        "pagecache.hit_rate", "ratio",
        (
            ("fs.pagecache.hit", "ratio", {"amount_arg": 0, "to_num": True}),
            ("fs.pagecache.miss", "ratio", {"amount_arg": 0, "to_num": False}),
        ),
        unit="fraction", help="page-cache hit share of looked-up pages",
    ),
    MetricSpec(
        "pagecache.resident", "gauge",
        (("fs.pagecache.resident", "gauge", {"value_arg": 0}),),
        unit="pages", help="resident page-cache size",
    ),
    MetricSpec(
        "net.tx.rate", "counter",
        (("net.tx", "count", {}),),
        unit="pkts/s", help="datagrams transmitted per second",
    ),
    MetricSpec(
        "net.rx.rate", "counter",
        (("net.rx", "count", {}),),
        unit="pkts/s", help="datagrams received per second",
    ),
    MetricSpec(
        "net.tx.bytes", "counter",
        (("net.tx", "count", {"amount_arg": 0}),),
        unit="B/s", help="transmit byte rate",
    ),
    MetricSpec(
        "net.rx.bytes", "counter",
        (("net.rx", "count", {"amount_arg": 0}),),
        unit="B/s", help="receive byte rate",
    ),
    MetricSpec(
        "net.backlog.depth", "gauge",
        (("net.backlog", "gauge", {"value_arg": 0}),),
        unit="pkts", help="socket receive-queue depth after enqueue",
    ),
    MetricSpec(
        "net.drop.rate", "counter",
        (("net.drop", "count", {"key_arg": 0}),),
        unit="pkts/s", help="datagrams dropped per second (keyed by reason)",
    ),
    MetricSpec(
        "net.sojourn", "histogram",
        (("net.sojourn", "observe", {"value_arg": 0}),),
        unit="ns", help="receive-queue wait of dequeued datagrams",
    ),
    MetricSpec(
        "wq.sojourn", "histogram",
        (("wq.sojourn", "observe", {"value_arg": 0}),),
        unit="ns", help="queue wait of workqueue tasks at pickup",
    ),
    MetricSpec(
        "qos.shed.rate", "counter",
        (("qos.shed", "count", {"key_arg": 0}),),
        unit="sheds/s", help="requests shed per second (keyed by stage)",
    ),
    MetricSpec(
        "irq.rate", "counter",
        (("syscall.irq", "count", {"gate_arg": 2}),),
        unit="irqs/s", help="GPU-to-CPU interrupts actually raised per second",
    ),
    MetricSpec(
        "irq.suppressed_share", "ratio",
        (("syscall.irq", "share", {"flag_arg": 2}),),
        unit="fraction",
        help="share of completion signals coalesced into a pending scan",
    ),
    MetricSpec(
        "dram.stall_fraction", "counter",
        (("dram.stall", "count", {"amount_arg": 1}),),
        unit="fraction", read_mode="fraction",
        help="share of window spent queued behind the DRAM channel",
    ),
    MetricSpec(
        "dram.queue", "gauge",
        (("dram.queue", "gauge", {"value_arg": 0}),),
        unit="xfers", help="DRAM channel queue depth at enqueue",
    ),
)
