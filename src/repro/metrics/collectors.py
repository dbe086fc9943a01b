"""Tracepoint-to-estimator feeds and the default metric catalog.

A *feed* is a pure observer: attached to one tracepoint, it timestamps
the fire with the hub's clock (``hub.now()``) and folds the arguments
into a windowed estimator.  Feeds never touch simulator state and
schedule nothing: their only side effect is on their own accumulators.

The catalog below is the wiring table: utilization and occupancy
accounting over the existing syscall/fs/net/dram stream plus the
gauge-grade fire sites added alongside this package
(``gpu.wf.occupancy``, ``gpu.lanes.runnable``, ``wq.depth``,
``wq.busy``, ``slot.occupancy``, ``fs.pagecache.resident``,
``syscall.inflight``, ``dram.queue``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.metrics.series import (
    LevelSeries,
    WindowedCounter,
    WindowedGauge,
    WindowedLog2Histogram,
    WindowedRatio,
)
from repro.probes.tracepoints import ProbeRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.metrics.hub import MetricsHub

__all__ = [
    "CATALOG",
    "CountFeed",
    "GaugeFeed",
    "MetricSpec",
    "ObserveFeed",
    "RatioFeed",
    "ShareFeed",
    "build_estimator",
    "probe_specs",
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
        t_ns = self.hub.now()
        amount = (
            _as_float(args[self.amount_arg])
            if self.amount_arg is not None
            else 1.0
        )
        key = str(args[self.key_arg]) if self.key_arg is not None else None
        self.metric.add(t_ns, amount, key=key)


class ObserveFeed:
    """Feed ``args[value_arg]`` into a log2 histogram; a fire whose value
    there is not a number (a name, ``None``) is skipped."""

    __slots__ = ("hub", "metric", "value_arg")

    def __init__(
        self, hub: "MetricsHub", metric: WindowedLog2Histogram, value_arg: int
    ) -> None:
        self.hub = hub
        self.metric = metric
        self.value_arg = value_arg

    def __call__(self, *args: object) -> None:
        value = args[self.value_arg]
        if isinstance(value, (int, float)):
            self.metric.observe(self.hub.now(), value)


class GaugeFeed:
    """Sample ``args[value_arg]`` (optionally ``/ args[den_arg]``) into a
    gauge, or into a time-weighted level (busy workers / pool size,
    halted wavefronts / live wavefronts)."""

    __slots__ = ("hub", "metric", "value_arg", "den_arg")

    def __init__(
        self,
        hub: "MetricsHub",
        metric: Union[WindowedGauge, LevelSeries],
        value_arg: int,
        den_arg: Optional[int] = None,
    ) -> None:
        self.hub = hub
        self.metric = metric
        self.value_arg = value_arg
        self.den_arg = den_arg

    def __call__(self, *args: object) -> None:
        t_ns = self.hub.now()
        value = _as_float(args[self.value_arg])
        if self.den_arg is not None:
            den = _as_float(args[self.den_arg])
            value = value / den if den > 0 else 0.0
        self.metric.set(t_ns, value)


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
            self.hub.now(), amount if self.to_num else 0.0, amount
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
            self.hub.now(), 1.0 if args[self.flag_arg] else 0.0, 1.0
        )


class MetricSpec:
    """One catalog row: estimator kind, source tracepoint(s), wiring.

    ``sources`` is a tuple of ``(tracepoint_name, feed_kind, feed_args)``
    triples; most metrics have one source, ratios may have several.
    ``unit`` labels the metrics frame; ``read_mode`` overrides the
    kind's default :meth:`MetricsHub.read` mode.
    """

    __slots__ = ("name", "kind", "sources", "unit", "read_mode")

    def __init__(
        self,
        name: str,
        kind: str,
        sources: Tuple[Tuple[str, str, dict], ...],
        unit: str = "",
        read_mode: str = "",
    ) -> None:
        self.name = name
        self.kind = kind
        self.sources = sources
        self.unit = unit
        self.read_mode = read_mode


def build_estimator(spec: MetricSpec, window_ns: float):
    if spec.kind == "counter":
        return WindowedCounter(window_ns)
    if spec.kind == "histogram":
        return WindowedLog2Histogram(window_ns)
    if spec.kind == "gauge":
        return WindowedGauge(window_ns)
    if spec.kind == "level":
        return LevelSeries(window_ns)
    if spec.kind == "ratio":
        return WindowedRatio(window_ns)
    raise ValueError(f"unknown estimator kind {spec.kind!r}")


def probe_specs(
    registry: ProbeRegistry,
    kind: str,
    pattern: str,
    arg: Optional[int] = None,
) -> Tuple[MetricSpec, ...]:
    """Catalog rows for one ``--attach counter|hist|rate`` spec: one row
    per tracepoint of ``registry`` matching ``pattern`` (see
    :meth:`ProbeRegistry.match`), named after it.

    ``counter`` and ``rate`` give the same ``counter`` row (``arg`` keys
    its counts), in ``fires/s``; a rate differs only in its hub's
    window.  ``hist`` gives a ``histogram`` row over fire argument
    ``arg`` (default 0), whose unit is that argument's name.  Raises
    ``KeyError`` when nothing matches and ``ValueError`` when a matched
    tracepoint has no argument ``arg``.
    """
    estimator, feed, option = (
        ("histogram", "observe", "value_arg") if kind == "hist"
        else ("counter", "count", "key_arg")
    )
    if kind == "hist" and arg is None:
        arg = 0
    tracepoints = registry.match(pattern) or [registry.get(pattern)]
    for tp in tracepoints:
        if arg is not None and arg >= len(tp.args):
            raise ValueError(
                f"{tp.name} has no argument {arg}; its arguments are "
                f"({', '.join(tp.args)})"
            )
    return tuple(
        MetricSpec(
            tp.name, estimator, ((tp.name, feed, {option: arg}),),
            unit=tp.args[arg] if kind == "hist" else "fires/s",
        )
        for tp in tracepoints
    )


FEED_KINDS = {
    "count": CountFeed,
    "observe": ObserveFeed,
    "gauge": GaugeFeed,
    "ratio": RatioFeed,
    "share": ShareFeed,
}


CATALOG: Tuple[MetricSpec, ...] = (
    # completed syscall invocations per second
    MetricSpec(
        "syscall.rate", "counter",
        (("syscall.complete", "count", {}),),
        unit="calls/s",
    ),
    # syscall service time (PROCESSING span)
    MetricSpec(
        "syscall.latency", "histogram",
        (("syscall.complete", "observe", {"value_arg": 2}),),
        unit="ns",
    ),
    # invocations in flight
    MetricSpec(
        "syscall.inflight", "gauge",
        (("syscall.inflight", "gauge", {"value_arg": 0}),),
        unit="calls",
    ),
    # time-weighted share of live wavefronts halted on syscalls
    MetricSpec(
        "gpu.halt_fraction", "level",
        (("gpu.wf.occupancy", "gauge", {"value_arg": 0, "den_arg": 1}),),
        unit="fraction",
    ),
    # runnable share of live lanes at wavefront dispatch
    MetricSpec(
        "gpu.lanes.runnable", "gauge",
        (("gpu.lanes.runnable", "gauge", {"value_arg": 1, "den_arg": 2}),),
        unit="fraction",
    ),
    # workqueue backlog depth
    MetricSpec(
        "wq.depth", "gauge",
        (("wq.depth", "gauge", {"value_arg": 0}),),
        unit="tasks",
    ),
    # time-weighted worker-pool busy fraction
    MetricSpec(
        "wq.busy_fraction", "level",
        (("wq.busy", "gauge", {"value_arg": 0, "den_arg": 1}),),
        unit="fraction",
    ),
    # time-weighted share of syscall-area slots not FREE
    MetricSpec(
        "slot.occupancy", "level",
        (("slot.occupancy", "gauge", {"value_arg": 0, "den_arg": 1}),),
        unit="fraction",
    ),
    # page-cache hit share of looked-up pages
    MetricSpec(
        "pagecache.hit_rate", "ratio",
        (
            ("fs.pagecache.hit", "ratio", {"amount_arg": 0, "to_num": True}),
            ("fs.pagecache.miss", "ratio", {"amount_arg": 0, "to_num": False}),
        ),
        unit="fraction",
    ),
    # resident page-cache size
    MetricSpec(
        "pagecache.resident", "gauge",
        (("fs.pagecache.resident", "gauge", {"value_arg": 0}),),
        unit="pages",
    ),
    # datagrams transmitted per second
    MetricSpec(
        "net.tx.rate", "counter",
        (("net.tx", "count", {}),),
        unit="pkts/s",
    ),
    # datagrams received per second
    MetricSpec(
        "net.rx.rate", "counter",
        (("net.rx", "count", {}),),
        unit="pkts/s",
    ),
    # transmit byte rate
    MetricSpec(
        "net.tx.bytes", "counter",
        (("net.tx", "count", {"amount_arg": 0}),),
        unit="B/s",
    ),
    # receive byte rate
    MetricSpec(
        "net.rx.bytes", "counter",
        (("net.rx", "count", {"amount_arg": 0}),),
        unit="B/s",
    ),
    # socket receive-queue depth after enqueue
    MetricSpec(
        "net.backlog.depth", "gauge",
        (("net.backlog", "gauge", {"value_arg": 0}),),
        unit="pkts",
    ),
    # datagrams dropped per second (keyed by reason)
    MetricSpec(
        "net.drop.rate", "counter",
        (("net.drop", "count", {"key_arg": 0}),),
        unit="pkts/s",
    ),
    # receive-queue wait of dequeued datagrams
    MetricSpec(
        "net.sojourn", "histogram",
        (("net.sojourn", "observe", {"value_arg": 0}),),
        unit="ns",
    ),
    # queue wait of workqueue tasks at pickup
    MetricSpec(
        "wq.sojourn", "histogram",
        (("wq.sojourn", "observe", {"value_arg": 0}),),
        unit="ns",
    ),
    # requests shed per second (keyed by stage)
    MetricSpec(
        "qos.shed.rate", "counter",
        (("qos.shed", "count", {"key_arg": 0}),),
        unit="sheds/s",
    ),
    # GPU-to-CPU interrupts actually raised per second
    MetricSpec(
        "irq.rate", "counter",
        (("syscall.irq", "count", {"gate_arg": 2}),),
        unit="irqs/s",
    ),
    # share of completion signals coalesced into a pending scan
    MetricSpec(
        "irq.suppressed_share", "ratio",
        (("syscall.irq", "share", {"flag_arg": 2}),),
        unit="fraction",
    ),
    # share of window spent queued behind the DRAM channel
    MetricSpec(
        "dram.stall_fraction", "counter",
        (("dram.stall", "count", {"amount_arg": 1}),),
        unit="fraction", read_mode="fraction",
    ),
    # DRAM channel queue depth at enqueue
    MetricSpec(
        "dram.queue", "gauge",
        (("dram.queue", "gauge", {"value_arg": 0}),),
        unit="xfers",
    ),
)
