"""MetricsHub: per-System windowed telemetry over the tracepoint stream.

One hub owns one estimator per catalog entry and one feed per source
tracepoint.  No timer drives it: estimators are lazily self-windowing,
so a sample landing in a later window closes the earlier ones on the
spot, and :meth:`MetricsHub.read` and :meth:`MetricsHub.finalize` close
windows up to a given time on demand.  A hub therefore schedules no
simulator event, an attached run's simulated behaviour is byte-identical
to a detached one, and a row whose tracepoint never fires keeps no
windows (and draws no track).

Fleet installation mirrors ``GSanPlan``: push a :class:`MetricsHubPlan`
on the attach stack with :func:`repro.probes.tracepoints.attached` and
every System constructed inside the block gets its own hub,
discoverable afterwards through :func:`metrics_hubs`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.metrics.collectors import (
    CATALOG,
    FEED_KINDS,
    MetricSpec,
    build_estimator,
)
from repro.metrics.series import WindowedSeries
from repro.probes.tracepoints import ProbeRegistry
from repro.traceviz import Counter, Thread

__all__ = ["DEFAULT_WINDOW_NS", "MetricsHub", "MetricsHubPlan", "metrics_hubs"]

#: Default aggregation window: 10 µs of simulated time, fine enough to
#: resolve the syscall-latency experiments yet coarse enough that a
#: serving measure interval spans tens of windows.
DEFAULT_WINDOW_NS = 10_000.0


#: ASCII sparkline ramp (low → high); deliberately not unicode so the
#: output survives any terminal/CI log encoding.
_SPARK = " .:-=+*#%@"


def _spark(series: List[float]) -> str:
    if not series:
        return ""
    top = max(series)
    if top <= 0:
        return "." * len(series)
    out = []
    for value in series:
        rank = int(value / top * (len(_SPARK) - 1) + 0.5)
        out.append(_SPARK[max(0, min(rank, len(_SPARK) - 1))])
    return "".join(out)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e6 or abs(value) < 1e-3:
        return f"{value:.3g}"
    if abs(value) >= 100:
        return f"{value:.0f}"
    return f"{value:.3f}".rstrip("0").rstrip(".")


class MetricsHub:
    """Windowed metric estimators for one System's probe registry: one
    per row of ``catalog`` (by default the full :data:`CATALOG`)."""

    trace_process = "metrics"

    def __init__(
        self,
        window_ns: float = DEFAULT_WINDOW_NS,
        label: str = "",
        catalog: Sequence[MetricSpec] = CATALOG,
    ) -> None:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.window_ns = float(window_ns)
        self.label = label
        self.registry: Optional[ProbeRegistry] = None
        self.metrics: Dict[str, WindowedSeries] = {}
        self.specs: Dict[str, MetricSpec] = {spec.name: spec for spec in catalog}

    # -- installation -------------------------------------------------------

    def install(self, registry: ProbeRegistry) -> "MetricsHub":
        """Attach one feed per catalog source whose tracepoint exists in
        ``registry``; unknown tracepoints are skipped so a hub works on
        partial rigs (unit-test registries) too.  A label another hub on
        ``registry`` already carries gains a ``#2``, ``#3``... suffix."""
        self.registry = registry
        taken = {hub.label for hub in metrics_hubs(registry)}
        label, n = self.label, 1
        while label in taken:
            n += 1
            label = f"{self.label}#{n}"
        self.label = label
        for spec in self.specs.values():
            estimator = build_estimator(spec, self.window_ns)
            self.metrics[spec.name] = estimator
            for tp_name, feed_kind, feed_args in spec.sources:
                if tp_name not in registry.tracepoints:
                    continue
                feed = FEED_KINDS[feed_kind](self, estimator, **feed_args)
                registry.attach(tp_name, feed)
        registry.programs.append(self)
        return self

    def now(self) -> float:
        """The sim timestamp every feed gives its sample."""
        return self.registry.now() if self.registry is not None else 0.0

    # -- reads --------------------------------------------------------------

    def finalize(self) -> None:
        """Close every window strictly before now.  Readers call this
        before they look at closed windows."""
        when = self.now()
        for estimator in self.metrics.values():
            estimator.flush(estimator.index_of(when))

    def read(
        self, name: str, window: int = 1, mode: Optional[str] = None
    ) -> float:
        """Scalar value of metric ``name`` over the last ``window``
        closed windows.

        Counters read as rates (or window-span fractions for duration
        accumulators), gauges as means, levels as time-weighted means,
        histograms as windowed p95 unless ``mode`` overrides.
        """
        estimator = self.metrics[name]
        estimator.flush(estimator.index_of(self.now()))
        mode = mode or self.specs[name].read_mode
        if mode:
            return estimator.read(window, mode=mode)  # type: ignore[attr-defined]
        return estimator.read(window)  # type: ignore[attr-defined]

    def export_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Flatten all closed windows to ``name[.suffix] -> [(t0, v)]``."""
        out: Dict[str, List[Tuple[float, float]]] = {}
        for name, estimator in sorted(self.metrics.items()):
            for suffix, series in estimator.export_series().items():
                key = f"{name}.{suffix}" if suffix else name
                out[key] = series
        return out

    def snapshot(self) -> dict:
        """Whole-run summary for the run's JSON document: each metric's
        last closed window, its lifetime aggregate, and every closed
        window of every exported series."""
        self.finalize()
        return {
            "window_ns": self.window_ns,
            "label": self.label,
            "last_window": {name: self.read(name) for name in self.metrics},
            "lifetime": {
                name: estimator.lifetime_snapshot()
                for name, estimator in self.metrics.items()
            },
            "series": {
                key: [[t0, value] for t0, value in series]
                for key, series in self.export_series().items()
            },
        }

    def trace_tracks(self) -> list:
        """One ``metric:<label>:<key>`` counter track per exported
        series (``metric:<key>`` for an unlabelled hub), whatever other
        hubs share the registry.  ``[]`` while no window has closed."""
        self.finalize()
        exported = self.export_series()
        if not any(exported.values()):
            return []
        prefix = f"{self.label}:" if self.label else ""
        return [Thread(0, "windowed metrics")] + [
            Counter(f"metric:{prefix}{key}", "metric", series)
            for key, series in sorted(exported.items())
        ]

    def render_frame(self, title: str) -> str:
        """The metrics frame ``run`` and ``serve`` print after a run:
        every catalog metric's last window, its mean over the last 8
        windows, and an ASCII trend over the last 24."""
        self.finalize()
        lines = [
            f"metrics — {title}  t={self.now() / 1000.0:.1f}us  "
            f"window={self.window_ns / 1000.0:g}us  hub={self.label or '-'}",
            f"{'METRIC':<24} {'UNIT':<9} {'LAST':>10} {'AVG8':>10}  TREND",
        ]
        for spec in self.specs.values():
            exported = self.metrics[spec.name].export_series()
            series = exported.get("") or exported.get("p95") or []
            last = self.read(spec.name)
            avg = self.read(spec.name, window=8)
            trend = _spark([value for _t0, value in series[-24:]])
            lines.append(
                f"{spec.name:<24} {spec.unit:<9} {_fmt(last):>10} "
                f"{_fmt(avg):>10}  {trend}"
            )
        return "\n".join(lines)


class MetricsHubPlan:
    """Attach plan: one MetricsHub per System (cf. ``GSanPlan``).

    Build systems inside ``with attached(plan):`` (composable with other
    plans); every registry constructed there gets a freshly installed
    hub, collected on the plan for later reads/export.
    """

    def __init__(self, window_ns: float = DEFAULT_WINDOW_NS) -> None:
        self.window_ns = window_ns
        self.hubs: List[MetricsHub] = []

    def __call__(self, registry: ProbeRegistry) -> None:
        hub = MetricsHub(window_ns=self.window_ns, label=f"sys{len(self.hubs)}")
        self.hubs.append(hub.install(registry))

    @property
    def hub(self) -> Optional[MetricsHub]:
        """The most recently installed hub (single-System runs)."""
        return self.hubs[-1] if self.hubs else None


def metrics_hubs(registry: Optional[ProbeRegistry]) -> List[MetricsHub]:
    """All hubs installed on ``registry`` (discovery via the program
    list)."""
    if registry is None:
        return []
    return [p for p in registry.programs if isinstance(p, MetricsHub)]
