"""repro.metrics — sim-time-windowed telemetry riding the tracepoint stream.

A :class:`~repro.metrics.hub.MetricsHub` attaches pure observers to
the machine's tracepoints and folds every fire into fixed-window series
— rates, log2 histograms with windowed percentiles, gauges, ratios and
time-weighted utilization levels — indexed by simulated time, next to
whole-run aggregates (counter totals and per-key counts, a lifetime
log2 histogram).  A hub carries the catalog its caller reads: the full
:data:`~repro.metrics.collectors.CATALOG` for ``--attach metrics``, the
three QoS sensor rows, or the rows :func:`probe_specs` makes for one
``--attach counter|hist|rate`` spec.

Everything here honours the probes determinism contract: observers are
synchronous, get no simulator handle, and never mutate simulated state;
the hub's periodic tick is a *weak* engine callback that neither
advances the clock nor keeps the run alive, so attached and detached
runs stay byte-identical and detached runs schedule zero metrics events.

``hub.read(name, window)`` is the API ROADMAP item 3's feedback
controllers will consume; :mod:`repro.metrics.export` feeds Prometheus
text, CSV, Perfetto counter tracks, and the serving report's
per-window time-series; :mod:`repro.metrics.gtop` draws the
``python -m repro gtop`` terminal frames.
"""

from repro.metrics.collectors import probe_specs
from repro.metrics.hub import MetricsHub, MetricsHubPlan, metrics_hubs
from repro.metrics.series import (
    LevelSeries,
    WindowedCounter,
    WindowedGauge,
    WindowedLog2Histogram,
    WindowedRatio,
)

__all__ = [
    "LevelSeries",
    "MetricsHub",
    "MetricsHubPlan",
    "WindowedCounter",
    "WindowedGauge",
    "WindowedLog2Histogram",
    "WindowedRatio",
    "metrics_hubs",
    "probe_specs",
]
