"""repro.metrics — sim-time-windowed telemetry riding the tracepoint stream.

A :class:`~repro.metrics.hub.MetricsHub` attaches pure observers to
the machine's tracepoints and folds every fire into fixed-window series
— rates, log2 histograms with windowed percentiles, gauges, ratios and
time-weighted utilization levels — indexed by simulated time, next to
whole-run aggregates (counter totals and per-key counts, a lifetime
log2 histogram).  A hub carries the catalog its caller reads: the full
:data:`~repro.metrics.collectors.CATALOG` for ``--attach metrics``, or
the rows :func:`probe_specs` makes for one ``--attach counter|hist|rate``
spec.

Everything here honours the probes determinism contract: observers are
synchronous, get no simulator handle, never mutate simulated state and
schedule no simulator event (windows close when a later sample lands or
a reader asks), so attached and detached runs stay byte-identical.

``hub.read(name, window)`` is a metric's scalar over its last closed
windows, and its readers are the hub's own reports: ``hub.snapshot()``
(last window, lifetime aggregates and every closed window) is what
``run``/``serve --json`` write, and ``hub.render_frame()`` the text
frame they print.  ``hub.trace_tracks()`` gives the Perfetto counter
tracks of ``--tef``.
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
