"""gtop: a top-like terminal view of a :class:`MetricsHub`.

:func:`render_frame` draws one frame: every catalog metric's last
window, its short-term average and an ASCII trend.
:class:`GtopRenderer` is the hub tick listener ``python -m repro gtop``
installs to print a frame every N windows while the simulation runs.
"""

from __future__ import annotations

import sys
from typing import List

from repro.metrics.hub import MetricsHub

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


def _primary_series(hub: MetricsHub, name: str, last: int) -> List[float]:
    exported = hub.metrics[name].export_series()
    series = exported.get("") or exported.get("p95") or []
    return [value for _t0, value in series[-last:]]


def render_frame(
    hub: MetricsHub, boundary_ns: float, title: str, spark_windows: int = 24
) -> str:
    """One gtop frame: every catalog metric, last window + short-term
    average + an ASCII trend over the last ``spark_windows`` windows."""
    lines = [
        f"gtop — {title}  t={boundary_ns / 1000.0:.1f}us  "
        f"window={hub.window_ns / 1000.0:g}us  ticks={hub.ticks}  "
        f"hub={hub.label or '-'}",
        f"{'METRIC':<24} {'UNIT':<9} {'LAST':>10} {'AVG8':>10}  TREND",
    ]
    for spec in hub.specs.values():
        last = hub.read(spec.name)
        avg = hub.read(spec.name, window=8)
        trend = _spark(_primary_series(hub, spec.name, spark_windows))
        lines.append(
            f"{spec.name:<24} {spec.unit:<9} {_fmt(last):>10} "
            f"{_fmt(avg):>10}  {trend}"
        )
    return "\n".join(lines)


def series_lines(hub: MetricsHub, name: str) -> List[str]:
    """``metric,t0_ns,value`` rows of every closed window of the series
    ``name`` and its ``name.<suffix>`` siblings."""
    exported = hub.export_series()
    return [
        f"{key},{t0:.0f},{_fmt(value)}"
        for key in sorted(exported)
        if key == name or key.startswith(name + ".")
        for t0, value in exported[key]
    ]


class GtopRenderer:
    """Tick listener that prints a frame every N windows."""

    def __init__(
        self, title: str, every: int, follow: bool, max_frames: int
    ) -> None:
        self.title = title
        self.every = max(1, every)
        self.follow = follow
        self.max_frames = max_frames
        self.frames = 0

    def __call__(self, hub: MetricsHub, boundary_ns: float) -> None:
        if hub.ticks % self.every != 0:
            return
        if self.frames >= self.max_frames:
            return
        self.frames += 1
        frame = render_frame(hub, boundary_ns, self.title)
        if self.follow:
            sys.stdout.write("\x1b[2J\x1b[H" + frame + "\n")
        else:
            sys.stdout.write(frame + "\n\n")
        sys.stdout.flush()
