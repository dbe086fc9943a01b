"""Critical-path latency analysis over collected invocation traces.

Consumes :class:`~repro.tracing.spans.InvocationTrace` lists and
produces the paper's latency-composition views: per-stage and
per-syscall p50/p95/p99, the blocking/non-blocking and granularity
splits of Figures 7/8, critical-path attribution (which stage dominates
each invocation, and each stage's share of the total end-to-end time),
and slowest-N listings with full timelines.

All statistics are deterministic (nearest-rank percentiles over sorted
values) so the regression gate can compare them across runs exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Sequence

from repro.experiments import ExperimentResult
from repro.tracing.spans import STAGE_ORDER, InvocationTrace


def summarize(values: Sequence[float]) -> dict:
    """count/total/mean/p50/p95/p99/max of a duration sample, with
    exact nearest-rank percentiles."""
    if not values:
        return {
            "count": 0, "total": 0.0, "mean": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0, "max": 0.0,
        }
    ordered = sorted(values)
    total = sum(ordered)

    def rank(q: float) -> float:
        return ordered[min(max(1, math.ceil(q / 100.0 * len(ordered))), len(ordered)) - 1]

    return {
        "count": len(ordered),
        "total": total,
        "mean": total / len(ordered),
        "p50": rank(50),
        "p95": rank(95),
        "p99": rank(99),
        "max": ordered[-1],
    }


def stage_durations(traces: Iterable[InvocationTrace]) -> Dict[str, List[float]]:
    """Stage -> list of span durations across ``traces``."""
    out: Dict[str, List[float]] = {}
    for trace in traces:
        for stage, duration in trace.spans():
            out.setdefault(stage, []).append(duration)
    return out


def stage_stats(traces: Iterable[InvocationTrace]) -> Dict[str, dict]:
    """Stage -> summary, in canonical stage order."""
    durations = stage_durations(traces)
    return {
        stage: summarize(durations[stage])
        for stage in STAGE_ORDER
        if stage in durations
    }


def e2e_stats(traces: Iterable[InvocationTrace]) -> dict:
    return summarize([trace.end_to_end() for trace in traces])


def by_key(
    traces: Iterable[InvocationTrace],
    key: Callable[[InvocationTrace], str],
) -> Dict[str, dict]:
    """End-to-end summaries grouped by ``key(trace)`` (sorted keys)."""
    groups: Dict[str, List[float]] = {}
    for trace in traces:
        groups.setdefault(key(trace), []).append(trace.end_to_end())
    return {name: summarize(values) for name, values in sorted(groups.items())}


def critical_path(traces: Sequence[InvocationTrace]) -> Dict[str, dict]:
    """Per-stage attribution: total time, share of all end-to-end time,
    and how many invocations that stage dominated."""
    totals: Dict[str, float] = {}
    dominant: Dict[str, int] = {}
    grand_total = 0.0
    for trace in traces:
        worst_stage, worst = None, -1.0
        for stage, duration in trace.spans():
            totals[stage] = totals.get(stage, 0.0) + duration
            grand_total += duration
            if duration > worst:
                worst_stage, worst = stage, duration
        if worst_stage is not None:
            dominant[worst_stage] = dominant.get(worst_stage, 0) + 1
    return {
        stage: {
            "total": totals[stage],
            "share": totals[stage] / grand_total if grand_total else 0.0,
            "dominant": dominant.get(stage, 0),
        }
        for stage in STAGE_ORDER
        if stage in totals
    }


def slowest(traces: Sequence[InvocationTrace], n: int = 5) -> List[InvocationTrace]:
    """The ``n`` slowest invocations by end-to-end latency.

    Ties break on invocation id so the listing is deterministic.
    """
    return sorted(
        traces, key=lambda t: (-t.end_to_end(), t.invocation_id)
    )[:n]


def reconciliation_error(trace: InvocationTrace) -> float:
    """|sum of stage durations - end-to-end| — 0 up to float rounding."""
    return abs(sum(d for _, d in trace.spans()) - trace.end_to_end())


# -- rendering -----------------------------------------------------------


def _stat_row(label: str, stats: dict, extra: Sequence = ()) -> List:
    return [
        label,
        stats["count"],
        f"{stats['mean']:.0f}",
        f"{stats['p50']:.0f}",
        f"{stats['p95']:.0f}",
        f"{stats['p99']:.0f}",
        f"{stats['max']:.0f}",
        *extra,
    ]


def render_report(
    traces: Sequence[InvocationTrace],
    title: str = "span report",
    slowest_n: int = 5,
) -> str:
    """The full text report (stage table, splits, slowest-N)."""
    if not traces:
        return f"=== {title} ===\nno completed invocations traced"
    report = ExperimentResult(title)

    stages = stage_stats(traces)
    attribution = critical_path(traces)
    rows = [
        _stat_row(
            stage,
            stats,
            (
                f"{attribution[stage]['share'] * 100:.1f}%",
                attribution[stage]["dominant"],
            ),
        )
        for stage, stats in stages.items()
    ]
    e2e = e2e_stats(traces)
    rows.append(_stat_row("end-to-end", e2e, ("100.0%", len(traces))))
    report.add_table(
        f"{title}: stage latency (ns)",
        ["stage", "count", "mean", "p50", "p95", "p99", "max", "cp-share", "dominant"],
        rows,
    )

    report.add_table(
        "end-to-end by syscall (ns)",
        ["syscall", "count", "mean", "p50", "p95", "p99", "max"],
        [
            _stat_row(name, stats)
            for name, stats in by_key(traces, lambda t: t.name).items()
        ],
    )

    axes = by_key(
        traces,
        lambda t: f"{t.granularity}/{'blocking' if t.blocking else 'non-blocking'}",
    )
    report.add_table(
        "end-to-end by granularity x blocking (ns)",
        ["axis", "count", "mean", "p50", "p95", "p99", "max"],
        [_stat_row(name, stats) for name, stats in axes.items()],
    )

    if slowest_n > 0:
        report.add_table(
            f"slowest {slowest_n} invocations",
            ["#", "syscall", "hw", "e2e (ns)", "timeline"],
            [
                (
                    trace.invocation_id,
                    trace.name,
                    trace.hw_id,
                    f"{trace.end_to_end():.0f}",
                    trace.timeline(),
                )
                for trace in slowest(traces, slowest_n)
            ],
        )

    return report.render()
