"""The latency-regression gate: recorded baselines + banded comparison.

``python -m repro record fig7`` runs an experiment with tracing
attached and writes the per-stage latency distribution (count, p50,
p95, p99, mean, max — nearest-rank, hence deterministic) to
``benchmarks/latency/<experiment>.json``.  ``python -m repro gate``
re-runs the experiment and fails if any stage's percentile
exceeds its recorded value by more than the tolerance band — so a PR
that regresses, say, the workqueue stage's p95 fails CI visibly instead
of silently shifting the paper's latency composition.

The simulator is deterministic, so a freshly recorded baseline always
gates green; the band (default 10% relative + 1 ns absolute) exists to
absorb deliberate, small, reviewed shifts without re-recording on every
touch.  Count changes always fail: a different number of invocations
means the workload itself changed and the baseline must be re-recorded
deliberately.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Sequence

from repro.tracing.analysis import e2e_stats, stage_stats
from repro.tracing.spans import InvocationTrace

BASELINE_SCHEMA = 1

#: Metrics compared against the tolerance band.
GATED_METRICS = ("p50", "p95", "p99")

DEFAULT_TOLERANCE = 0.10
DEFAULT_ABS_NS = 1.0

#: Default baseline directory, relative to the repository root.
DEFAULT_DIR = os.path.join("benchmarks", "latency")


def build_baseline(experiment: str, traces: Sequence[InvocationTrace]) -> dict:
    """The JSON-ready baseline document for one experiment's traces."""
    return {
        "schema": BASELINE_SCHEMA,
        "experiment": experiment,
        "invocations": len(traces),
        "stages": stage_stats(traces),
        "end_to_end": e2e_stats(traces),
    }


def baseline_path(directory: str, experiment: str) -> str:
    return os.path.join(directory, f"{experiment}.json")


def write_baseline(directory: str, baseline: dict) -> str:
    os.makedirs(directory, exist_ok=True)
    path = baseline_path(directory, baseline["experiment"])
    with open(path, "w") as fh:
        json.dump(baseline, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def load_baseline(directory: str, experiment: str) -> dict:
    path = baseline_path(directory, experiment)
    with open(path) as fh:
        baseline = json.load(fh)
    if baseline.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {baseline.get('schema')!r} != {BASELINE_SCHEMA}"
        )
    return baseline


def recorded_experiments(directory: str) -> List[str]:
    """Experiments with a baseline file in ``directory`` (sorted)."""
    if not os.path.isdir(directory):
        return []
    return sorted(
        name[:-5]
        for name in os.listdir(directory)
        if name.endswith(".json")
    )


class GateCheck:
    """One compared metric: baseline vs current vs allowed ceiling."""

    __slots__ = ("experiment", "stage", "metric", "baseline", "current", "limit", "ok")

    def __init__(self, experiment, stage, metric, baseline, current, limit):
        self.experiment = experiment
        self.stage = stage
        self.metric = metric
        self.baseline = baseline
        self.current = current
        self.limit = limit
        self.ok = current <= limit

    def render(self) -> str:
        verdict = "ok  " if self.ok else "FAIL"
        return (
            f"{verdict} {self.experiment:<10} {self.stage:<12} {self.metric:<5} "
            f"baseline={self.baseline:>12.1f}  current={self.current:>12.1f}  "
            f"limit={self.limit:>12.1f}"
        )


class GateResult:
    """All checks for one experiment, plus structural failures."""

    def __init__(self, experiment: str):
        self.experiment = experiment
        self.checks: List[GateCheck] = []
        self.errors: List[str] = []

    @property
    def passed(self) -> bool:
        return not self.errors and all(check.ok for check in self.checks)

    @property
    def failures(self) -> List[GateCheck]:
        return [check for check in self.checks if not check.ok]

    def render(self) -> str:
        lines = [f"--- gate: {self.experiment} ---"]
        lines.extend(f"FAIL {self.experiment:<10} {err}" for err in self.errors)
        lines.extend(check.render() for check in self.checks)
        verdict = "PASS" if self.passed else "FAIL"
        lines.append(
            f"{verdict}: {self.experiment} "
            f"({len(self.checks)} checks, {len(self.failures)} over tolerance, "
            f"{len(self.errors)} structural)"
        )
        return "\n".join(lines)


def compare(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    abs_ns: float = DEFAULT_ABS_NS,
) -> GateResult:
    """Band-compare ``current`` (same shape as a baseline) to ``baseline``."""
    result = GateResult(baseline["experiment"])
    if current["invocations"] != baseline["invocations"]:
        result.errors.append(
            f"invocation count changed: baseline {baseline['invocations']}, "
            f"current {current['invocations']} (re-record the baseline if "
            f"this is intentional)"
        )

    def check_block(stage: str, base_stats: Optional[dict], cur_stats: Optional[dict]):
        if base_stats is None:
            return  # a new stage appeared: informational, not gated
        if cur_stats is None:
            result.errors.append(f"stage {stage!r} vanished from the current run")
            return
        if cur_stats["count"] != base_stats["count"]:
            result.errors.append(
                f"stage {stage!r} count changed: baseline {base_stats['count']}, "
                f"current {cur_stats['count']}"
            )
        for metric in GATED_METRICS:
            base_value = base_stats[metric]
            limit = base_value * (1.0 + tolerance) + abs_ns
            result.checks.append(
                GateCheck(
                    result.experiment, stage, metric,
                    base_value, cur_stats[metric], limit,
                )
            )

    for stage, base_stats in baseline["stages"].items():
        check_block(stage, base_stats, current["stages"].get(stage))
    check_block("end-to-end", baseline["end_to_end"], current["end_to_end"])
    return result


def gate_experiment(
    experiment: str,
    traces: Sequence[InvocationTrace],
    directory: str,
    tolerance: float = DEFAULT_TOLERANCE,
    abs_ns: float = DEFAULT_ABS_NS,
) -> GateResult:
    """Compare a fresh run's ``traces`` to the recorded baseline."""
    baseline = load_baseline(directory, experiment)
    current = build_baseline(experiment, traces)
    return compare(baseline, current, tolerance=tolerance, abs_ns=abs_ns)
