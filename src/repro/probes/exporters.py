"""Exporter: JSON metrics snapshots of attached probe state.

:func:`metrics_snapshot` is a JSON-ready dict of every tracepoint's hit
count, every hook's decision/override counts, and every attached
program's snapshot.  The CLI writes this with
:func:`write_metrics_snapshot`; CI asserts on it.  Perfetto tracks come
from the programs' own ``trace_tracks()`` through :mod:`repro.traceviz`.
"""

from __future__ import annotations

import json
from typing import Optional

from repro.probes.tracepoints import ProbeRegistry

SNAPSHOT_SCHEMA = 1


def metrics_snapshot(registry: ProbeRegistry, experiment: Optional[str] = None) -> dict:
    """Everything the attached probes know, as one JSON-ready dict."""
    tracepoints = {}
    for name in sorted(registry.tracepoints):
        tp = registry.tracepoints[name]
        tracepoints[name] = {
            "hits": tp.hits,
            "observers": tp.observers,
            "args": list(tp.args),
        }
    hooks = {}
    for name in sorted(registry.hooks):
        hook = registry.hooks[name]
        hooks[name] = {
            "programs": hook.programs,
            "decisions": hook.decisions,
            "overrides": hook.overrides,
        }
    return {
        "schema": SNAPSHOT_SCHEMA,
        "experiment": experiment,
        "simulated_ns": registry.now(),
        "tracepoints": tracepoints,
        "hooks": hooks,
        "programs": [program.snapshot() for program in registry.programs],
    }


def write_metrics_snapshot(
    registry: ProbeRegistry, path: str, experiment: Optional[str] = None
) -> dict:
    """Write :func:`metrics_snapshot` to ``path``; returns the dict."""
    snapshot = metrics_snapshot(registry, experiment)
    with open(path, "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    return snapshot
