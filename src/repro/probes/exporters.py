"""Exporter: JSON snapshots of attached probe state.

:func:`metrics_snapshot` is a JSON-ready dict of every tracepoint's hit
and observer counts and every attached program's snapshot (a metrics
hub's carries each metric's last window, lifetime aggregate and closed
windows).  ``python -m repro run --json``
writes one per System as the document's ``systems``; CI asserts on
them.  Perfetto tracks come from the programs' own ``trace_tracks()``
through :mod:`repro.traceviz`.
"""

from __future__ import annotations

from repro.probes.tracepoints import ProbeRegistry


def metrics_snapshot(registry: ProbeRegistry) -> dict:
    """Everything the attached probes know, as one JSON-ready dict."""
    tracepoints = {}
    for name in sorted(registry.tracepoints):
        tp = registry.tracepoints[name]
        tracepoints[name] = {
            "hits": tp.hits,
            "observers": tp.observers,
            "args": list(tp.args),
        }
    return {
        "simulated_ns": registry.now(),
        "tracepoints": tracepoints,
        "programs": [program.snapshot() for program in registry.programs],
    }
