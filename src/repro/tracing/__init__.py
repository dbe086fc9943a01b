"""Per-invocation span tracing with critical-path latency attribution.

Built on the :mod:`repro.probes` tracepoints: a :class:`SpanTracer`
attaches pure observers that join each syscall's ``invocation_id``
across every pipeline stage (submit, signal, interrupt, coalesce,
workqueue, dispatch, service, resume), :mod:`repro.tracing.analysis`
turns the collected traces into the paper's latency-composition views,
``SpanTracer.trace_tracks`` draws them as Perfetto span tracks through
:mod:`repro.traceviz`, and :mod:`repro.tracing.gate` compares fresh
runs against committed baselines (``python -m repro run NAME --attach
spans``, ``python -m repro record|gate``).
"""

from repro.tracing.spans import (
    SPAN_SNAPSHOT_SCHEMA,
    STAGE_ORDER,
    InvocationTrace,
    SpanTracer,
    install_tracer,
)

__all__ = [
    "SPAN_SNAPSHOT_SCHEMA",
    "STAGE_ORDER",
    "InvocationTrace",
    "SpanTracer",
    "install_tracer",
]
