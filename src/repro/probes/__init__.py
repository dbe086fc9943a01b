"""`repro.probes`: eBPF-style tracepoints + policy hooks for the stack.

The subsystem in one breath: the simulated stack declares static
**tracepoints** (observe) and **policy hooks** (decide) in a per-System
:class:`ProbeRegistry`; user **programs** — counters, latency
histograms, rate meters, fixed/choice policies — attach at runtime;
an **exporter** turns attached state into a JSON snapshot, rate meters
draw Perfetto counter tracks through :mod:`repro.traceviz`, and
``python -m repro.probes run <experiment> --attach ...`` does all of it
from the command line.  :class:`Log2Histogram` is the one log2
histogram, shared with the metrics plane.

Guarantees (tested):

* observer probes never perturb simulated results — experiment outputs
  are byte-identical attached vs. detached;
* a detached tracepoint costs one attribute check and a branch;
* observers attached from outside a run compose on one ordered stack:
  ``with attached(plan_a, plan_b): ...`` applies both, in that order,
  to every System built inside the block.

See the "Probes & policy hooks" section of ``docs/architecture.md``.
"""

from repro.probes.exporters import metrics_snapshot, write_metrics_snapshot
from repro.probes.policy import PolicyHook, choose, fixed
from repro.probes.programs import (
    CounterProbe,
    LatencyHistogram,
    Log2Histogram,
    ProbeProgram,
    RateMeter,
)
from repro.probes.tracepoints import (
    NULL_TRACEPOINT,
    ProbeRegistry,
    Tracepoint,
    apply_global_plan,
    attached,
    clear_global_plan,
    install_global_plan,
)

__all__ = [
    "NULL_TRACEPOINT",
    "CounterProbe",
    "LatencyHistogram",
    "Log2Histogram",
    "PolicyHook",
    "ProbeProgram",
    "ProbeRegistry",
    "RateMeter",
    "Tracepoint",
    "apply_global_plan",
    "attached",
    "choose",
    "clear_global_plan",
    "fixed",
    "install_global_plan",
    "metrics_snapshot",
    "write_metrics_snapshot",
]
