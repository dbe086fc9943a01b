"""`repro.probes`: eBPF-style tracepoints + policy hooks for the stack.

The subsystem in one breath: the simulated stack declares static
**tracepoints** (observe) and **policy hooks** (decide) in a per-System
:class:`ProbeRegistry`; observers and fixed-value policies attach at
runtime; an **exporter** turns every attached program's state into a
JSON snapshot, and ``python -m repro run <experiment> --attach ...``
does all of it from the command line.  Counters, histograms and rates
are :class:`~repro.metrics.hub.MetricsHub` catalogs
(:func:`repro.metrics.collectors.probe_specs`), so every attach kind
shares one counter, one log2 histogram and one windowing rule.

Guarantees (tested):

* observer probes never perturb simulated results — experiment outputs
  are byte-identical attached vs. detached;
* a detached tracepoint costs one attribute check and a branch;
* observers attached from outside a run compose on one ordered stack:
  ``with attached(plan_a, plan_b): ...`` applies both, in that order,
  to every System built inside the block.

See the "Probes & policy hooks" section of ``docs/architecture.md``.
"""

from repro.probes.exporters import metrics_snapshot
from repro.probes.policy import PolicyHook, fixed
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
    "PolicyHook",
    "ProbeRegistry",
    "Tracepoint",
    "apply_global_plan",
    "attached",
    "clear_global_plan",
    "fixed",
    "install_global_plan",
    "metrics_snapshot",
]
