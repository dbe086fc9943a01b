"""`repro.probes`: eBPF-style tracepoints for the stack.

The subsystem in one breath: the simulated stack declares static
**tracepoints** in a per-System :class:`ProbeRegistry`; observers
attach at runtime; an **exporter** turns every attached program's
state into a JSON snapshot, and ``python -m repro run <experiment>
--attach ...`` does all of it from the command line.  Counters,
histograms and rates are :class:`~repro.metrics.hub.MetricsHub`
catalogs (:func:`repro.metrics.collectors.probe_specs`), so every
attach kind shares one counter, one log2 histogram and one windowing
rule.  Probes only observe: the one component that changes a decision
per call, a fault plan's injector, is asked directly by the sites it
faults (:mod:`repro.faults.plan`).

Guarantees (tested):

* observer probes never perturb simulated results — experiment outputs
  are byte-identical attached vs. detached;
* a detached tracepoint costs one attribute check and a branch;
* observers attached from outside a run compose on one ordered stack:
  ``with attached(plan_a, plan_b): ...`` applies both, in that order,
  to every System built inside the block.

See the "Probes" section of ``docs/architecture.md``.
"""

from repro.probes.exporters import metrics_snapshot
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
    "ProbeRegistry",
    "Tracepoint",
    "apply_global_plan",
    "attached",
    "clear_global_plan",
    "install_global_plan",
    "metrics_snapshot",
]
