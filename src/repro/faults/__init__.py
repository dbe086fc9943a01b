"""Deterministic fault injection and recovery for the GENESYS stack.

The subsystem has two halves:

* :mod:`repro.faults.plan` — :class:`FaultPlan` (a seeded, declarative
  description of faults to inject) and :class:`FaultInjector` (the
  verdicts the stack's five fault sites ask for, all randomness drawn
  from one ``DeterministicRandom`` so runs replay exactly, plus the
  plan's recovery knobs written to ``/sys/genesys``).
* :mod:`repro.faults.chaos` — per-workload chaos profiles and scenario
  bodies, the runner, and :func:`check_invariants`, the liveness/safety
  postconditions every faulted run must satisfy.  The runner judges
  each cell in the one checked-run cell,
  :func:`repro.modelcheck.scenarios.run_cell`, so GSan always watches
  a chaos run.

``python -m repro chaos`` runs the invariant matrix from the
command line; with no plan installed the stack's behaviour (and every
experiment's output) is byte-identical to a build without this package.
"""

from repro.faults.chaos import (
    DEFAULT_DRAIN_TIMEOUT_NS,
    EXPERIMENTS,
    PROFILES,
    ChaosReport,
    check_invariants,
    recovery_stats,
    run_matrix,
    run_one,
)
from repro.faults.plan import (
    FAULT_TABLE,
    FaultInjector,
    FaultPlan,
)
from repro.oskernel.workqueue import DrainTimeout

__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_NS",
    "EXPERIMENTS",
    "FAULT_TABLE",
    "PROFILES",
    "ChaosReport",
    "DrainTimeout",
    "FaultInjector",
    "FaultPlan",
    "check_invariants",
    "recovery_stats",
    "run_matrix",
    "run_one",
]
