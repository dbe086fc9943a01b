"""Deterministic fault injection and recovery for the GENESYS stack.

The subsystem has two halves:

* :mod:`repro.faults.plan` — :class:`FaultPlan` (a seeded, declarative
  description of faults to inject) and :class:`FaultInjector` (policy
  programs attached to the stack's ``fault.*`` hooks, all randomness
  drawn from one ``DeterministicRandom`` so runs replay exactly).
* :mod:`repro.faults.chaos` — per-workload chaos profiles, the runner,
  and :func:`check_invariants`, the liveness/safety postconditions every
  faulted run must satisfy.

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
    run_scenario,
)
from repro.faults.plan import (
    FAULT_HOOKS,
    FaultInjector,
    FaultPlan,
    install_plan,
)
from repro.oskernel.workqueue import DrainTimeout

__all__ = [
    "DEFAULT_DRAIN_TIMEOUT_NS",
    "EXPERIMENTS",
    "FAULT_HOOKS",
    "PROFILES",
    "ChaosReport",
    "DrainTimeout",
    "FaultInjector",
    "FaultPlan",
    "check_invariants",
    "install_plan",
    "recovery_stats",
    "run_matrix",
    "run_one",
    "run_scenario",
]
