"""GMC: schedule-space model checking of the slot protocol.

The reproduction's runs are deterministic: the event heap breaks
same-timestamp ties FIFO, so every test sees exactly one interleaving
of the paper's lock-free slot protocol.  GSan (:mod:`repro.sanitizers`)
checks that one interleaving deeply — but a bug that needs the *other*
order of two tied events is invisible to any single run.  GMC closes
that gap with stateless model checking in the Verisoft/CHESS style:

* the engine's :attr:`~repro.sim.engine.Simulator.tie_break` hook makes
  the schedule controllable without perturbing the default (FIFO stays
  bit-identical across the whole experiment suite), and a guided run
  hands the rest of its pops back to the plain path once its policy has
  nothing left to choose, record or enforce;
* the explorer (:mod:`repro.modelcheck.explore`) enumerates tie-break
  choices up to depth/preemption bounds, pruning commuting reorderings
  with sleep-set DPOR driven by GSan's own happens-before scope
  attribution;
* the one checked-run cell
  (:func:`repro.modelcheck.scenarios.run_cell`: GSan, the chaos
  invariants and one violation vocabulary) judges every branch,
  composing with seeded :class:`~repro.faults.plan.FaultPlan`\\ s so
  schedules and fault points are explored jointly;
* violating schedules shrink to minimal, replayable certificates
  (:mod:`repro.modelcheck.certificate`), and frontiers shard over
  :func:`repro.runfarm.run_frontier` worker processes without changing
  the set of schedules visited;
* the seeded-bug corpus (:mod:`repro.modelcheck.corpus`) is one table
  of known-bad scenarios: bugs GSan sees on the FIFO schedule and
  ordering bugs only exploration finds, each judged by
  :func:`~repro.modelcheck.corpus.check_bug` and certified.

Command line: ``python -m repro explore|replay``, ``python -m repro
corpus`` and ``python -m repro list scenarios``.
"""

from repro.modelcheck.certificate import (
    certify,
    densify,
    load_certificate,
    make_certificate,
    replay,
    save_certificate,
    shrink,
)
from repro.modelcheck.corpus import CORPUS, ORDERING_BUGS, check_bug, check_corpus
from repro.modelcheck.explore import Bounds, ExploreReport, explore, run_schedule
from repro.modelcheck.scenarios import build_scenario, scenario_names
from repro.modelcheck.schedule import (
    EffectCollector,
    FifoSchedulePlan,
    FifoTieBreak,
    GuidedTieBreak,
    ScheduleError,
    SleepBlocked,
    independent,
)

__all__ = [
    "Bounds",
    "CORPUS",
    "EffectCollector",
    "ExploreReport",
    "FifoSchedulePlan",
    "FifoTieBreak",
    "GuidedTieBreak",
    "ORDERING_BUGS",
    "ScheduleError",
    "SleepBlocked",
    "build_scenario",
    "certify",
    "check_bug",
    "check_corpus",
    "densify",
    "explore",
    "independent",
    "load_certificate",
    "make_certificate",
    "replay",
    "run_schedule",
    "save_certificate",
    "scenario_names",
    "shrink",
]
