"""What one checked run is: scenario builders and the cell that judges them.

A *scenario* is a recipe for one deterministic run of the slot
protocol.  Its builder returns a :class:`ScenarioRun`: a fresh machine
(or micro-fixture) with every tracepoint it fires already declared, a
``body`` that runs the workload, and an optional ``audit`` of the end
state.  A builder never installs GSan: the cell does, because GSan
attaches only to the tracepoints that exist when it is installed.

:func:`run_cell` is the one oracle for every checked run: a chaos cell,
an explored, shrunk or replayed schedule, and every row of the
seeded-bug corpus.  It installs GSan, sets the tie-break policy,
runs the body and sorts the outcome into one vocabulary, in order:

* the body's exception: a ``DrainTimeout`` is ``liveness: <msg>``, an
  ``AssertionError`` is ``safety: <msg>``, and anything else is
  ``crash: <type>: <msg> (at <file>:<line> in <function>)``;
* GSan's findings, each rendered with its event timeline;
* the audit's findings (the chaos invariants for workloads, the
  deadlock check for micro fixtures), counted as rule ``invariant``.

``rules`` keeps GSan's rule names, which shrinking and the corpus
look up.  A run a sleep set cut short (:class:`SleepBlocked`) is
redundant, not buggy: it is marked blocked and the oracle skipped.  A
:class:`ScheduleError` means the choice map does not fit the run,
which is bad input rather than a finding, so it propagates.

Three families are registered:

* the chaos workloads (``fig2``, ``grep``, ``memcached``, …) — full
  :class:`~repro.system.System` machines running the chaos scenario
  bodies, optionally under a seeded
  :class:`~repro.faults.plan.FaultPlan` so schedules and fault points
  are explored *jointly*;
* the seeded bugs of :mod:`repro.modelcheck.corpus` — slot-protocol
  fixtures, fault runs with recovery off and replayed event streams,
  each with the rule that must catch it, on FIFO or on a reordered
  schedule;
* micro structure scenarios defined here (``slot-commute``) — correct
  protocol fixtures with a known schedule-space shape, used to pin
  down explorer behaviour (e.g. that DPOR actually prunes commuting
  reorderings of fully-instrumented, disjoint-slot steps).
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.core.invocation import SyscallRequest
from repro.core.syscall_area import SlotState, SyscallArea
from repro.faults.chaos import (
    DEFAULT_DRAIN_TIMEOUT_NS,
    EXPERIMENTS,
    PROFILES,
    SCENARIOS,
    check_invariants,
)
from repro.faults.plan import FaultInjector, FaultPlan
from repro.machine import small_machine
from repro.memory.system import MemorySystem
from repro.modelcheck.schedule import ScheduleError, SleepBlocked
from repro.oskernel.process import OsProcess
from repro.oskernel.workqueue import DrainTimeout
from repro.probes.tracepoints import ProbeRegistry
from repro.sanitizers.gsan import GSan
from repro.sim.engine import Process, Simulator, TieBreak
from repro.system import System

__all__ = [
    "Scenario",
    "ScenarioRun",
    "Verdict",
    "build_scenario",
    "build_workload",
    "micro_run",
    "resolve_plan",
    "run_cell",
    "scenario_names",
    "slot_rig",
]


class ScenarioRun(NamedTuple):
    """One built scenario instance, ready for :func:`run_cell`."""

    sim: Simulator
    registry: ProbeRegistry
    body: Callable[[], object]
    audit: Optional[Callable[[], List[str]]] = None


class Scenario(NamedTuple):
    """A named, repeatable scenario; a seeded bug also names the GSan
    rule that must catch it, and an ``ordering`` bug is one the FIFO
    schedule never shows.

    ``build()`` returns a fresh instance: new machine, virgin clocks.
    Every machine numbers its own pids, inodes, sockets and kernels, so
    a build is the same world however many ran before it in the
    process, and a certificate's streams replay byte-identically.
    """

    name: str
    description: str
    expected_rule: Optional[str]
    build: Callable[[], ScenarioRun]
    ordering: bool = False


@dataclass
class Verdict:
    """What :func:`run_cell` found in one run."""

    sanitizer: GSan  # the run's GSan: ``events``, ``violations``
    blocked: bool
    violations: List[str]
    rules: Dict[str, int]
    result: object  # what the body returned; None if it raised

    @property
    def ok(self) -> bool:
        return not self.blocked and not self.violations


def run_cell(built: ScenarioRun, tie_break: Optional[TieBreak] = None) -> Verdict:
    """Run ``built`` under a fresh GSan and judge it (see the module
    docstring for the vocabulary)."""
    sanitizer = GSan().install(built.registry)
    if tie_break is not None:
        built.sim.tie_break = tie_break
    violations: List[str] = []
    result: object = None
    try:
        result = built.body()
    except SleepBlocked:
        return Verdict(sanitizer, True, [], {}, None)
    except DrainTimeout as exc:
        violations.append(f"liveness: {exc}")
    except AssertionError as exc:
        violations.append(f"safety: {exc}")
    except ScheduleError:
        raise
    except Exception as exc:
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        violations.append(
            f"crash: {type(exc).__name__}: {exc} (at "
            f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name})"
        )
    violations += [finding.render() for finding in sanitizer.finish()]
    rules = sanitizer.rules_hit()
    audit = built.audit() if built.audit is not None else []
    if audit:
        violations += audit
        rules["invariant"] = len(audit)
    return Verdict(sanitizer, False, violations, rules, result)


def micro_run(
    sim: Simulator, registry: ProbeRegistry, procs: Sequence[Process]
) -> ScenarioRun:
    """A micro fixture's run: the body drains the heap, and the audit
    (the deadlock check) wants every spawned process finished."""

    def audit() -> List[str]:
        return [
            f"deadlock: process {proc.name!r} never finished"
            for proc in procs
            if not proc.finished
        ]

    return ScenarioRun(sim, registry, sim.run, audit)


def slot_rig() -> Tuple[Simulator, ProbeRegistry, SyscallArea]:
    """A bare syscall area on ``small_machine()``, with no GPU or kernel:
    the micro rig of the corpus's slot-abuse rows, the ordering bugs
    and ``slot-commute``.  A builder declares any tracepoints of
    its own on the registry before returning."""
    sim = Simulator()
    config = small_machine()
    registry = ProbeRegistry(sim)
    area = SyscallArea(sim, config, MemorySystem(sim, config), probes=registry)
    return sim, registry, area


def resolve_plan(
    profile: Optional[str] = None,
    plan: Union[FaultPlan, dict, None] = None,
    seed: int = 1,
) -> Optional[FaultPlan]:
    """The fault plan a scenario runs under, if any.

    ``plan`` (a :class:`FaultPlan` or its ``as_dict`` document — the
    form certificates embed) wins over ``profile`` (a chaos profile
    name, seeded with ``seed``).  The resolved plan is exact: replaying
    a certificate re-creates the identical fault schedule.
    """
    if plan is not None:
        if isinstance(plan, dict):
            return FaultPlan.from_dict(plan)
        return plan
    if profile is not None:
        if profile not in PROFILES:
            raise KeyError(
                f"unknown fault profile {profile!r}; "
                f"choose from {sorted(PROFILES)}"
            )
        return PROFILES[profile].with_seed(seed)
    return None


def build_workload(
    name: str,
    plan: Optional[FaultPlan] = None,
    drain_timeout_ns: float = DEFAULT_DRAIN_TIMEOUT_NS,
) -> Tuple[ScenarioRun, System, Optional[FaultInjector]]:
    """Chaos scenario ``name`` on a fresh System under ``plan``, bounded
    by ``drain_timeout_ns``; returns the run, its machine and the
    plan's injector (None without a plan)."""
    system = System()
    system.drain_timeout_ns = drain_timeout_ns
    injector = FaultInjector(plan, system) if plan is not None else None
    built = ScenarioRun(
        system.sim,
        system.probes,
        partial(SCENARIOS[name], system),
        partial(check_invariants, system),
    )
    return built, system, injector


def _build_slot_commute() -> ScenarioRun:
    # Correct protocol on two *independent* slots, every step a fully
    # tracepoint-instrumented callback.  The two publishes tie, and the
    # two services tie; each pair commutes (disjoint slot scopes), so
    # DPOR must prune both swapped schedules as sleep-blocked — the
    # positive pruning case the explorer tests pin down.
    sim, registry, area = slot_rig()
    slots = [area.slot_for(hw_id, 0) for hw_id in (0, 1)]
    requests = [
        SyscallRequest("getrusage", (), False, OsProcess(sim, f"wi{hw_id}"))
        for hw_id in (0, 1)
    ]

    def publish(which: int) -> Callable[[], None]:
        def fire() -> None:
            assert slots[which].try_claim()
            slots[which].populate(requests[which])
            slots[which].set_ready()

        return fire

    def service(which: int) -> Callable[[], None]:
        def fire() -> None:
            if slots[which].state is SlotState.READY:
                slots[which].start_processing()
                slots[which].finish(0)

        return fire

    def driver():
        yield 10
        sim.call_later(5, publish(0))
        sim.call_later(5, publish(1))
        yield 10
        sim.call_later(5, service(0))
        sim.call_later(5, service(1))

    return micro_run(sim, registry, [sim.process(driver(), name="driver")])


MICRO_SCENARIOS: List[Scenario] = [
    Scenario(
        "slot-commute",
        "correct two-slot protocol whose tied steps all commute: the "
        "DPOR positive-pruning case",
        None,
        _build_slot_commute,
    ),
]


def _micro_scenarios() -> List[Scenario]:
    from repro.modelcheck.corpus import CORPUS

    return MICRO_SCENARIOS + CORPUS


def build_scenario(
    name: str,
    profile: Optional[str] = None,
    plan: Union[FaultPlan, dict, None] = None,
    seed: int = 1,
) -> Scenario:
    """Resolve a scenario by name: a chaos workload, a corpus bug, or a
    micro structure scenario."""
    resolved = resolve_plan(profile=profile, plan=plan, seed=seed)
    if name in EXPERIMENTS:
        return Scenario(
            name,
            f"chaos scenario {name!r} on a fresh System"
            + (" under a seeded fault plan" if resolved is not None else ""),
            None,
            lambda: build_workload(name, resolved)[0],
        )
    for scenario in _micro_scenarios():
        if scenario.name == name:
            if resolved is not None:
                raise ValueError(
                    f"scenario {name!r} takes no fault plan: its "
                    f"behaviour is fixed by the scenario body itself"
                )
            return scenario
    raise KeyError(
        f"unknown scenario {name!r}; choose from {', '.join(scenario_names())}"
    )


def scenario_names() -> List[str]:
    return list(EXPERIMENTS) + [scenario.name for scenario in _micro_scenarios()]
