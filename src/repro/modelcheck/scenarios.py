"""What one explored schedule runs: scenario builders and oracles.

A *scenario* is a recipe for one deterministic run of the slot
protocol: build a fresh machine (or micro-fixture), wire a GSan
sanitizer into its probe registry, execute a workload body, and audit
the end state.  The explorer re-builds the scenario once per schedule,
so every branch starts from a virgin machine and the only varying
input is the tie-break choice map.

Three families are registered:

* the chaos workloads (``fig2``, ``grep``, ``memcached``, …) — full
  :class:`~repro.system.System` machines running the same scenario
  bodies the chaos harness uses, optionally under a seeded
  :class:`~repro.faults.plan.FaultPlan` so schedules and fault points
  are explored *jointly*;
* the seeded ordering bugs of :mod:`repro.modelcheck.corpus` — micro
  slot-protocol fixtures whose bug only fires on a reordered schedule;
* micro structure scenarios defined here (``slot-commute``) — correct
  protocol fixtures with a known schedule-space shape, used to pin
  down explorer behaviour (e.g. that DPOR actually prunes commuting
  reorderings of fully-instrumented, disjoint-slot steps).

The oracle for every branch is the union of GSan's verdict, the chaos
invariants (for workload scenarios), per-scenario deadlock checks, and
any model exception the run raised.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Union

from repro.faults.chaos import (
    DEFAULT_DRAIN_TIMEOUT_NS,
    EXPERIMENTS,
    PROFILES,
    check_invariants,
    run_scenario,
)
from repro.faults.plan import FaultPlan, install_plan
from repro.probes.tracepoints import ProbeRegistry
from repro.sanitizers.gsan import GSan
from repro.sim.engine import Process, Simulator

__all__ = [
    "ModelScenario",
    "ScenarioRun",
    "build_scenario",
    "resolve_plan",
    "scenario_names",
]


class ScenarioRun:
    """One built scenario instance, ready to run under a policy."""

    __slots__ = ("sim", "registry", "sanitizer", "_body", "_audit")

    def __init__(
        self,
        sim: Simulator,
        registry: ProbeRegistry,
        sanitizer: GSan,
        body: Callable[[], object],
        audit: Optional[Callable[[], List[str]]] = None,
    ) -> None:
        self.sim = sim
        self.registry = registry
        self.sanitizer = sanitizer
        self._body = body
        self._audit = audit

    def execute(self) -> object:
        """Run the workload body (may raise model errors)."""
        return self._body()

    def audit(self) -> List[str]:
        """Scenario-specific end-state findings beyond GSan's."""
        return self._audit() if self._audit is not None else []


class ModelScenario:
    """A named, repeatable scenario recipe."""

    __slots__ = ("name", "description", "_build")

    def __init__(
        self, name: str, description: str, build: Callable[[], ScenarioRun]
    ) -> None:
        self.name = name
        self.description = description
        self._build = build

    def build(self) -> ScenarioRun:
        """A fresh instance: new machine, new sanitizer, virgin clocks.

        Every machine numbers its own pids, inodes, sockets and kernels,
        so a build is the same world however many ran before it in the
        process, and a certificate's streams replay byte-identically."""
        return self._build()


def deadlock_audit(procs: Sequence[Process]) -> List[str]:
    """The micro-scenario liveness oracle: every spawned process must
    have finished once the heap drained."""
    return [
        f"deadlock: process {proc.name!r} never finished"
        for proc in procs
        if not proc.finished
    ]


def resolve_plan(
    profile: Optional[str] = None,
    plan: Union[FaultPlan, dict, None] = None,
    seed: int = 0,
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


def _build_workload(name: str, plan: Optional[FaultPlan]) -> ScenarioRun:
    from repro.system import System

    system = System()
    system.drain_timeout_ns = DEFAULT_DRAIN_TIMEOUT_NS
    sanitizer = GSan().install(system.probes)
    if plan is not None:
        install_plan(plan, system.probes)

    def body() -> object:
        return run_scenario(name, system)

    def audit() -> List[str]:
        return check_invariants(system)

    return ScenarioRun(system.sim, system.probes, sanitizer, body, audit)


def _workload_scenario(name: str, plan: Optional[FaultPlan]) -> ModelScenario:
    return ModelScenario(
        name,
        f"chaos scenario {name!r} on a fresh System"
        + (" under a seeded fault plan" if plan is not None else ""),
        lambda: _build_workload(name, plan),
    )


def _build_slot_commute() -> ScenarioRun:
    # Correct protocol on two *independent* slots, every step a fully
    # tracepoint-instrumented callback.  The two publishes tie, and the
    # two services tie; each pair commutes (disjoint slot scopes), so
    # DPOR must prune both swapped schedules as sleep-blocked — the
    # positive pruning case the explorer tests pin down.
    from repro.core.invocation import SyscallRequest
    from repro.core.syscall_area import SlotState, SyscallArea
    from repro.machine import small_machine
    from repro.memory.system import MemorySystem
    from repro.oskernel.process import OsProcess

    sim = Simulator()
    config = small_machine()
    registry = ProbeRegistry(sim)
    area = SyscallArea(sim, config, MemorySystem(sim, config), probes=registry)
    sanitizer = GSan().install(registry)
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

    procs = [sim.process(driver(), name="driver")]

    def audit() -> List[str]:
        return deadlock_audit(procs)

    return ScenarioRun(sim, registry, sanitizer, sim.run, audit)


MICRO_SCENARIOS: List[ModelScenario] = [
    ModelScenario(
        "slot-commute",
        "correct two-slot protocol whose tied steps all commute: the "
        "DPOR positive-pruning case",
        _build_slot_commute,
    ),
]


def build_scenario(
    name: str,
    profile: Optional[str] = None,
    plan: Union[FaultPlan, dict, None] = None,
    seed: int = 0,
) -> ModelScenario:
    """Resolve a scenario by name: a chaos workload, a corpus bug, or a
    micro structure scenario."""
    resolved = resolve_plan(profile=profile, plan=plan, seed=seed)
    if name in EXPERIMENTS:
        return _workload_scenario(name, resolved)
    from repro.modelcheck.corpus import ORDERING_BUGS

    micro = list(MICRO_SCENARIOS) + [
        ModelScenario(bug.name, bug.description, bug.build)
        for bug in ORDERING_BUGS
    ]
    for scenario in micro:
        if scenario.name == name:
            if resolved is not None:
                raise ValueError(
                    f"micro scenario {name!r} takes no fault plan: its "
                    f"behaviour is fixed by the scenario body itself"
                )
            return scenario
    raise KeyError(
        f"unknown scenario {name!r}; choose from {', '.join(scenario_names())}"
    )


def scenario_names() -> List[str]:
    from repro.modelcheck.corpus import ORDERING_BUGS

    return (
        list(EXPERIMENTS)
        + [scenario.name for scenario in MICRO_SCENARIOS]
        + [bug.name for bug in ORDERING_BUGS]
    )
