"""The explorer: guided runs, DPOR branching, farmed frontiers.

Stateless model checking in the Verisoft/CHESS style: each explored
schedule is one *fresh, fully deterministic* run of a scenario, guided
by a sparse choice map (``{decision -> rank}``; absent decisions take
the FIFO entry).  The explorer runs the root (pure-FIFO) schedule,
reads the decisions it recorded, and branches: for each contested pop
within the depth bound and each alternative within the preemption
bound, a child schedule prefixed with that one extra choice.  Children
re-run from scratch — no simulator state is ever forked — so the whole
frontier shards over :func:`repro.runfarm.run_frontier` worker
processes, and the set of schedules visited is a pure function of the
scenario and bounds, independent of the worker count.

Pruning (DPOR with sleep sets)
------------------------------
A child that merely swaps two *commuting* steps reaches the same state
the parent already covered.  When branching away from a decision, the
parent's chosen entry is put to sleep in the child, tagged with the
footprint it had when the parent executed it (the GSan scope set, see
:mod:`repro.modelcheck.schedule`).  Inside the child, the sleeping
entry wakes as soon as any dependent step runs — the interleavings
genuinely differ, keep exploring — but if the run reaches the sleeping
entry still asleep, every step between the branch and here commuted
with it, the run is a permutation of an explored one, and it aborts as
:class:`~repro.modelcheck.schedule.SleepBlocked` (counted as pruned,
oracle skipped).  An alternative already asleep at its decision is not
branched to at all.  Unknown footprints degrade to "dependent with
everything", so imprecision costs pruning, never coverage; the
equivalence tests assert DPOR finds the same violations as exhaustive
exploration with strictly fewer runs.

Every schedule is judged by the one checked-run cell
(:func:`~repro.modelcheck.scenarios.run_cell`): the body's exception
(``liveness:``, ``safety:`` or ``crash:``), GSan's verdict and the
scenario audit (chaos invariants / deadlock checks), the same oracle a
chaos cell and a corpus entry get.  A choice map that does not fit its
run (a rank out of range, or a decision the run never reaches) raises
:class:`~repro.modelcheck.schedule.ScheduleError`.

A run records only the decisions its caller reads: ``explore`` the
first ``max_depth``, the ones it may branch on.  Past its last guided
choice and its last record, with an empty sleep set, the policy steps
aside and the run finishes on the engine's own pop path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

from repro.faults.plan import FaultPlan
from repro.modelcheck.schedule import (
    EffectCollector,
    GuidedTieBreak,
    effects_from_wire,
)
from repro.modelcheck.scenarios import build_scenario, run_cell
from repro.runfarm import run_frontier

__all__ = ["Bounds", "ExploreReport", "explore", "run_schedule"]

#: A schedule's identity: the densified choice map as a sorted tuple.
Choices = Tuple[Tuple[int, int], ...]

#: Wire form of a sleep set: ``(seq, footprint)`` pairs, footprint
#: ``None`` (unknown) or a sorted scope tuple.
SleepWire = Tuple[Tuple[int, Optional[Tuple[str, ...]]], ...]


@dataclass(frozen=True)
class Bounds:
    """Exploration bounds: how much of the schedule space to walk.

    ``max_depth`` bounds *which* decisions may branch (the first N
    contested pops); ``max_preemptions`` bounds how many non-FIFO
    choices one schedule may stack; ``max_schedules`` bounds the total
    runs (budget truncation is deterministic: waves are sorted before
    the cut).  ``dpor=False`` disables sleep sets — exhaustive within
    the bounds — for the equivalence tests.
    """

    max_schedules: int = 256
    max_depth: int = 12
    max_preemptions: int = 4
    dpor: bool = True


@dataclass
class ExploreReport:
    """What one exploration covered and what it found."""

    scenario: str
    schedules: int
    blocked: int
    pruned: int
    truncated: bool
    violating: List[dict]
    visited: List[Choices] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violating

    def as_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "schedules": self.schedules,
            "blocked": self.blocked,
            "pruned": self.pruned,
            "truncated": self.truncated,
            "ok": self.ok,
            "violating": [dict(v) for v in self.violating],
        }


def run_schedule(
    scenario: str,
    choices: Union[Choices, Sequence[Sequence[int]]],
    sleep: Optional[SleepWire] = None,
    profile: Optional[str] = None,
    plan: Union[FaultPlan, dict, None] = None,
    seed: int = 1,
    record_limit: int = 64,
) -> dict:
    """One guided run of ``scenario``; returns a plain (picklable) dict.

    The result carries the cell's verdict (``violations``, ``rules``,
    ``ok``) and the first ``record_limit`` ``decisions``, which the
    explorer branches on.  ``blocked`` runs were pruned by a sleep set:
    their oracle is skipped (the schedule is redundant, not buggy).
    """
    built = build_scenario(scenario, profile=profile, plan=plan, seed=seed).build()
    collector = EffectCollector().install(built.registry)
    choice_map = {int(d): int(r) for d, r in choices}
    sleep_map = {int(seq): effects_from_wire(wire) for seq, wire in (sleep or ())}
    policy = GuidedTieBreak(
        choices=choice_map,
        sleep=sleep_map,
        # A sleep set is inherited at the newest branch point — the
        # largest guided decision — and dormant through the shared prefix.
        sleep_from=max(choice_map) if sleep_map and choice_map else None,
        collector=collector,
        record_limit=record_limit,
    )
    verdict = run_cell(built, tie_break=policy)
    policy.finalize(blocked=verdict.blocked)
    return {
        "choices": tuple((int(d), int(r)) for d, r in choices),
        "blocked": verdict.blocked,
        "ok": verdict.ok,
        "violations": verdict.violations,
        "rules": verdict.rules,
        "events": verdict.sanitizer.events,
        "decisions": [
            {
                "index": decision.index,
                "chosen": decision.chosen,
                "blocked": decision.blocked,
                "effect": None
                if decision.effect is None
                else tuple(sorted(decision.effect)),
                "candidates": [
                    (candidate.rank, candidate.seq, candidate.label)
                    for candidate in decision.candidates
                ],
                "sleep_at": tuple(
                    (seq, None if eff is None else tuple(sorted(eff)))
                    for seq, eff in sorted(decision.sleep_at.items())
                ),
            }
            for decision in policy.decisions
        ],
    }


# -- frontier plumbing ------------------------------------------------------
#
# Items must be picklable (they cross the runfarm process boundary) and
# keyed purely by the choice map, so the visited set is worker-count
# independent: item = (choices, sleep_wire, spec_dict).


def _item_key(item: tuple) -> tuple:
    return item[0]


def _explore_cell(item: tuple) -> dict:
    choices, sleep, spec = item
    return run_schedule(
        spec["scenario"],
        choices,
        sleep=sleep,
        profile=spec["profile"],
        plan=spec["plan"],
        seed=spec["seed"],
        record_limit=spec["record_limit"],
    )


def explore(
    scenario: str,
    profile: Optional[str] = None,
    plan: Union[FaultPlan, dict, None] = None,
    seed: int = 1,
    bounds: Bounds = Bounds(),
    workers: int = 1,
) -> ExploreReport:
    """Walk the schedule space of ``scenario`` within ``bounds``."""
    if isinstance(plan, FaultPlan):
        plan = plan.as_dict()
    spec = {
        "scenario": scenario,
        "profile": profile,
        "plan": plan,
        "seed": seed,
        "record_limit": bounds.max_depth,
    }
    pruned_children = [0]

    def expand(item: tuple, result: dict) -> List[tuple]:
        choices = item[0]
        if len(choices) >= bounds.max_preemptions:
            return []
        guided_max = max((index for index, _rank in choices), default=-1)
        children: List[tuple] = []
        for record in result["decisions"]:
            index = record["index"]
            if index <= guided_max:
                continue  # an ancestor already branched here
            sleep_at = {
                seq: wire for seq, wire in record["sleep_at"]
            }
            chosen_seq = record["candidates"][record["chosen"]][1]
            for rank, seq, _label in record["candidates"]:
                if rank == record["chosen"]:
                    continue
                if bounds.dpor and seq in sleep_at:
                    pruned_children[0] += 1
                    continue
                if bounds.dpor:
                    entries = dict(sleep_at)
                    if not record["blocked"]:
                        entries[chosen_seq] = record["effect"]
                    child_sleep: SleepWire = tuple(
                        (s, None if e is None else tuple(e))
                        for s, e in sorted(entries.items())
                    )
                else:
                    child_sleep = ()
                child_choices = tuple(sorted(choices + ((index, rank),)))
                children.append((child_choices, child_sleep, spec))
        return children

    results, truncated = run_frontier(
        [((), (), spec)],
        _explore_cell,
        expand,
        workers=workers,
        max_items=bounds.max_schedules,
        key=_item_key,
    )
    violating = [
        {
            "choices": list(item[0]),
            "rules": result["rules"],
            "violations": result["violations"],
        }
        for item, result in results
        if not result["blocked"] and not result["ok"]
    ]
    blocked_runs = sum(1 for _item, result in results if result["blocked"])
    return ExploreReport(
        scenario=scenario,
        schedules=len(results),
        blocked=blocked_runs,
        pruned=pruned_children[0] + blocked_runs,
        truncated=truncated,
        violating=violating,
        visited=[item[0] for item, _result in results],
    )
