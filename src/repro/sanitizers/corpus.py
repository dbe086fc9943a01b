"""The seeded violation corpus: known-bad runs GSan must catch.

A sanitizer that never fires is indistinguishable from one that does
not work.  Each entry here builds one *specific, deterministic*
protocol or ordering bug — via a ``repro.faults`` plan with the
watchdog disabled (so nothing recovers), via direct slot-protocol
abuse, or via a hand-reordered (replayed) event stream that a live
simulator could never emit, fired through an idle machine's
tracepoints — and declares the GSan rule that must flag it.  An entry
is a :class:`~repro.modelcheck.scenarios.Scenario` whose builder
installs no sanitizer: ``run_corpus()`` judges every entry in the one
checked-run cell (:func:`~repro.modelcheck.scenarios.run_cell`) and
reports which were detected; the CI step fails if any seeded bug
slips through.

The three fault-plan entries mirror the chaos profiles' fault sites
(wedged slots, killed workers, dropped IRQs) with recovery switched
off: the same injections that chaos runs must survive *cleanly* must,
without the watchdog, produce diagnosable violations.
"""

from __future__ import annotations

from collections import Counter
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core.invocation import Granularity, SyscallRequest, WaitMode
from repro.core.syscall_area import Slot, SlotState
from repro.faults import FaultInjector, FaultPlan
from repro.gpu.hierarchy import WorkItemCtx
from repro.machine import small_machine
from repro.modelcheck.scenarios import Scenario, ScenarioRun, Verdict, run_cell, slot_rig
from repro.oskernel.process import OsProcess
from repro.system import System


class CorpusResult:
    """Outcome of one corpus entry."""

    __slots__ = ("entry", "verdict", "detected")

    def __init__(self, entry: Scenario, verdict: Verdict) -> None:
        self.entry = entry
        self.verdict = verdict
        self.detected = entry.expected_rule in verdict.rules

    def render(self) -> str:
        status = "DETECTED" if self.detected else "MISSED"
        lines = [
            f"[{status}] {self.entry.name}: {self.entry.description}",
            f"  expected rule: {self.entry.expected_rule}; "
            f"rules hit: {self.verdict.rules or '{}'}",
        ]
        for violation in self.verdict.sanitizer.violations:
            if violation.rule == self.entry.expected_rule:
                lines.append(violation.render())
                break
        return "\n".join(lines)


# -- fault-plan entries (live runs with recovery disabled) -----------------


def _faulted(plan: FaultPlan) -> ScenarioRun:
    """One blocking getrusage under ``plan`` with the watchdog off.

    The fault wedges the pipeline, so the run ends in a deadlock or a
    bounded-drain timeout — both expected; GSan's end-of-run audit
    then names what was lost.
    """
    system = System(config=small_machine())
    FaultInjector(plan, system)
    system.drain_timeout_ns = 2_000_000.0

    def kern(ctx: WorkItemCtx) -> Generator:
        yield from ctx.sys.getrusage(
            granularity=Granularity.WORK_ITEM, blocking=True, wait=WaitMode.HALT_RESUME
        )

    body = partial(system.run_kernel, kern, 1, 1, name="corpus")
    return ScenarioRun(system.sim, system.probes, body)


def _wedged_slot() -> ScenarioRun:
    # The worker wedges the slot in PROCESSING and never finishes it;
    # with no watchdog, the invocation's completion is lost for good.
    return _faulted(
        FaultPlan(seed=3, slot_wedge=1.0, watchdog_period_ns=0.0, max_faults=1)
    )


def _killed_worker() -> ScenarioRun:
    # The worker dies at pickup holding the scan task; nothing respawns
    # it, so the task (and the syscall riding it) is lost.
    return _faulted(
        FaultPlan(seed=5, worker_kill=1.0, watchdog_period_ns=0.0, max_faults=1)
    )


def _dropped_irq() -> ScenarioRun:
    # The doorbell is dropped before the top half; no scan is ever
    # enqueued and the halted wavefront sleeps forever.
    return _faulted(
        FaultPlan(seed=7, irq_drop=1.0, watchdog_period_ns=0.0, max_faults=1)
    )


# -- direct slot-protocol abuse --------------------------------------------


def _abuse_slot(abuse: Callable[[Slot], None]) -> ScenarioRun:
    """Claim and publish one slot on the bare rig, then run ``abuse`` on
    it; the slot protocol may refuse the abuse."""
    sim, registry, area = slot_rig()

    def body() -> None:
        slot = area.slot_for(0, 0)
        assert slot.try_claim()
        slot.populate(SyscallRequest("getrusage", (), True, OsProcess(sim, "p")))
        slot.set_ready()
        abuse(slot)

    return ScenarioRun(sim, registry, body)


def _finish_twice(slot: Slot) -> None:
    # A worker completes the same slot twice — the classic double
    # release the paper's cmp-swap protocol exists to prevent.
    slot.start_processing()
    slot.finish(0)
    slot.finish(0)


def _gpu_starts_processing(slot: Slot) -> None:
    # The GPU drives the CPU's READY -> PROCESSING edge (Figure 6
    # colours violated): ownership error, not just an ordering error.
    slot._transition(SlotState.PROCESSING, "gpu", op="start_processing")


# -- replayed (hand-reordered) event streams -------------------------------


def _replay(events: Tuple[Tuple[Any, ...], ...]) -> ScenarioRun:
    """Fire a hand-reordered event stream, each event at its own
    timestamp, through the tracepoints of an idle machine."""
    system = System(config=small_machine())
    for name, t, *values in events:
        tracepoint = system.probes.tracepoints[name]
        system.sim.call_at(t, partial(tracepoint.fire, *values))
    return ScenarioRun(system.sim, system.probes, system.sim.run)


# A reordered stream in which the CPU reads a slot payload the GPU
# never published at all — no claim, no submit: the vector-clock
# acquire check fires even though no per-slot state was ever
# inconsistent.
_DISPATCH_BEFORE_SUBMIT = (
    ("syscall.dispatch", 40.0, "pread", 0, 1),
    ("syscall.submit", 55.0, "work-item", 1, "pread", 0, True),
    ("syscall.complete", 90.0, "pread", 0, 35.0, 1, True),
    ("syscall.resume", 95.0, 1, "pread", 0),
)

# Two workers both finish invocation 1: completion must be
# exactly-once (complete XOR reclaim).
_DUPLICATE_COMPLETION = (
    ("syscall.claim", 0.0, 1, "pwrite", 2, 0, "work-item", True, "halt_resume"),
    ("syscall.submit", 10.0, "work-item", 1, "pwrite", 2, True),
    ("syscall.dispatch", 30.0, "pwrite", 2, 1),
    ("syscall.complete", 60.0, "pwrite", 2, 30.0, 1, True),
    ("syscall.complete", 61.0, "pwrite", 2, 31.0, 1, True),
    ("syscall.resume", 70.0, 1, "pwrite", 2),
)

# The GPU re-claims a slot that never returned to FREE — reuse of a
# still-PROCESSING cacheline would corrupt the in-flight request.
_REUSE_BEFORE_FREE = (
    ("slot.transition", 0.0, 4, "free", "populating", "gpu"),
    ("slot.transition", 8.0, 4, "populating", "ready", "gpu"),
    ("slot.transition", 30.0, 4, "ready", "processing", "cpu"),
    ("slot.transition", 42.0, 4, "free", "populating", "gpu"),
)

# Two workers pick up the same task with no watchdog requeue in
# between — the epoch protocol's exactly-once guarantee broken.
_DOUBLE_DEQUEUE = (
    ("wq.enqueue", 0.0, 1, 0),
    ("wq.dequeue", 5.0, 0, 0),
    ("wq.dequeue", 6.0, 1, 0),
    ("wq.complete", 20.0, 0, 15.0, 0),
)

# A worker forfeits a task whose epoch was never bumped: with no
# superseding requeue, forfeiting loses the task.
_FORFEIT_WITHOUT_REQUEUE = (
    ("wq.enqueue", 0.0, 1, 3),
    ("wq.dequeue", 5.0, 0, 3),
    ("recover.forfeit", 9.0, 3, 0),
)


ENTRIES: List[Scenario] = [
    Scenario(
        "wedged-slot",
        "slot_wedge fault, watchdog off: the invocation's completion is lost",
        "lost-completion",
        _wedged_slot,
    ),
    Scenario(
        "wedged-slot-leak",
        "same wedge, end-of-run audit: the slot never returns to FREE",
        "slot-leak",
        _wedged_slot,
    ),
    Scenario(
        "killed-worker",
        "worker_kill fault, watchdog off: the picked-up scan task is lost",
        "task-lost",
        _killed_worker,
    ),
    Scenario(
        "dropped-irq",
        "irq_drop fault, watchdog off: the halted wavefront never wakes",
        "lost-wakeup",
        _dropped_irq,
    ),
    Scenario(
        "double-finish",
        "a worker finishes the same slot twice (double release)",
        "protocol-error",
        partial(_abuse_slot, _finish_twice),
    ),
    Scenario(
        "wrong-agent",
        "the GPU drives the CPU-owned READY -> PROCESSING edge",
        "wrong-agent",
        partial(_abuse_slot, _gpu_starts_processing),
    ),
    Scenario(
        "dispatch-before-submit",
        "replayed stream: CPU reads the payload before READY is published",
        "acquire-before-release",
        partial(_replay, _DISPATCH_BEFORE_SUBMIT),
    ),
    Scenario(
        "duplicate-completion",
        "replayed stream: the same invocation completes twice",
        "duplicate-completion",
        partial(_replay, _DUPLICATE_COMPLETION),
    ),
    Scenario(
        "reuse-before-free",
        "replayed stream: GPU re-claims a slot still in PROCESSING",
        "slot-state",
        partial(_replay, _REUSE_BEFORE_FREE),
    ),
    Scenario(
        "double-dequeue",
        "replayed stream: two pickups of one task without a requeue",
        "wq-lifecycle",
        partial(_replay, _DOUBLE_DEQUEUE),
    ),
    Scenario(
        "forfeit-without-requeue",
        "replayed stream: a forfeit with no superseding epoch bump",
        "wq-lifecycle",
        partial(_replay, _FORFEIT_WITHOUT_REQUEUE),
    ),
]


def run_corpus(names: Optional[List[str]] = None) -> List[CorpusResult]:
    """Run every (or the named) corpus entries; returns their results."""
    selected = ENTRIES if names is None else [
        entry for entry in ENTRIES if entry.name in names
    ]
    return [CorpusResult(entry, run_cell(entry.build())) for entry in selected]


def distinct_rules() -> Dict[str, int]:
    """How many entries target each rule (the corpus keeps at least 6)."""
    counts = Counter(entry.expected_rule for entry in ENTRIES if entry.expected_rule)
    return dict(sorted(counts.items()))
