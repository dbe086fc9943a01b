"""The seeded violation corpus: known-bad runs GSan must catch.

A sanitizer that never fires is indistinguishable from one that does
not work.  Each entry here constructs one *specific, deterministic*
protocol or ordering bug — via a ``repro.faults`` plan with the
watchdog disabled (so nothing recovers), via direct slot-protocol
abuse, or via a hand-reordered (replayed) event stream that a live
simulator could never emit — and declares the GSan rule that must
flag it.  ``run_corpus()`` executes every entry and reports which
were detected; the CI step fails if any seeded bug slips through.

The three fault-plan entries mirror the chaos profiles' fault sites
(wedged slots, killed workers, dropped IRQs) with recovery switched
off: the same injections that chaos runs must survive *cleanly* must,
without the watchdog, produce diagnosable violations.
"""

from __future__ import annotations

from typing import Callable, Dict, Generator, List, Optional

from repro.core.invocation import Granularity, WaitMode
from repro.core.syscall_area import Slot, SlotState, SlotStateError, SyscallArea
from repro.faults import FaultInjector, FaultPlan
from repro.machine import small_machine
from repro.memory.system import MemorySystem
from repro.oskernel.process import OsProcess
from repro.oskernel.workqueue import DrainTimeout
from repro.gpu.hierarchy import WorkItemCtx
from repro.probes.tracepoints import ProbeRegistry
from repro.sanitizers.gsan import GSan
from repro.sim.engine import SimulationError, Simulator
from repro.system import System


class CorpusEntry:
    """One seeded bug and the rule that must catch it."""

    __slots__ = ("name", "description", "expected_rule", "_run")

    def __init__(
        self,
        name: str,
        description: str,
        expected_rule: str,
        run: Callable[[], GSan],
    ) -> None:
        self.name = name
        self.description = description
        self.expected_rule = expected_rule
        self._run = run

    def run(self) -> GSan:
        """Execute the entry; returns the (finished) sanitizer."""
        return self._run()


class CorpusResult:
    """Outcome of one corpus entry."""

    __slots__ = ("entry", "sanitizer", "detected")

    def __init__(self, entry: CorpusEntry, sanitizer: GSan) -> None:
        self.entry = entry
        self.sanitizer = sanitizer
        self.detected = entry.expected_rule in sanitizer.rules_hit()

    def render(self) -> str:
        status = "DETECTED" if self.detected else "MISSED"
        lines = [
            f"[{status}] {self.entry.name}: {self.entry.description}",
            f"  expected rule: {self.entry.expected_rule}; "
            f"rules hit: {self.sanitizer.rules_hit() or '{}'}",
        ]
        for violation in self.sanitizer.violations:
            if violation.rule == self.entry.expected_rule:
                lines.append(violation.render())
                break
        return "\n".join(lines)


# -- fault-plan entries (live runs with recovery disabled) -----------------


def _run_faulted(plan: FaultPlan, wait: WaitMode = WaitMode.HALT_RESUME) -> GSan:
    """One blocking getrusage under ``plan`` with the watchdog off.

    The fault wedges the pipeline, so the run ends in a deadlock or a
    bounded-drain timeout — both expected; GSan's end-of-run audit
    then names what was lost.
    """
    system = System(config=small_machine())
    sanitizer = GSan().install(system.probes)
    FaultInjector(plan, system.probes)
    system.drain_timeout_ns = 2_000_000.0

    def kern(ctx: WorkItemCtx) -> Generator:
        yield from ctx.sys.getrusage(
            granularity=Granularity.WORK_ITEM, blocking=True, wait=wait
        )

    try:
        system.run_kernel(kern, 1, 1, name="corpus")
    except (DrainTimeout, SimulationError):
        pass
    sanitizer.finish()
    return sanitizer


def _wedged_slot() -> GSan:
    # The worker wedges the slot in PROCESSING and never finishes it;
    # with no watchdog, the invocation's completion is lost for good.
    return _run_faulted(
        FaultPlan(seed=3, slot_wedge=1.0, watchdog_period_ns=0.0, max_faults=1)
    )


def _killed_worker() -> GSan:
    # The worker dies at pickup holding the scan task; nothing respawns
    # it, so the task (and the syscall riding it) is lost.
    return _run_faulted(
        FaultPlan(seed=5, worker_kill=1.0, watchdog_period_ns=0.0, max_faults=1)
    )


def _dropped_irq() -> GSan:
    # The doorbell is dropped before the top half; no scan is ever
    # enqueued and the halted wavefront sleeps forever.
    return _run_faulted(
        FaultPlan(seed=7, irq_drop=1.0, watchdog_period_ns=0.0, max_faults=1)
    )


# -- direct slot-protocol abuse --------------------------------------------


def _slot_fixture() -> tuple:
    sim = Simulator()
    config = small_machine()
    registry = ProbeRegistry(sim)
    area = SyscallArea(sim, config, MemorySystem(sim, config), probes=registry)
    sanitizer = GSan().install(registry)
    return sim, area, sanitizer


def _drive_to_processing(sim: Simulator, area: SyscallArea) -> Slot:
    from repro.core.invocation import SyscallRequest

    slot = area.slot_for(0, 0)
    assert slot.try_claim()
    slot.populate(SyscallRequest("getrusage", (), True, OsProcess(sim, "p")))
    slot.set_ready()
    slot.start_processing()
    return slot


def _double_finish() -> GSan:
    # A worker completes the same slot twice — the classic double
    # release the paper's cmp-swap protocol exists to prevent.
    sim, area, sanitizer = _slot_fixture()
    slot = _drive_to_processing(sim, area)
    slot.finish(0)
    try:
        slot.finish(0)
    except SlotStateError:
        pass
    sanitizer.finish()
    return sanitizer


def _wrong_agent() -> GSan:
    # The GPU drives the CPU's READY -> PROCESSING edge (Figure 6
    # colours violated): ownership error, not just an ordering error.
    sim, area, sanitizer = _slot_fixture()
    from repro.core.invocation import SyscallRequest

    slot = area.slot_for(0, 0)
    assert slot.try_claim()
    slot.populate(SyscallRequest("getrusage", (), True, OsProcess(sim, "p")))
    slot.set_ready()
    try:
        slot._transition(SlotState.PROCESSING, "gpu", op="start_processing")
    except SlotStateError:
        pass
    sanitizer.finish()
    return sanitizer


# -- replayed (hand-reordered) event streams -------------------------------


def _dispatch_before_submit() -> GSan:
    # A reordered stream in which the CPU reads a slot payload the GPU
    # never published at all — no claim, no submit: the vector-clock
    # acquire check fires even though no per-slot state was ever
    # inconsistent.
    sanitizer = GSan()
    sanitizer.feed("syscall.dispatch", 40.0, "pread", 0, 1)
    sanitizer.feed("syscall.submit", 55.0, "work-item", 1, "pread", 0, True)
    sanitizer.feed("syscall.complete", 90.0, "pread", 0, 35.0, 1, True)
    sanitizer.feed("syscall.resume", 95.0, 1, "pread", 0)
    sanitizer.finish()
    return sanitizer


def _duplicate_completion() -> GSan:
    # Two workers both finish invocation 1: completion must be
    # exactly-once (complete XOR reclaim).
    sanitizer = GSan()
    sanitizer.feed(
        "syscall.claim", 0.0, 1, "pwrite", 2, 0, "work-item", True, "halt_resume"
    )
    sanitizer.feed("syscall.submit", 10.0, "work-item", 1, "pwrite", 2, True)
    sanitizer.feed("syscall.dispatch", 30.0, "pwrite", 2, 1)
    sanitizer.feed("syscall.complete", 60.0, "pwrite", 2, 30.0, 1, True)
    sanitizer.feed("syscall.complete", 61.0, "pwrite", 2, 31.0, 1, True)
    sanitizer.feed("syscall.resume", 70.0, 1, "pwrite", 2)
    sanitizer.finish()
    return sanitizer


def _reuse_before_free() -> GSan:
    # The GPU re-claims a slot that never returned to FREE — reuse of a
    # still-PROCESSING cacheline would corrupt the in-flight request.
    sanitizer = GSan()
    sanitizer.feed("slot.transition", 0.0, 4, "free", "populating", "gpu")
    sanitizer.feed("slot.transition", 8.0, 4, "populating", "ready", "gpu")
    sanitizer.feed("slot.transition", 30.0, 4, "ready", "processing", "cpu")
    sanitizer.feed("slot.transition", 42.0, 4, "free", "populating", "gpu")
    sanitizer.finish()
    return sanitizer


def _double_dequeue() -> GSan:
    # Two workers pick up the same task with no watchdog requeue in
    # between — the epoch protocol's exactly-once guarantee broken.
    sanitizer = GSan()
    sanitizer.feed("wq.enqueue", 0.0, 1, 0)
    sanitizer.feed("wq.dequeue", 5.0, 0, 0)
    sanitizer.feed("wq.dequeue", 6.0, 1, 0)
    sanitizer.feed("wq.complete", 20.0, 0, 15.0, 0)
    sanitizer.finish()
    return sanitizer


def _forfeit_without_requeue() -> GSan:
    # A worker forfeits a task whose epoch was never bumped: with no
    # superseding requeue, forfeiting loses the task.
    sanitizer = GSan()
    sanitizer.feed("wq.enqueue", 0.0, 1, 3)
    sanitizer.feed("wq.dequeue", 5.0, 0, 3)
    sanitizer.feed("recover.forfeit", 9.0, 3, 0)
    sanitizer.finish()
    return sanitizer


ENTRIES: List[CorpusEntry] = [
    CorpusEntry(
        "wedged-slot",
        "slot_wedge fault, watchdog off: the invocation's completion is lost",
        "lost-completion",
        _wedged_slot,
    ),
    CorpusEntry(
        "wedged-slot-leak",
        "same wedge, end-of-run audit: the slot never returns to FREE",
        "slot-leak",
        _wedged_slot,
    ),
    CorpusEntry(
        "killed-worker",
        "worker_kill fault, watchdog off: the picked-up scan task is lost",
        "task-lost",
        _killed_worker,
    ),
    CorpusEntry(
        "dropped-irq",
        "irq_drop fault, watchdog off: the halted wavefront never wakes",
        "lost-wakeup",
        _dropped_irq,
    ),
    CorpusEntry(
        "double-finish",
        "a worker finishes the same slot twice (double release)",
        "protocol-error",
        _double_finish,
    ),
    CorpusEntry(
        "wrong-agent",
        "the GPU drives the CPU-owned READY -> PROCESSING edge",
        "wrong-agent",
        _wrong_agent,
    ),
    CorpusEntry(
        "dispatch-before-submit",
        "replayed stream: CPU reads the payload before READY is published",
        "acquire-before-release",
        _dispatch_before_submit,
    ),
    CorpusEntry(
        "duplicate-completion",
        "replayed stream: the same invocation completes twice",
        "duplicate-completion",
        _duplicate_completion,
    ),
    CorpusEntry(
        "reuse-before-free",
        "replayed stream: GPU re-claims a slot still in PROCESSING",
        "slot-state",
        _reuse_before_free,
    ),
    CorpusEntry(
        "double-dequeue",
        "replayed stream: two pickups of one task without a requeue",
        "wq-lifecycle",
        _double_dequeue,
    ),
    CorpusEntry(
        "forfeit-without-requeue",
        "replayed stream: a forfeit with no superseding epoch bump",
        "wq-lifecycle",
        _forfeit_without_requeue,
    ),
]


def run_corpus(names: Optional[List[str]] = None) -> List[CorpusResult]:
    """Run every (or the named) corpus entries; returns their results."""
    selected = ENTRIES if names is None else [
        entry for entry in ENTRIES if entry.name in names
    ]
    return [CorpusResult(entry, entry.run()) for entry in selected]


def distinct_rules() -> Dict[str, int]:
    """How many entries target each rule (the issue demands >= 6)."""
    counts: Dict[str, int] = {}
    for entry in ENTRIES:
        counts[entry.expected_rule] = counts.get(entry.expected_rule, 0) + 1
    return dict(sorted(counts.items()))
