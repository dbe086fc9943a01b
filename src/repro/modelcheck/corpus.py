"""The seeded-bug corpus: known-bad runs the checked-run cell must catch.

A sanitizer that never fires is indistinguishable from one that does
not work.  Each row of :data:`CORPUS` is a
:class:`~repro.modelcheck.scenarios.Scenario` that builds one
*specific, deterministic* break of the Figure-6 slot protocol and
names the GSan rule that must flag it.  :func:`check_bug` judges a row
and :func:`~repro.modelcheck.certificate.certify` records each find as
a replayable certificate; ``python -m repro corpus`` runs every row,
and ``python -m repro replay`` re-runs any certificate it wrote.

Two kinds of bug share the table:

* **visible** bugs show on *the* schedule a deterministic run produces,
  so the FIFO schedule must hit the rule and the certificate's choice
  map is empty.  They are built three ways: a ``repro.faults`` plan
  with the watchdog off (wedged slots, killed workers, dropped IRQs:
  the injections chaos runs must survive *cleanly* must, without
  recovery, produce diagnosable violations), direct slot-protocol
  abuse, and hand-reordered event streams a live simulator could
  never emit, fired through an idle machine's tracepoints;
* **ordering** bugs (``ordering=True``, :data:`ORDERING_BUGS`) are
  invisible on FIFO — GSan watches the whole run and reports a clean
  bill — and fire only when two same-timestamp events are taken in
  the other order.  FIFO must be clean, ``explore`` must find the
  rule, and the find shrinks to a one-choice certificate.  They are
  the classic weak-memory/interrupt races of the paper's protocol as
  *scheduling* races between same-timestamp callbacks (the
  discrete-event analogue of an unfenced store pair):

  * ``ready-publish-race`` — the READY publish is issued concurrently
    with the payload write instead of after it (a missing release
    fence): reordered, the CPU-visible READY precedes the request.
  * ``lost-doorbell`` — doorbell coalescing tests the scan-live flag
    without re-checking after the scan's clearing store: reordered, a
    publish lands in the window and its wakeup is swallowed.
  * ``watchdog-finish-race`` — a worker publishes its completion
    before the slot-state swap and finishes without the stale-finish
    guard: reordered against the watchdog's staleness check, the
    invocation completes twice.

No builder installs a sanitizer: the one checked-run cell
(:func:`~repro.modelcheck.scenarios.run_cell`) does, for every run.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Generator, List, Tuple

from repro.core.invocation import Granularity, SyscallRequest, WaitMode
from repro.core.syscall_area import Slot, SlotState
from repro.faults import FaultInjector, FaultPlan
from repro.gpu.hierarchy import WorkItemCtx
from repro.machine import small_machine
from repro.modelcheck.certificate import certify
from repro.modelcheck.explore import Bounds, explore, run_schedule
from repro.modelcheck.scenarios import Scenario, ScenarioRun, micro_run, slot_rig
from repro.oskernel.process import OsProcess
from repro.system import System

__all__ = ["CORPUS", "ORDERING_BUGS", "check_bug", "check_corpus"]


# -- visible bugs: fault runs with recovery off ------------------------------


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


# -- visible bugs: direct slot-protocol abuse --------------------------------


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


# -- visible bugs: replayed (hand-reordered) event streams -------------------


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


# -- ordering bugs: clean on FIFO, found by exploration ----------------------


def _build_ready_publish_race() -> ScenarioRun:
    # The GPU lane claims a slot, then issues the payload write and the
    # READY publish as two independently scheduled stores (both land at
    # t=15) instead of ordering the publish after the write — the
    # missing release fence.  FIFO happens to run them write-first.
    sim, registry, area = slot_rig()
    slot = area.slot_for(0, 0)
    request = SyscallRequest("getrusage", (), False, OsProcess(sim, "wi0"))

    def gpu():
        yield 10
        assert slot.try_claim()
        sim.call_later(5, lambda: slot.populate(request))
        sim.call_later(5, slot.set_ready)

    def cpu_scan():
        yield 20
        if slot.state is SlotState.READY:
            slot.start_processing()
            slot.finish(0)

    procs = [
        sim.process(gpu(), name="gpu-lane"),
        sim.process(cpu_scan(), name="cpu-scan"),
    ]
    return micro_run(sim, registry, procs)


def _build_lost_doorbell() -> ScenarioRun:
    # Doorbell coalescing: a ring while a scan is live is dropped on
    # the assumption the live scan will see the new slot.  The scan
    # clears its live flag with a *scheduled* store, so a ring that
    # ties with the clearing store races it — reordered, the ring sees
    # the flag still up, coalesces, and nobody ever scans the slot.
    sim, registry, area = slot_rig()
    tp_halt = registry.tracepoint(
        "wavefront.halt",
        ("hw_id", "live_lanes"),
        "a wavefront parked awaiting its syscall completion",
    )
    tp_resume = registry.tracepoint(
        "wavefront.resume",
        ("hw_id", "halted_ns"),
        "a parked wavefront woke up",
    )
    scan_live = [False]

    def clear() -> None:
        scan_live[0] = False

    def sweep() -> None:
        scan_live[0] = True
        for slot in area.materialized():
            if slot.state is SlotState.READY:
                slot.start_processing()
                slot.finish(0)
        sim.call_later(6, clear)

    def ring() -> None:
        # BUG: no re-check after the clearing store; a publish that
        # landed after the sweep's pass is silently coalesced away.
        if scan_live[0]:
            return
        sim.call_later(2, sweep)

    def wavefront(hw_id: int, start: float):
        def body():
            yield start
            slot = area.slot_for(hw_id, 0)
            assert slot.try_claim()
            slot.populate(
                SyscallRequest("getrusage", (), True, OsProcess(sim, f"wf{hw_id}"))
            )
            slot.set_ready()
            halted_at = sim.now
            if tp_halt.enabled:
                tp_halt.fire(hw_id, 1)
            sim.call_later(2, ring)
            yield slot.completion
            if tp_resume.enabled:
                tp_resume.fire(hw_id, sim.now - halted_at)
            slot.consume()

        return body()

    procs = [
        sim.process(wavefront(0, 10), name="wf0"),
        sim.process(wavefront(1, 18), name="wf1"),
    ]
    return micro_run(sim, registry, procs)


def _build_watchdog_finish_race() -> ScenarioRun:
    # The worker publishes ``syscall.complete`` *before* the slot-state
    # swap and finishes without the stale-finish guard (no ``expected``
    # request).  The watchdog's staleness check ties with the worker's
    # resume: reordered, the watchdog reclaims the slot first and the
    # worker's completion lands on top — a double completion the guard
    # exists to refuse.
    sim, registry, area = slot_rig()
    tp_claim = registry.tracepoint(
        "syscall.claim",
        ("invocation_id", "name", "hw_id", "lane", "granularity", "blocking", "wait"),
        "a lane claimed a slot for an invocation",
    )
    tp_submit = registry.tracepoint(
        "syscall.submit",
        ("granularity", "invocation_id", "name", "hw_id", "blocking"),
        "an invocation's READY publish was accounted",
    )
    tp_dispatch = registry.tracepoint(
        "syscall.dispatch",
        ("name", "hw_id", "invocation_id"),
        "a CPU worker started executing an invocation",
    )
    tp_complete = registry.tracepoint(
        "syscall.complete",
        ("name", "hw_id", "service_ns", "invocation_id", "blocking"),
        "a CPU worker published an invocation's completion",
    )
    tp_resume = registry.tracepoint(
        "syscall.resume",
        ("invocation_id", "name", "hw_id"),
        "a blocked caller resumed after its completion",
    )
    tp_reclaim = registry.tracepoint(
        "recover.slot_reclaim",
        ("invocation_id", "name", "slot_index", "was_state"),
        "the watchdog forced a stuck slot to completion",
    )
    slot = area.slot_for(0, 0)
    dispatched_at = [0.0]

    def gpu():
        yield 10
        assert slot.try_claim()
        slot.populate(SyscallRequest("getrusage", (), True, OsProcess(sim, "wf0")))
        if tp_claim.enabled:
            tp_claim.fire(1, "getrusage", 0, 0, "work-item", True, "halt_resume")
        slot.set_ready()
        if tp_submit.enabled:
            tp_submit.fire("work-item", 1, "getrusage", 0, True)
        yield slot.completion
        if tp_resume.enabled:
            tp_resume.fire(1, "getrusage", 0)
        slot.consume()

    def worker():
        yield 20
        slot.start_processing()
        dispatched_at[0] = sim.now
        if tp_dispatch.enabled:
            tp_dispatch.fire("getrusage", 0, 1)
        yield 10
        # BUG: completion published before the state swap, and the
        # finish carries no expected-request guard to refuse going
        # stale — the two halves of the defended race both removed.
        if tp_complete.enabled:
            tp_complete.fire("getrusage", 0, sim.now - dispatched_at[0], 1, True)
        slot.finish(0)

    def check() -> None:
        if slot.state is SlotState.PROCESSING:
            if tp_reclaim.enabled:
                tp_reclaim.fire(1, "getrusage", slot.index, slot.state.value)
            slot.reclaim(-110)

    def watchdog():
        yield 25
        sim.call_later(5, check)

    procs = [
        sim.process(gpu(), name="gpu-lane"),
        sim.process(worker(), name="cpu-worker"),
        sim.process(watchdog(), name="watchdog"),
    ]
    return micro_run(sim, registry, procs)


CORPUS: List[Scenario] = [
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
    Scenario(
        "ready-publish-race",
        "READY publish scheduled concurrently with the payload write "
        "(missing release fence): reordered, READY precedes the request",
        "protocol-error",
        _build_ready_publish_race,
        ordering=True,
    ),
    Scenario(
        "lost-doorbell",
        "doorbell coalescing without a re-check after the scan-live "
        "clearing store: a publish in the window loses its wakeup",
        "lost-wakeup",
        _build_lost_doorbell,
        ordering=True,
    ),
    Scenario(
        "watchdog-finish-race",
        "completion published before the state swap with the stale-finish "
        "guard removed: racing the watchdog completes the invocation twice",
        "duplicate-completion",
        _build_watchdog_finish_race,
        ordering=True,
    ),
]

ORDERING_BUGS: List[Scenario] = [bug for bug in CORPUS if bug.ordering]


def check_bug(bug: Scenario) -> dict:
    """Judge one seeded bug; returns its corpus row.

    The FIFO schedule runs first.  A visible bug must hit
    ``expected_rule`` there; an ordering bug must be clean there, and
    ``explore`` must find the rule.  The find is certified
    (:func:`~repro.modelcheck.certificate.certify`), and its replay
    must hit the rule too.
    """
    assert bug.expected_rule is not None, f"{bug.name} names no rule"
    fifo = run_schedule(bug.name, (), record_limit=0)
    row = {
        "bug": bug.name,
        "expected_rule": bug.expected_rule,
        "ordering": bug.ordering,
        "fifo_clean": fifo["ok"],
        "rules_hit": fifo["rules"],
        "schedules": 1,
        "pruned": 0,
    }
    if bug.ordering:
        report = explore(bug.name, bounds=Bounds(max_schedules=256))
        row["schedules"], row["pruned"] = report.schedules, report.pruned
        hits = [
            finding["choices"]
            for finding in report.violating
            if bug.expected_rule in finding["rules"]
        ]
    else:
        hits = [[]] if bug.expected_rule in fifo["rules"] else []
    row.update(found=bool(hits), shrink_attempts=0, replay_hits_rule=False,
               certificate=None)
    if hits:
        cert, row["shrink_attempts"] = certify(bug.name, hits[0], {bug.expected_rule})
        row["replay_hits_rule"] = bug.expected_rule in cert["rules"]
        row["certificate"] = cert
    row["ok"] = row["replay_hits_rule"] and (row["fifo_clean"] or not bug.ordering)
    return row


def check_corpus() -> List[dict]:
    """The CI gate body: :func:`check_bug` over every seeded bug."""
    return [check_bug(bug) for bug in CORPUS]
