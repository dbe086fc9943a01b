"""Seeded ordering bugs that single-schedule GSan provably misses.

The GSan corpus (:mod:`repro.sanitizers.corpus`) seeds bugs that are
visible on *the* schedule a deterministic run produces.  This corpus
seeds the complementary class: bugs that are invisible on the FIFO
schedule — the sanitizer attaches, watches the whole run, and reports
a clean bill — and only fire when two same-timestamp events are taken
in the other order.  Each entry is therefore a proof obligation in two
halves, asserted by ``tests/test_modelcheck_corpus.py`` and the CI
corpus gate:

* ``run_schedule(bug, choices=())`` — the FIFO schedule — is clean;
* ``explore(bug)`` finds a schedule on which GSan flags
  ``expected_rule``, and shrinking yields a minimal replayable
  certificate.

The bugs are the classic weak-memory/interrupt races of the paper's
protocol, expressed as *scheduling* races between same-timestamp
callbacks (the discrete-event analogue of an unfenced store pair):

* ``ready-publish-race`` — the READY publish is issued concurrently
  with the payload write instead of after it (a missing release
  fence): reordered, the CPU-visible READY precedes the request.
* ``lost-doorbell`` — doorbell coalescing tests the scan-live flag
  without re-checking after the scan's clearing store: reordered, a
  publish lands in the window and its wakeup is swallowed.
* ``watchdog-finish-race`` — a worker publishes its completion before
  the slot-state swap and finishes without the stale-finish guard:
  reordered against the watchdog's staleness check, the invocation
  completes twice.
"""

from __future__ import annotations

from typing import List

from repro.core.invocation import SyscallRequest
from repro.core.syscall_area import SlotState
from repro.oskernel.process import OsProcess

from repro.modelcheck.scenarios import Scenario, ScenarioRun, micro_run, slot_rig

__all__ = ["ORDERING_BUGS", "check_bug", "check_corpus"]


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


ORDERING_BUGS: List[Scenario] = [
    Scenario(
        "ready-publish-race",
        "READY publish scheduled concurrently with the payload write "
        "(missing release fence): reordered, READY precedes the request",
        "protocol-error",
        _build_ready_publish_race,
    ),
    Scenario(
        "lost-doorbell",
        "doorbell coalescing without a re-check after the scan-live "
        "clearing store: a publish in the window loses its wakeup",
        "lost-wakeup",
        _build_lost_doorbell,
    ),
    Scenario(
        "watchdog-finish-race",
        "completion published before the state swap with the stale-finish "
        "guard removed: racing the watchdog completes the invocation twice",
        "duplicate-completion",
        _build_watchdog_finish_race,
    ),
]


def check_bug(bug: Scenario, workers: int = 1) -> dict:
    """Run the two-halves proof for one bug; returns a report dict.

    FIFO must be clean, exploration must find ``expected_rule``, and
    the shrunk certificate must still reproduce it on replay.
    """
    from repro.modelcheck.certificate import make_certificate, shrink
    from repro.modelcheck.explore import Bounds, explore, run_schedule

    fifo_clean = run_schedule(bug.name, ())["ok"]
    report = explore(bug.name, bounds=Bounds(max_schedules=256), workers=workers)
    hits = [
        finding
        for finding in report.violating
        if bug.expected_rule in finding["rules"]
    ]
    out = {
        "bug": bug.name,
        "expected_rule": bug.expected_rule,
        "fifo_clean": fifo_clean,
        "found": bool(hits),
        "schedules": report.schedules,
        "pruned": report.pruned,
        "certificate": None,
    }
    if hits:
        shrunk, attempts = shrink(
            bug.name, hits[0]["choices"], {bug.expected_rule}
        )
        replayed = run_schedule(bug.name, shrunk)
        out["shrink_attempts"] = attempts
        out["replay_hits_rule"] = bug.expected_rule in replayed["rules"]
        out["certificate"] = make_certificate(
            bug.name,
            shrunk,
            rules=replayed["rules"],
            violations=replayed["violations"],
        )
    return out


def check_corpus(workers: int = 1) -> List[dict]:
    """The CI gate body: :func:`check_bug` over every seeded bug."""
    return [check_bug(bug, workers=workers) for bug in ORDERING_BUGS]
