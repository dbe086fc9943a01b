"""The wavefront executor: lockstep interpretation of work-item ops.

Each wavefront is one simulation process driving up to
``wavefront_width`` work-item generators.  Per step, every runnable lane
yields one op; the executor charges a combined cost so SIMD lockstep is
reflected in timing: the max for compute, and every lane's memory
access and atomic serialised in lane order (no coalescing: a line read
by all 64 lanes costs one miss plus 63 L1 hits).  Lanes block
individually on barriers and halt-waits; the wavefront as a whole only
sleeps when no lane can make progress — so a single blocked work-item
stalls its wavefront, the paper's motivation for non-blocking syscalls.

A lane that yields a :class:`~repro.gpu.ops.Spin` is not resumed until
the spin ends.  Beside other runnable lanes the executor steps it
through the spin's atomic, check and sleep phases itself, one lockstep
step each, so the lanes interleave as in hardware.  A lane that reaches
a spin's atomic as the only runnable lane stays alone until the spin
ends (blocked lanes wake only when none is runnable), so the executor
runs the rest of the spin in place through
:meth:`~repro.memory.system.MemorySystem.gpu_spin` and then counts the
steps the phases would have taken.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Sequence, TYPE_CHECKING

from repro.gpu.hierarchy import WorkGroup, WorkItemCtx
from repro.gpu.ops import (
    Atomic,
    Barrier,
    Compute,
    Do,
    L1Flush,
    LdsRead,
    LdsWrite,
    MemRead,
    MemWrite,
    Op,
    Sleep,
    Spin,
    WaitAll,
)
from repro.sim.engine import AnyOf, Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Gpu


def all_events(sim: Simulator, events: Sequence[Event]) -> Event:
    """Combine events into one that fires when all have fired.

    Uses direct callback registration on the children — no watcher
    process, generator, or completion event per watched item.  A failing
    child fails the combined event.
    """
    pending = [e for e in events if not e.triggered]
    combined = sim.event(name="all-events")
    if not pending:
        combined.succeed()
        return combined
    state = {"remaining": len(pending)}

    def child_done(value, exc) -> None:
        if combined.triggered:
            return
        if exc is not None:
            combined.fail(exc)
            return
        state["remaining"] -= 1
        if state["remaining"] == 0:
            combined.succeed()

    for event in pending:
        event._add_callback(child_done)
    return combined


class _Lane:
    """One work-item being driven by the wavefront executor."""

    __slots__ = (
        "ctx", "gen", "inbox", "blocked_on", "needs_resume", "finished",
        "spin", "spin_phase",
    )

    def __init__(self, ctx: WorkItemCtx, gen: Generator):
        self.ctx = ctx
        self.gen = gen
        self.inbox: Any = None
        self.blocked_on: Optional[Event] = None
        self.needs_resume = False
        self.finished = False
        #: The spin this lane is in, and which step of it comes next:
        #: 0 the atomic, 1 the check, 2 the sleep.
        self.spin: Optional[Spin] = None
        self.spin_phase = 0


class Wavefront:
    """A hardware-scheduled lockstep group of work-items."""

    def __init__(
        self,
        sim: Simulator,
        gpu: "Gpu",
        group: WorkGroup,
        ctxs: List[WorkItemCtx],
        cu_id: int,
        slot_id: int,
    ):
        self.sim = sim
        self.gpu = gpu
        self.group = group
        self.cu_id = cu_id
        self.slot_id = slot_id
        self.hw_id = cu_id * gpu.config.wavefront_slots_per_cu + slot_id
        self.lanes = [_Lane(ctx, gpu.start_work_item(ctx, self)) for ctx in ctxs]
        #: Lockstep-efficiency accounting: total steps executed and the
        #: number of lane-ops issued (full-width steps issue width ops).
        self.steps = 0
        self.lane_ops = 0
        self.divergent_steps = 0

    @property
    def width(self) -> int:
        return len(self.lanes)

    def run(self) -> Generator:
        """Process body: drive all lanes to completion."""
        gpu = self.gpu
        cycle_ns = gpu.config.gpu_cycle_ns
        mem = gpu.memsystem
        cu_id = self.cu_id
        group = self.group
        # Live/runnable lane lists are maintained incrementally (in lane
        # order) and only rebuilt when a lane finishes, blocks, or wakes.
        # Nearly every step has a single runnable lane (a work-group
        # syscall's leader while the rest wait at its barrier), so the
        # step allocates nothing until a lane yields a deferred op.
        live = [lane for lane in self.lanes if not lane.finished]
        runnable = [lane for lane in live if lane.blocked_on is None]
        try:
            while live:
                if not runnable:
                    yield from self._wait_for_wake(live)
                    runnable = [lane for lane in live if lane.blocked_on is None]
                    tp_runnable = gpu.tp_lanes_runnable
                    if tp_runnable.enabled:
                        tp_runnable.fire(self.hw_id, len(runnable), len(live))
                    continue

                self.steps += 1
                self.lane_ops += len(runnable)
                if len(runnable) < len(live):
                    self.divergent_steps += 1
                compute_ns = 0.0
                mem_ops: Optional[List[Op]] = None
                atomic_ops: Optional[List[Atomic]] = None
                flush_ops: Optional[List[L1Flush]] = None
                lds_ops: Optional[List[Op]] = None
                lanes_changed = False
                for lane in runnable:
                    op = lane.spin
                    if op is None:
                        try:
                            op = lane.gen.send(lane.inbox)
                        except StopIteration:
                            lane.finished = True
                            lane.inbox = None
                            group.work_item_finished()
                            lanes_changed = True
                            continue
                    elif lane.spin_phase == 1:
                        # The check's step, as a Do: the lane resumes at
                        # the next step once it passes.
                        if op.check():
                            lane.spin = None
                        else:
                            lane.spin_phase = 2
                        continue
                    elif lane.spin_phase == 2:
                        # The sleep's step; the atomic's comes next.
                        lane.spin_phase = 0
                        if op.sleep > compute_ns:
                            compute_ns = op.sleep
                        continue
                    # Exact-class dispatch, most frequent first.
                    cls = op.__class__
                    lane.inbox = None
                    if cls is Barrier:
                        lane.blocked_on = group.arrive_barrier()
                        lanes_changed = True
                    elif cls is Compute:
                        ns = op.cycles * cycle_ns
                        if ns > compute_ns:
                            compute_ns = ns
                    elif cls is Do:
                        lane.inbox = op.action()
                    elif cls is Sleep:
                        if op.duration > compute_ns:
                            compute_ns = op.duration
                    elif cls is Spin:
                        if len(runnable) == 1:
                            # A lone lane: no other lane can wake before
                            # it stops spinning, so run the spin to its
                            # end here and count the check, sleep and
                            # atomic steps the phases would have taken.
                            atomic = op.atomic
                            tries = yield from mem.gpu_spin(
                                atomic.kind, atomic.addr, op.check, op.sleep
                            )
                            lane.spin = None
                            more = 3 * tries - 2
                            self.steps += more
                            self.lane_ops += more
                            if len(live) > 1:
                                self.divergent_steps += more
                            continue
                        # The spin's atomic step.
                        lane.spin = op
                        lane.spin_phase = 1
                        if atomic_ops is None:
                            atomic_ops = [op.atomic]
                        else:
                            atomic_ops.append(op.atomic)
                    elif cls is MemRead or cls is MemWrite:
                        if mem_ops is None:
                            mem_ops = [op]
                        else:
                            mem_ops.append(op)
                    elif cls is Atomic:
                        if atomic_ops is None:
                            atomic_ops = [op]
                        else:
                            atomic_ops.append(op)
                    elif cls is L1Flush:
                        if flush_ops is None:
                            flush_ops = [op]
                        else:
                            flush_ops.append(op)
                    elif cls is WaitAll:
                        lane.blocked_on = all_events(self.sim, op.events)
                        lane.needs_resume = True
                        lanes_changed = True
                    elif cls is LdsRead or cls is LdsWrite:
                        if lds_ops is None:
                            lds_ops = [op]
                        else:
                            lds_ops.append(op)
                    else:
                        raise TypeError(f"work-item yielded non-op {op!r}")

                if compute_ns:
                    yield compute_ns
                if lds_ops is not None:
                    yield self._lds_time(lds_ops)
                if mem_ops is not None:
                    for op in mem_ops:
                        if op.__class__ is MemRead:
                            yield from mem.gpu_load(cu_id, op.addr, op.size)
                        else:
                            yield from mem.gpu_store(cu_id, op.addr, op.size)
                if atomic_ops is not None:
                    for aop in atomic_ops:
                        yield from mem.gpu_atomic(aop.kind, aop.addr)
                if flush_ops is not None:
                    for fop in flush_ops:
                        yield from mem.gpu_l1_flush_range(cu_id, fop.addr, fop.size)
                if lanes_changed:
                    live = [lane for lane in live if not lane.finished]
                    runnable = [lane for lane in live if lane.blocked_on is None]
                    tp_runnable = gpu.tp_lanes_runnable
                    if tp_runnable.enabled:
                        tp_runnable.fire(self.hw_id, len(runnable), len(live))
        finally:
            gpu.wavefront_finished(self)

    # -- internals ---------------------------------------------------------

    def _lds_time(self, lds_ops: List[Op]) -> float:
        """LDS access time for one lockstep step: the max per-bank
        serialisation degree.  Reads of one identical address broadcast
        (degree 1, as on GCN); any other same-bank collisions serialise.
        """
        cfg = self.gpu.config
        bank_words = {}
        for op in lds_ops:
            first_word = op.addr // cfg.lds_bank_bytes
            last_word = (op.addr + max(op.size, 1) - 1) // cfg.lds_bank_bytes
            for word in range(first_word, last_word + 1):
                bank = word % cfg.lds_banks
                is_read = isinstance(op, LdsRead)
                bank_words.setdefault(bank, []).append((word, is_read))
        degree = 1
        for accesses in bank_words.values():
            reads = {}
            writes = 0
            for word, is_read in accesses:
                if is_read:
                    reads[word] = reads.get(word, 0) + 1
                else:
                    writes += 1
            # Distinct read words conflict; identical reads broadcast.
            bank_degree = len(reads) + writes
            degree = max(degree, bank_degree)
        return degree * cfg.lds_access_ns

    def _wait_for_wake(self, live: List[_Lane]) -> Generator:
        """All lanes blocked: sleep until at least one can progress."""
        gpu = self.gpu
        tp_halt = gpu.tp_wf_halt
        tp_resume = gpu.tp_wf_resume
        observing = tp_halt.enabled or tp_resume.enabled
        if observing:
            halted_at = self.sim.now
            if tp_halt.enabled:
                tp_halt.fire(self.hw_id, len(live))
        gpu.halted_wavefronts += 1
        gpu._note_occupancy()
        distinct = {}
        for lane in live:
            distinct[id(lane.blocked_on)] = lane.blocked_on
        events = list(distinct.values())
        if len(events) == 1:
            yield events[0]
        else:
            # Wake on the first of them; re-check the rest next iteration.
            yield AnyOf(events)
        resume = False
        for lane in live:
            if lane.blocked_on is not None and lane.blocked_on.triggered:
                if lane.needs_resume:
                    resume = True
                lane.blocked_on = None
                lane.needs_resume = False
        if resume:
            # One scalar wake message re-schedules the wavefront.
            yield self.gpu.config.halt_resume_ns
        gpu.halted_wavefronts -= 1
        gpu._note_occupancy()
        if observing and tp_resume.enabled:
            tp_resume.fire(self.hw_id, self.sim.now - halted_at)

    def __repr__(self) -> str:
        return f"Wavefront(hw={self.hw_id}, wg={self.group.group_id}, lanes={self.width})"
