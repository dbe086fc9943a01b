"""The wavefront executor against a reference lockstep loop.

``ReferenceWavefront`` keeps the straightforward executor: every step
builds its memory, atomic, flush and LDS lists, classifies each op with
an ``isinstance`` chain and advances each lane through ``_step_lane``.
It knows no :class:`~repro.gpu.ops.Spin`: each lane's generator is
wrapped so that a spin is written out as the loop it stands for (the
atomic, ``Do(check)``, and a ``Sleep`` while the check fails).
The production :class:`~repro.gpu.wavefront.Wavefront` dispatches on the
op's exact class, allocates those lists only when a lane needs one,
steps a spin's phases itself beside other runnable lanes and runs a
lone lane's spin in place.
Each kernel below runs under both executors, on fresh machines, under
a wall-clock deadline, and every observable result must be equal:
simulated time, lockstep statistics, atomic and cache counts, the
lane/halt/resume tracepoint stream (with every timed L1/L2 access),
lane return values and the error a bad kernel raises.
"""

from __future__ import annotations

import contextlib
import signal
from typing import Generator, List, Optional

import pytest

import repro.gpu.device as gpu_device
from repro.core.invocation import Granularity, Ordering, WaitMode
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
from repro.gpu.wavefront import Wavefront, _Lane, all_events
from repro.machine import MachineConfig
from repro.oskernel.fs import O_RDWR
from repro.probes.tracepoints import StreamRecorder
from repro.system import System

WG = Granularity.WORK_GROUP


def spins_written_out(gen: Generator) -> Generator:
    """``gen`` with every ``Spin`` it yields replaced by its loop."""
    value = None
    while True:
        try:
            op = gen.send(value)
        except StopIteration as stop:
            return stop.value
        if isinstance(op, Spin):
            while True:
                yield op.atomic
                if (yield Do(op.check)):
                    break
                yield Sleep(op.sleep)
            value = None
        else:
            value = yield op


class ReferenceWavefront(Wavefront):
    """The lockstep loop as first written: the executor's reference."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        for lane in self.lanes:
            lane.gen = spins_written_out(lane.gen)

    def run(self) -> Generator:
        cfg = self.gpu.config
        mem = self.gpu.memsystem
        live = [lane for lane in self.lanes if not lane.finished]
        runnable = [lane for lane in live if lane.blocked_on is None]
        try:
            while live:
                if not runnable:
                    yield from self._wait_for_wake(live)
                    runnable = [lane for lane in live if lane.blocked_on is None]
                    tp_runnable = self.gpu.tp_lanes_runnable
                    if tp_runnable.enabled:
                        tp_runnable.fire(self.hw_id, len(runnable), len(live))
                    continue

                self.steps += 1
                self.lane_ops += len(runnable)
                if len(runnable) < len(live):
                    self.divergent_steps += 1
                compute_ns = 0.0
                mem_ops: List[Op] = []
                atomic_ops: List[Atomic] = []
                flush_ops: List[L1Flush] = []
                lds_ops: List[Op] = []
                lanes_changed = False
                for lane in runnable:
                    op = self._step_lane(lane)
                    if op is None:
                        lanes_changed = True
                        continue
                    if isinstance(op, Compute):
                        compute_ns = max(compute_ns, op.cycles * cfg.gpu_cycle_ns)
                    elif isinstance(op, Sleep):
                        compute_ns = max(compute_ns, op.duration)
                    elif isinstance(op, (MemRead, MemWrite)):
                        mem_ops.append(op)
                    elif isinstance(op, Do):
                        lane.inbox = op.action()
                    elif isinstance(op, Atomic):
                        atomic_ops.append(op)
                    elif isinstance(op, (LdsRead, LdsWrite)):
                        lds_ops.append(op)
                    elif isinstance(op, L1Flush):
                        flush_ops.append(op)
                    elif isinstance(op, Barrier):
                        lane.blocked_on = self.group.arrive_barrier()
                        lanes_changed = True
                    elif isinstance(op, WaitAll):
                        lane.blocked_on = all_events(self.sim, op.events)
                        lane.needs_resume = True
                        lanes_changed = True
                    else:
                        raise TypeError(f"work-item yielded non-op {op!r}")

                if compute_ns:
                    yield compute_ns
                if lds_ops:
                    yield self._lds_time(lds_ops)
                for op in mem_ops:
                    if isinstance(op, MemRead):
                        yield from mem.gpu_load(self.cu_id, op.addr, op.size)
                    else:
                        yield from mem.gpu_store(self.cu_id, op.addr, op.size)
                for aop in atomic_ops:
                    yield from mem.gpu_atomic(aop.kind, aop.addr)
                for fop in flush_ops:
                    yield from mem.gpu_l1_flush_range(self.cu_id, fop.addr, fop.size)
                if lanes_changed:
                    live = [lane for lane in live if not lane.finished]
                    runnable = [lane for lane in live if lane.blocked_on is None]
                    tp_runnable = self.gpu.tp_lanes_runnable
                    if tp_runnable.enabled:
                        tp_runnable.fire(self.hw_id, len(runnable), len(live))
        finally:
            self.gpu.wavefront_finished(self)

    def _step_lane(self, lane: _Lane) -> Optional[Op]:
        try:
            op = lane.gen.send(lane.inbox)
        except StopIteration:
            lane.finished = True
            lane.inbox = None
            self.group.work_item_finished()
            return None
        lane.inbox = None
        return op


def machine() -> MachineConfig:
    # 64-wide wavefronts over caches small enough to evict.
    return MachineConfig(
        num_cus=2,
        wavefront_slots_per_cu=4,
        wavefront_width=64,
        gpu_l2_lines=64,
        gpu_l1_lines=16,
    )


# -- the kernel table ---------------------------------------------------
#
# Each case is (kernel, global_size, workgroup_size, setup); ``setup``
# prepares the fresh System and returns the kernel's args tuple.


def _file_setup(system: System) -> tuple:
    system.kernel.fs.create_file("/tmp/f", bytes(range(256)) * 16)
    return (system.memsystem.alloc_buffer(4096),)


def _no_setup(system: System) -> tuple:
    return (system.memsystem.alloc(1 << 16),)


def wg_syscall(wait: WaitMode):
    def kern(ctx):
        (buf,) = ctx.args
        fd = yield from ctx.sys.open("/tmp/f", granularity=WG)
        n = yield from ctx.sys.pread(
            fd, buf, 64, 64 * ctx.group_id, granularity=WG, wait=wait
        )
        yield Compute(3)
        m = yield from ctx.sys.pread(
            fd, buf, 32, 0, granularity=WG, ordering=Ordering.RELAXED, wait=wait
        )
        return (fd, n, m)

    return kern


def wi_poll_staggered(ctx):
    """Work-item calls from all 64 lanes, each lane ``l % 3`` steps
    behind lane 0, so spinning lanes sit in different phases of their
    spins within one step."""
    (buf,) = ctx.args
    for _ in range(ctx.lane % 3):
        yield Compute(1)
    fd = yield from ctx.sys.open("/tmp/f")
    n = yield from ctx.sys.pread(fd, buf, 16, 16 * ctx.lane)
    return (fd, n)


def claim_retry(ctx):
    """A blocking call right behind a non-blocking one on the same slot:
    its claim finds the slot busy, so the claim spin sleeps and retries."""
    (buf,) = ctx.args
    fd = yield from ctx.sys.open("/tmp/f")
    yield from ctx.sys.pread(fd, buf, 16, 0, blocking=False)
    n = yield from ctx.sys.pread(fd, buf, 16, 16 * ctx.lane)
    return (fd, n)


def claim_turns_lone(ctx):
    """Two relaxed non-blocking work-group writes on one slot.  The
    second's claim spin starts in the step that releases the other lanes
    from its pre-barrier, finds the slot still busy with the first write,
    and goes on alone once they exit."""
    (buf,) = ctx.args
    fd = yield from ctx.sys.open("/tmp/f", O_RDWR, granularity=WG)
    for offset in (0, 64):
        yield from ctx.sys.pwrite(
            fd, buf, 64, offset, granularity=WG, ordering=Ordering.RELAXED,
            blocking=False,
        )
    return fd


def mixed(ctx):
    (base,) = ctx.args
    i = ctx.local_id
    # Only a Do sends a value back; every other op must resume with None.
    seen = [(yield Do(lambda: i))]
    for step in range(4):
        pick = (i + step) % 8
        if pick == 0:
            op = Compute(i % 5 + 1)
        elif pick == 1:
            op = Sleep(1.5 * i)
        elif pick == 2:
            op = MemRead(base + 16 * i, 16)
        elif pick == 3:
            op = MemWrite(base + 64 * (i % 7), 8)
        elif pick == 4:
            op = Atomic(("cmp-swap", "atomic-load", "swap")[i % 3], base + 64 * (i % 3))
        elif pick == 5:
            op = LdsRead(4 * (i % 8))
        elif pick == 6:
            op = LdsWrite(128 * (i % 4))
        else:
            op = L1Flush(base + 64 * i, 64)
        seen.append((yield op))
    return seen


def zero_compute(ctx):
    (base,) = ctx.args
    yield Compute(0)
    yield Compute(0)
    yield Sleep(0)
    yield MemRead(base, 4)
    yield Compute(0)
    return ctx.local_id


def early_exit(ctx):
    (base,) = ctx.args
    if ctx.local_id % 3 == 0:
        return -1
    for _ in range(ctx.local_id % 4):
        yield Compute(2)
    yield Barrier()
    yield MemRead(base + 64 * (ctx.local_id % 5), 4)
    return ctx.local_id


def cross_wavefront_barrier(ctx):
    yield Compute(ctx.local_id % 9)
    yield Barrier()
    yield Sleep(5.0)
    yield Barrier()
    yield Compute(1)
    return ctx.local_id


def wait_all(ctx):
    sim = ctx.kernel.sim
    if ctx.local_id % 2:
        event = yield Do(lambda: sim.wake_at(sim.now + 100.0 + 10 * ctx.lane))
        yield WaitAll([event])
    else:
        yield Compute(50)
    yield WaitAll([])
    yield Compute(1)
    return ctx.local_id


def non_op(ctx):
    yield Compute(1)
    if ctx.local_id == 3:
        yield 42
    yield Compute(1)


CASES = {
    "wg-poll": (wg_syscall(WaitMode.POLL), 128, 64, _file_setup),
    "wg-halt": (wg_syscall(WaitMode.HALT_RESUME), 128, 64, _file_setup),
    "wi-poll-staggered": (wi_poll_staggered, 64, 64, _file_setup),
    "claim-retry": (claim_retry, 6, 6, _file_setup),
    "claim-turns-lone": (claim_turns_lone, 128, 64, _file_setup),
    "mixed-64-wide": (mixed, 128, 128, _no_setup),
    "zero-cycle-compute": (zero_compute, 64, 64, _no_setup),
    "early-exit": (early_exit, 128, 128, _no_setup),
    "cross-wavefront-barrier": (cross_wavefront_barrier, 192, 192, _no_setup),
    "wait-all": (wait_all, 64, 64, _no_setup),
    "non-op": (non_op, 64, 64, _no_setup),
}


def observe(executor: type, case: str) -> dict:
    """Run one table kernel on a fresh machine under ``executor``."""
    kern, global_size, workgroup_size, setup = CASES[case]
    results = {}

    def body(ctx):
        results[ctx.global_id] = yield from kern(ctx)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gpu_device, "Wavefront", executor)
        system = System(config=machine())
        args = setup(system)
        recorder = StreamRecorder(system.probes).attach(
            "gpu.lanes.runnable", "wavefront.halt", "wavefront.resume", "mem.l*"
        )

        def main():
            yield system.launch(body, global_size, workgroup_size, args)

        error = None
        try:
            system.run_to_completion(main())
        except TypeError as exc:
            error = str(exc)
    mem = system.memsystem
    return {
        "now": system.sim.now,
        "error": error,
        "results": results,
        "wavefront_stats": dict(system.gpu.wavefront_stats),
        "atomics": dict(mem.atomics.counts),
        "l2": mem.l2.stats,
        "l1": [l1.stats for l1 in mem.l1s],
        "stream": recorder.events,
    }


@contextlib.contextmanager
def wall_deadline(seconds: float):
    """Fail, instead of hanging, if the block runs past ``seconds``: a
    lane left spinning spins forever in simulated time."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds}s of wall time")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("case", sorted(CASES))
def test_executor_matches_reference(case):
    with wall_deadline(10.0):
        expected = observe(ReferenceWavefront, case)
        actual = observe(Wavefront, case)
    assert actual == expected
    # Non-vacuity: the kernel did what the table row says it does.
    if case == "non-op":
        assert expected["error"] == "work-item yielded non-op 42"
    else:
        assert expected["error"] is None
        assert len(expected["results"]) == CASES[case][1]
    if case in ("wg-poll", "wg-halt"):
        assert expected["atomics"]["cmp-swap"] > 0
        assert expected["wavefront_stats"]["divergent_steps"] > 0
    if case == "wi-poll-staggered":
        # 128 blocking calls, and some of their poll spins slept.
        assert expected["atomics"]["atomic-load"] > 128
    if case == "claim-retry":
        # 18 calls, and some of their claim spins failed and slept.
        assert expected["atomics"]["cmp-swap"] > 18
    if case == "claim-turns-lone":
        # 6 calls, and a claim spin failed and slept.
        assert expected["atomics"]["cmp-swap"] > 6
    if case in ("wg-halt", "wait-all"):
        assert any(name == "wavefront.halt" for _t, name, _a in expected["stream"])
    if case == "mixed-64-wide":
        assert expected["l2"].misses and expected["l1"][0].invalidations
