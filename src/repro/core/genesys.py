"""The GENESYS runtime: GPU system-call request/response machinery.

Implements the five steps of the paper's Figure 2:

1. the GPU work-item places call arguments in its syscall-area slot,
2. it interrupts the CPU with its wavefront's hardware ID (s_sendmsg),
3. the interrupt handler (after optional coalescing) enqueues a
   workqueue task; an OS worker thread scans the wavefront's slots and
   flips READY requests to PROCESSING,
4. the worker executes each call against the Linux substrate in the
   invoking process's context and writes results back to the slot,
5. the slot flips to FINISHED (blocking) or FREE (non-blocking) and the
   waiting work-item is woken — by its poll loop observing the state or
   by a halt-resume message.

Construct one :class:`Genesys` per simulated machine; it installs the
device API onto every work-item the GPU starts.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from operator import attrgetter
from typing import (
    TYPE_CHECKING, Any, Callable, Deque, Dict, Generator, List, Optional, Set, Tuple,
)

from repro.core.coalescing import CoalescingConfig, Coalescer
from repro.core.device_api import DeviceApi
from repro.core.invocation import Granularity, SyscallRequest, WaitMode
from repro.core.syscall_area import Slot, SlotState, SyscallArea
from repro.gpu.device import Gpu
from repro.gpu.hierarchy import WorkItemCtx
from repro.gpu.wavefront import Wavefront
from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.oskernel.errors import Errno, OsError
from repro.oskernel.linux import LinuxKernel
from repro.oskernel.process import OsProcess
from repro.oskernel.workqueue import DrainTimeout
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Event, Simulator, _TimerHandle

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultInjector

#: Sanity ceilings for the sysfs coalescing knobs: a window beyond ten
#: simulated seconds or a batch beyond the whole syscall area is a typo,
#: not a tuning choice.
MAX_WINDOW_NS = 10_000_000_000.0
MAX_BATCH = 65536
#: Ceiling for the completion-log ring: far beyond any run's call count.
MAX_LOG_LIMIT = 1 << 32
#: The errnos a blocking GPU caller retries (Section V blocking
#: semantics), and so the only ones a ``FaultPlan`` may inject.
TRANSIENT_ERRNOS = frozenset({int(Errno.EINTR), int(Errno.EAGAIN)})

#: The sysfs knobs (Section VI: "GENESYS uses Linux's sysfs interface
#: to communicate coalescing parameters"), one row each:
#: ``(path under /sys/genesys, type, lo, hi, target)``.  ``target`` is
#: a dotted attribute path from the Genesys object; a ``set_<attr>``
#: target names a method called with the validated value (for writes
#: with side effects) while ``<attr>`` is what reads back.
Knob = Tuple[str, Callable[[bytes], Any], int, float, str]
SYSFS_KNOBS: Tuple[Knob, ...] = (
    ("coalescing_window_ns", float, 0, MAX_WINDOW_NS, "coalescing.window_ns"),
    ("coalescing_max_batch", int, 1, MAX_BATCH, "coalescing.max_batch"),
    ("completion_log_limit", int, 0, MAX_LOG_LIMIT, "set_completion_log_limit"),
    ("watchdog_period_ns", float, 0, MAX_WINDOW_NS, "set_watchdog_period_ns"),
    ("slot_timeout_ns", float, 0, MAX_WINDOW_NS, "slot_timeout_ns"),
    ("worker_timeout_ns", float, 0, MAX_WINDOW_NS, "worker_timeout_ns"),
    ("qos/deadline_ns", float, 0, MAX_WINDOW_NS, "qos_deadline_ns"),
    ("qos/admission", float, 0, MAX_WINDOW_NS, "linux.net.sojourn_budget_ns"),
)


def parse_knob(
    name: str, kind: Callable[[bytes], Any], lo: int, hi: float, raw: bytes
) -> Any:
    """Parse one sysfs write, failing with EINVAL exactly as a real
    sysfs store would on malformed or out-of-range input (Python's digit
    grouping, ``1_000``, included: ``kstrtoul`` refuses it)."""
    text = raw.strip()
    try:
        if b"_" in text:
            raise ValueError(text)
        value = kind(text)
    except (ValueError, UnicodeDecodeError):
        what = "an integer" if kind is int else "a number"
        raise OsError(Errno.EINVAL, f"{name}: not {what}: {text!r}") from None
    if value != value or value < lo:  # NaN or below the floor
        raise OsError(Errno.EINVAL, f"{name}: must be >= {lo}, got {value!r}")
    if value > hi:
        raise OsError(Errno.EINVAL, f"{name}: {value!r} exceeds {hi:.0f}")
    return value


class GenesysError(RuntimeError):
    """Misuse of the GENESYS interface."""


class OrderingError(GenesysError):
    """Strong ordering requested where it can deadlock the GPU.

    Kernels can hold more work-items than can be co-resident and GPU
    runtimes do not preempt, so strong ordering at kernel granularity
    risks deadlock (Section V-A); GENESYS rejects it outright.
    """


def _closed(*_args: Any) -> None:
    """What :meth:`Genesys.close` leaves in each hook it had filled."""
    raise GenesysError("GENESYS was called on a closed machine")


class Genesys:
    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        linux: LinuxKernel,
        gpu: Gpu,
        memsystem: MemorySystem,
        host_process: OsProcess,
        coalescing: Optional[CoalescingConfig] = None,
        slot_stride_bytes: int = 64,
        probes: Optional[ProbeRegistry] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.linux = linux
        self.gpu = gpu
        self.memsystem = memsystem
        self.host_process = host_process
        self.probes = probes if probes is not None else ProbeRegistry(sim)
        self.area = SyscallArea(
            sim, config, memsystem, slot_stride_bytes, probes=self.probes
        )
        self.coalescing = coalescing or CoalescingConfig()
        self.coalescer = Coalescer(
            sim, self.coalescing, flush_fn=self._enqueue_scan, probes=self.probes
        )
        self.tp_submit = self.probes.tracepoint(
            "syscall.submit",
            ("granularity", "invocation_id", "name", "hw_id", "blocking"),
            "a GPU work-item published a READY syscall request",
        )
        self.tp_inflight = self.probes.tracepoint(
            "syscall.inflight",
            ("outstanding",),
            "gauge: invocations in flight after an issue or completion",
        )
        self.tp_dispatch = self.probes.tracepoint(
            "syscall.dispatch",
            ("name", "hw_id", "invocation_id"),
            "a worker flipped a slot READY -> PROCESSING",
        )
        self.tp_complete = self.probes.tracepoint(
            "syscall.complete",
            ("name", "hw_id", "service_ns", "invocation_id", "blocking"),
            "a syscall finished servicing; service_ns = PROCESSING time",
        )
        # Span-grade fire sites (repro.tracing): each carries the
        # invocation_id minted by begin_invocation so one invocation's
        # journey can be joined across the GPU- and CPU-side halves.
        self.tp_claim = self.probes.tracepoint(
            "syscall.claim",
            ("invocation_id", "name", "hw_id", "lane", "granularity", "blocking", "wait"),
            "a work-item started claiming its syscall-area slot",
        )
        self.tp_irq = self.probes.tracepoint(
            "syscall.irq",
            ("invocation_id", "hw_id", "suppressed"),
            "an invocation signalled the CPU (suppressed: a scan for its "
            "wavefront was already queued, so no new interrupt was raised)",
        )
        self.tp_resume = self.probes.tracepoint(
            "syscall.resume",
            ("invocation_id", "name", "hw_id"),
            "a blocking caller observed completion and proceeded",
        )
        self.tp_scan_enqueue = self.probes.tracepoint(
            "scan.enqueue",
            ("scan_id", "hw_ids"),
            "a coalesced bundle was submitted to the workqueue as one scan task",
        )
        self.tp_scan_start = self.probes.tracepoint(
            "scan.start",
            ("scan_id", "hw_ids"),
            "a worker thread began executing a scan task",
        )
        #: The plan's FaultInjector, asked at the errno and slot fault
        #: sites of ``_scan_task``; None on a machine with no plan.
        self.faults: Optional[FaultInjector] = None
        # The applied faults, and what the recovery machinery does.
        self.tp_fault_errno = self.probes.tracepoint(
            "fault.errno.injected",
            ("name", "errno", "invocation_id"),
            "a transient errno was injected at dispatch",
        )
        self.tp_fault_slot = self.probes.tracepoint(
            "fault.slot.injected",
            ("action", "slot_index", "name"),
            "an injected slot fault was applied (wedge or corrupt)",
        )
        self.tp_retry = self.probes.tracepoint(
            "syscall.retry",
            ("invocation_id", "name", "errno", "attempt", "backoff_ns"),
            "a blocking caller got a transient errno and will retry after "
            "capped exponential backoff",
        )
        self.tp_degraded = self.probes.tracepoint(
            "recover.degraded",
            ("hw_ids",),
            "watchdog fell back to polling-scan servicing (missed interrupt)",
        )
        self.tp_reclaim = self.probes.tracepoint(
            "recover.slot_reclaim",
            ("invocation_id", "name", "slot_index", "was_state"),
            "watchdog reclaimed a stuck slot with -ETIMEDOUT",
        )
        self.tp_shed = self.probes.tracepoint(
            "qos.shed",
            ("stage", "reason", "invocation_id", "name", "slot_index"),
            "a request was shed at a stage boundary instead of serviced "
            "(reason: deadline)",
        )
        self._scan_suppressed: Set[int] = set()
        self.outstanding = 0
        self._all_complete: Optional[Event] = None
        self.invocation_counts: Dict[Granularity, int] = {g: 0 for g in Granularity}
        self.interrupts_sent = 0
        self.syscalls_completed = 0
        #: Monotonic invocation-id mint (see begin_invocation) and the
        #: scan-task mint used to join workqueue waits to bundles.
        self._next_invocation_id = 0
        self._next_scan_id = 0
        #: (name, hw_wavefront_id, start_ns, end_ns) per serviced call —
        #: consumed by repro.traceviz for timeline export.  Optionally
        #: bounded: ``completion_log_limit`` > 0 keeps only the newest
        #: entries (knob: /sys/genesys/completion_log_limit) and counts
        #: everything discarded in ``completion_log_dropped``.
        self.completion_log: Deque[Tuple[str, int, float, float]] = deque()
        self.completion_log_limit = 0
        self.completion_log_dropped = 0
        # -- recovery knobs and state (watchdog off by default: the
        # happy path stays byte-identical to the watchdog-free design).
        #: Watchdog period in ns; 0 disables (knob:
        #: /sys/genesys/watchdog_period_ns).
        self.watchdog_period_ns = 0.0
        #: Age past which a READY/PROCESSING slot is reclaimed with
        #: -ETIMEDOUT; 0 disables reclaim (rescan still runs).
        self.slot_timeout_ns = 2_000_000.0
        #: Age past which a picked-but-unstarted workqueue task is
        #: requeued and its worker presumed stalled or dead.
        self.worker_timeout_ns = 500_000.0
        #: GPU-side retry/backoff for transient errnos (Section V
        #: blocking semantics): base doubles per attempt up to the cap.
        self.retry_base_ns = 2_000.0
        self.retry_cap_ns = 64_000.0
        self.max_syscall_retries = 6
        self.degraded = 0
        self.slots_reclaimed = 0
        self.watchdog_ticks = 0
        self.syscall_retries = 0
        #: Deadline delta minted per invocation (ns; 0 = none, knob:
        #: /sys/genesys/qos/deadline_ns); the default mints none.
        self.qos_deadline_ns = 0.0
        self.syscalls_shed = 0
        self.sheds_by_stage: Dict[str, int] = {}
        self._watchdog_handle: Optional[_TimerHandle] = None
        self._last_progress: Optional[Tuple[int, int, int, int, int]] = None
        gpu.workitem_binder = self._bind_workitem
        linux.interrupts.register_handler(self._bottom_half)
        self._register_sysfs()

    def close(self) -> None:
        """Unhook the runtime from the components it hooked into: the
        GPU's work-item binder, the interrupt handler, the coalescer's
        flush and every slot's callbacks each hold a bound method of the
        runtime or its area, so each is a reference cycle through it.

        Counters and :meth:`stats` stay readable; a closed runtime
        refuses work (:meth:`repro.system.System.close` calls this).
        """
        self.gpu.workitem_binder = _closed
        self.linux.interrupts.register_handler(_closed)
        self.coalescer.flush_fn = _closed
        self.area.close()

    def _register_sysfs(self) -> None:
        """Bind every :data:`SYSFS_KNOBS` row as a readable, writable
        file under /sys/genesys.

        A validated write sets the state the row names, and that state
        is the value everywhere: a constant is set only this way.
        """
        fs = self.linux.fs
        for row in SYSFS_KNOBS:
            path = f"/sys/genesys/{row[0]}"
            parent = path.rpartition("/")[0]
            if not fs.exists(parent):
                fs.mkdir(parent)
            fs.add_dynamic_file(
                path,
                partial(self._read_knob, row),
                write_fn=partial(self._write_knob, row),
            )

    def _read_knob(self, row: Knob) -> bytes:
        return b"%d\n" % int(attrgetter(row[4].removeprefix("set_"))(self))

    def _write_knob(self, row: Knob, raw: bytes) -> None:
        name, kind, lo, hi, target = row
        value = parse_knob(name, kind, lo, hi, raw)
        if target.startswith("set_"):
            getattr(self, target)(value)
        else:
            owner, _, attr = target.rpartition(".")
            setattr(attrgetter(owner)(self) if owner else self, attr, value)

    def set_watchdog_period_ns(self, period_ns: float) -> None:
        """Set the watchdog period, and start supervising immediately if
        work is already in flight (otherwise the next submission arms
        the timer)."""
        self.watchdog_period_ns = period_ns
        if self.outstanding > 0 or self.linux.workqueue.outstanding > 0:
            self._arm_watchdog()

    # -- GPU-side hooks -----------------------------------------------------

    def _bind_workitem(self, ctx: WorkItemCtx, wavefront: Wavefront) -> None:
        ctx.sys = DeviceApi(self, ctx, wavefront)

    def begin_invocation(
        self,
        name: str,
        hw_id: int,
        lane: int,
        granularity: Granularity,
        blocking: bool,
        wait: WaitMode,
    ) -> int:
        """Mint the invocation id for one syscall submission.

        Called inline (between GPU ops, never as one) at the start of the
        slot-claim sequence, so minting adds no op to the lane's stream;
        the ``syscall.claim`` fire is the invocation's t0 when tracing is
        attached.
        """
        self._next_invocation_id += 1
        invocation_id = self._next_invocation_id
        if self.tp_claim.enabled:
            self.tp_claim.fire(
                invocation_id,
                name,
                hw_id,
                lane,
                granularity.value,
                blocking,
                wait.value,
            )
        return invocation_id

    def note_issued(self, granularity: Granularity, slot: Optional[Slot] = None) -> None:
        self.outstanding += 1
        self.invocation_counts[granularity] += 1
        if self.tp_inflight.enabled:
            self.tp_inflight.fire(self.outstanding)
        if self._watchdog_handle is None:
            self._arm_watchdog()
        if self.tp_submit.enabled:
            request = slot.request if slot is not None else None
            if request is not None:
                self.tp_submit.fire(
                    granularity.value,
                    request.invocation_id,
                    request.name,
                    slot.index // self.area.width,
                    request.blocking,
                )
            else:
                self.tp_submit.fire(granularity.value, None, None, None, None)

    def raise_interrupt(self, hw_wavefront_id: int, slot: Optional[Slot] = None) -> None:
        """Step 2: GPU interrupts the CPU (called at GPU time via a Do op).

        One scan task per wavefront is enough to service every READY slot
        of that wavefront, so interrupts are suppressed while a scan for
        the same hardware ID is already queued.
        """
        suppressed = hw_wavefront_id in self._scan_suppressed
        if self.tp_irq.enabled and slot is not None and slot.request is not None:
            self.tp_irq.fire(
                slot.request.invocation_id, hw_wavefront_id, suppressed
            )
        if suppressed:
            return
        self._scan_suppressed.add(hw_wavefront_id)
        self.interrupts_sent += 1
        self.linux.interrupts.raise_irq(hw_wavefront_id)

    # -- QoS: deadlines and shedding ----------------------------------------

    def mint_deadline(self) -> Optional[float]:
        """The absolute deadline for an invocation starting now: now
        plus ``qos_deadline_ns`` (knob: /sys/genesys/qos/deadline_ns),
        or None while the knob is 0."""
        delta = self.qos_deadline_ns
        if delta <= 0:
            return None
        return self.sim.now + float(delta)

    def _dispatch(self, slot: Slot) -> SyscallRequest:
        """Flip a READY slot to PROCESSING (firing ``syscall.dispatch``)."""
        request = slot.start_processing()
        if self.tp_dispatch.enabled:
            self.tp_dispatch.fire(
                request.name, slot.index // self.area.width, request.invocation_id
            )
        return request

    def _shed_slot(self, slot: Slot, stage: str, reason: str) -> None:
        """Complete a READY slot with -ETIME instead of servicing it.

        Runs the ordinary slot protocol (READY -> PROCESSING -> done) so
        waiting work-items wake exactly as for a served call and GSan
        sees a legal, exactly-once completion — just with zero service
        time and a dead-on-arrival result.
        """
        self.retire(slot, self._dispatch(slot), -int(Errno.ETIME), stage, reason)

    def _shed_expired(self, hw_wavefront_id: int, stage: str) -> Tuple[int, int]:
        """Shed every expired READY slot of one wavefront.

        Returns ``(shed, live)``: how many slots were shed and how many
        READY slots remain.  Visits only the READY slots, and is cheap
        when no deadlines are minted — the per-slot check is a None test.
        """
        now = self.sim.now
        shed = 0
        live = 0
        for slot in self.area.ready_slots(hw_wavefront_id):
            request = slot.request
            if request is not None and request.expired(now):
                self._shed_slot(slot, stage, "deadline")
                shed += 1
                continue
            live += 1
        return shed, live

    def retire(
        self,
        slot: Slot,
        request: Optional[SyscallRequest],
        result: Any,
        cause: str,
        reason: str = "",
    ) -> bool:
        """The one way a slot leaves the pipeline with a definite status.

        ``cause`` is ``"complete"`` (a worker serviced ``request``),
        ``"reclaim"`` (the watchdog forces the stuck slot, whatever its
        request) or the stage that shed ``request`` (``"coalesce"``,
        ``"pickup"`` or ``"dispatch"``, with ``reason`` ``"deadline"``).
        Retire owns the exactly-once slot write, the chaos-invariant
        counters (``issued == completed + reclaimed + shed``) and the
        cause's tracepoints.  Returns False when the slot refused: a
        finish whose slot the watchdog already reclaimed (the reclaim
        did the bookkeeping), or a reclaim of a slot that was not stuck.
        """
        hw_id = slot.index // self.area.width
        if cause == "reclaim":
            was_state = slot.state.value
            request = slot.reclaim(result)
            if request is None:
                return False
            self.slots_reclaimed += 1
            # A reclaimed READY slot usually means its interrupt was
            # lost; drop the suppression so the wavefront's next call
            # raises a fresh one instead of waiting on a ghost scan.
            self._scan_suppressed.discard(hw_id)
            self._note_completion()
            if self.tp_reclaim.enabled:
                self.tp_reclaim.fire(
                    request.invocation_id, request.name, slot.index, was_state
                )
            return True
        assert request is not None
        # PROCESSING began at the slot's last transition: nothing else
        # moves a slot that still holds the request we expect.
        started_at = slot.last_transition_ns
        if not slot.finish(result, expected=request):
            return False
        if cause == "complete":
            self.syscalls_completed += 1
            if self.completion_log_limit and (
                len(self.completion_log) >= self.completion_log_limit
            ):
                self.completion_log.popleft()
                self.completion_log_dropped += 1
            self.completion_log.append((request.name, hw_id, started_at, self.sim.now))
        else:
            self.syscalls_shed += 1
            self.sheds_by_stage[cause] = self.sheds_by_stage.get(cause, 0) + 1
        self._note_completion()
        if cause != "complete" and self.tp_shed.enabled:
            self.tp_shed.fire(
                cause, reason, request.invocation_id, request.name, slot.index
            )
        if self.tp_complete.enabled:
            self.tp_complete.fire(
                request.name,
                hw_id,
                self.sim.now - started_at,
                request.invocation_id,
                request.blocking,
            )
        return True

    # -- CPU-side path ------------------------------------------------------

    def _bottom_half(self, hw_wavefront_id: int) -> None:
        """Step 3a: the timed interrupt handler hands off to the coalescer.

        Coalesce-admit shed stage: requests already past deadline are
        completed with -ETIME here, before they cost a bundle slot; if
        that empties the wavefront's READY set, no scan is queued and
        the interrupt suppression lifts so the next request signals
        afresh.
        """
        shed, live = self._shed_expired(hw_wavefront_id, "coalesce")
        if shed and live == 0:
            self._scan_suppressed.discard(hw_wavefront_id)
            return
        self.coalescer.add(hw_wavefront_id)

    def _enqueue_scan(self, hw_ids: List[int]) -> None:
        """Step 3b: a coalesced bundle becomes one workqueue task."""
        self._next_scan_id += 1
        scan_id = self._next_scan_id
        if self.tp_scan_enqueue.enabled:
            self.tp_scan_enqueue.fire(scan_id, tuple(hw_ids))
        self.linux.workqueue.submit(
            lambda: self._scan_task(scan_id, list(hw_ids))
        )

    def _scan_task(self, scan_id: int, hw_ids: List[int]) -> Generator[Any, Any, None]:
        """Steps 3c-5: worker thread scans slots and services the calls.

        All calls in the bundle run sequentially on this one worker —
        the implicit serialisation cost of coalescing.
        """
        if self.tp_scan_start.enabled:
            self.tp_scan_start.fire(scan_id, tuple(hw_ids))
        cpu = self.linux.cpu
        # Workqueue-pickup shed stage: anything that expired while the
        # bundle waited in the queue is dropped before we pay the
        # context switch for it.
        for hw_id in hw_ids:
            self._shed_expired(hw_id, "pickup")
        # Adopt the context of the process that launched the kernel
        # (Section VI: syscalls execute outside the invoking context).
        yield from cpu.run(self.config.context_switch_ns)
        for hw_id in hw_ids:
            self._scan_suppressed.discard(hw_id)
            # Read live: servicing one slot advances the clock, so later
            # lanes of the row may turn READY (or be reclaimed) meanwhile.
            for slot in self.area.ready_slots(hw_id):
                # Dispatch shed stage: servicing earlier calls of the
                # bundle advanced the clock since pickup.
                pending = slot.request
                if pending is not None and pending.expired(self.sim.now):
                    self._shed_slot(slot, "dispatch", "deadline")
                    continue
                request = self._dispatch(slot)
                yield from cpu.run(self.config.syscall_base_ns)
                faults = self.faults
                verdict = faults.decide("errno") if faults is not None else None
                if verdict is not None:
                    # Transient failure injected at dispatch: the syscall
                    # body never runs, so a GPU-side retry of the whole
                    # invocation is side-effect free.
                    errno = int(verdict[1])
                    result = -errno
                    if self.tp_fault_errno.enabled:
                        self.tp_fault_errno.fire(
                            request.name, errno, request.invocation_id
                        )
                else:
                    result = yield from self.linux.execute(
                        request.proc, request.name, request.args
                    )
                verdict = faults.decide("slot") if faults is not None else None
                if verdict is not None:
                    action = verdict[0]
                    if self.tp_fault_slot.enabled:
                        self.tp_fault_slot.fire(action, slot.index, request.name)
                    if action == "wedge":
                        # The completion write never lands: the slot stays
                        # PROCESSING until the watchdog reclaims it with
                        # -ETIMEDOUT and surfaces that to the wavefront.
                        continue
                    result = -int(Errno.EIO)  # corrupt
                # Write the result back through the shared memory path.
                yield from self.memsystem.dram.cpu_access(self.config.cacheline_bytes)
                if self.area.shares_cacheline(slot):
                    # Packed layout ablation: the CPU's write ping-pongs the
                    # line away from the GPU L2, so every neighbouring
                    # poller misses to DRAM (the false-sharing cost the
                    # one-slot-per-line design avoids).
                    self.memsystem.l2.invalidate(
                        slot.addr // self.config.cacheline_bytes
                    )
                self.retire(slot, request, result, "complete")

    def _note_completion(self) -> None:
        """One invocation reached a definite status (serviced or reclaimed)."""
        self.outstanding -= 1
        if self.tp_inflight.enabled:
            self.tp_inflight.fire(self.outstanding)
        if self.outstanding == 0 and self._all_complete is not None:
            event, self._all_complete = self._all_complete, None
            event.succeed()

    # -- watchdog / recovery -------------------------------------------------

    def _arm_watchdog(self) -> None:
        """Schedule the next watchdog tick (no-op while disabled).

        The watchdog is the CPU-side supervisor the recovery paths hang
        off: each tick requeues tasks wedged at stalled/dead workers,
        reclaims slots stuck past their deadline, and — when a whole
        tick passed with zero forward progress — falls back to the
        paper's polling-scan servicing mode for READY slots whose
        interrupt evidently never arrived.
        """
        if self._watchdog_handle is not None:
            return
        period = self.watchdog_period_ns
        if not period or period <= 0:
            return
        self._watchdog_handle = self.sim.call_later(period, self._watchdog_tick)

    def _watchdog_tick(self) -> None:
        self._watchdog_handle = None
        workqueue = self.linux.workqueue
        if self.outstanding <= 0 and workqueue.outstanding <= 0:
            # Idle: stop ticking; the next submission re-arms.
            self._last_progress = None
            return
        self.watchdog_ticks += 1
        requeued = workqueue.check_stalled(self.worker_timeout_ns)
        reclaimed = self._reclaim_stuck_slots()
        progress = (
            self.syscalls_completed,
            self.slots_reclaimed,
            workqueue.completed,
            workqueue.backlog,
            self.outstanding,
        )
        if progress == self._last_progress and not requeued and not reclaimed:
            # A whole period with no movement anywhere: assume a lost
            # interrupt and scan READY slots directly (degraded mode).
            self._scan_ready()
        self._last_progress = progress
        self._arm_watchdog()

    def _reclaim_stuck_slots(self) -> int:
        """Force slots stuck in READY/PROCESSING past their limit to a
        definite error status, waking their waiting work-items.

        Two independent limits apply: the age-based ``slot_timeout_ns``
        (-ETIMEDOUT, as before) and the invocation's own QoS deadline
        (-ETIME) — a wedged slot whose deadline passed is reclaimed even
        when the age timeout is disabled.  ``Slot.reclaim`` returning
        the abandoned request exactly once (and ``finish`` refusing a
        stale write-back) keeps the completion single even when a
        dawdling worker races the reclaim.
        """
        timeout = self.slot_timeout_ns
        aged_enabled = bool(timeout and timeout > 0)
        now = self.sim.now
        count = 0
        for slot in self.area.materialized():
            if slot.state not in (SlotState.READY, SlotState.PROCESSING):
                continue
            pending = slot.request
            expired = pending is not None and pending.expired(now)
            aged = aged_enabled and now - slot.last_transition_ns >= timeout
            if not expired and not aged:
                continue
            retval = -int(Errno.ETIME) if expired else -int(Errno.ETIMEDOUT)
            count += self.retire(slot, pending, retval, "reclaim")
        return count

    def _scan_ready(self) -> None:
        """The watchdog's missed-interrupt fallback: enqueue one scan
        covering every wavefront with READY slots, bypassing the
        interrupt path (counted in ``degraded``, fires
        ``recover.degraded``)."""
        hw_ids = self.area.ready_wavefronts()
        if not hw_ids:
            return
        self.degraded += 1
        if self.tp_degraded.enabled:
            self.tp_degraded.fire(tuple(hw_ids))
        self._enqueue_scan(hw_ids)

    # -- GPU-side retry policy ----------------------------------------------

    def retry_decision(self, result: Any, attempt: int) -> bool:
        """Should a blocking call that returned ``result`` be retried?
        Yes for a transient errno (EINTR, EAGAIN) while under the
        attempt cap."""
        return (
            isinstance(result, int)
            and result < 0
            and -result in TRANSIENT_ERRNOS
            and attempt < self.max_syscall_retries
        )

    def retry_backoff_ns(self, attempt: int) -> float:
        """Capped exponential backoff for retry ``attempt`` (1-based)."""
        return min(self.retry_cap_ns, self.retry_base_ns * (2 ** (attempt - 1)))

    # -- host-side services --------------------------------------------------

    def set_completion_log_limit(self, limit: int) -> None:
        """Bound ``completion_log`` to the newest ``limit`` entries.

        ``limit`` == 0 restores the unbounded default.  Shrinking below
        the current length discards the oldest entries immediately and
        counts them as dropped, exactly as the append path would have.
        """
        if limit < 0:
            raise ValueError(f"completion_log_limit must be >= 0, got {limit}")
        self.completion_log_limit = limit
        if limit:
            while len(self.completion_log) > limit:
                self.completion_log.popleft()
                self.completion_log_dropped += 1

    def _when_no_outstanding(self) -> Event:
        """An event that fires when ``outstanding`` (> 0) next reaches zero."""
        if self._all_complete is None:
            self._all_complete = self.sim.event(name="genesys-drained")
        return self._all_complete

    def drain(self, timeout: Optional[float] = None) -> Generator[Any, Any, None]:
        """Process body: wait until all issued GPU syscalls completed.

        The paper's Section IX: a host-side call that must run before
        process termination because non-blocking GPU syscalls can outlive
        the GPU thread (and even the kernel) that issued them.

        Event-driven: sleeps on completion events instead of ticking, but
        re-checks on the historical 1 µs polling grid (anchored at the
        call, advanced by repeated addition exactly as the busy-wait loop
        did) so observed completion times are bit-identical.

        With ``timeout`` (simulated ns) the wait is bounded: if
        invocations or workqueue tasks are still in flight at the
        deadline, a :class:`DrainTimeout` is raised listing the stuck
        slots and tasks instead of hanging the event loop forever.
        """
        from repro.sim.engine import AnyOf

        workqueue = self.linux.workqueue
        sim = self.sim
        deadline = None if timeout is None else sim.now + timeout
        next_tick = sim.now
        while self.outstanding > 0 or workqueue.outstanding > 0:
            if deadline is not None and sim.now >= deadline:
                raise DrainTimeout(
                    f"drain: {self.outstanding} invocation(s) and "
                    f"{workqueue.outstanding} workqueue task(s) still in "
                    f"flight after {timeout:.0f}ns",
                    stuck=self.stuck_report(),
                )
            pending = (
                self._when_no_outstanding()
                if self.outstanding > 0
                else workqueue.when_idle()
            )
            if deadline is None:
                yield pending
            else:
                yield AnyOf([pending, sim.wake_at(deadline, name="drain-deadline")])
            while next_tick < sim.now:
                next_tick += 1000.0
            if next_tick > sim.now:
                yield sim.wake_at(next_tick, name="drain-grid")

    def stuck_report(self) -> List[str]:
        """Descriptions of every non-FREE slot and unfinished workqueue
        task, for DrainTimeout diagnostics."""
        stuck: List[str] = []
        for slot in self.area.materialized():
            if slot.state is SlotState.FREE:
                continue
            request = slot.request
            name = request.name if request is not None else "?"
            invocation = request.invocation_id if request is not None else "?"
            stuck.append(
                f"slot#{slot.index} {slot.state.value} name={name} "
                f"invocation={invocation} since={slot.last_transition_ns:.0f}ns"
            )
        stuck.extend(self.linux.workqueue.stuck_report())
        return stuck

    def stats(self) -> Dict[str, Any]:
        return {
            "interrupts_sent": self.interrupts_sent,
            "syscalls_completed": self.syscalls_completed,
            "outstanding": self.outstanding,
            "bundles": self.coalescer.bundles_flushed,
            "mean_bundle_size": self.coalescer.mean_bundle_size,
            "invocations": {g.value: n for g, n in self.invocation_counts.items()},
            "syscall_counts": dict(self.linux.syscall_counts),
            "completion_log_dropped": self.completion_log_dropped,
            "degraded": self.degraded,
            "slots_reclaimed": self.slots_reclaimed,
            "watchdog_ticks": self.watchdog_ticks,
            "syscall_retries": self.syscall_retries,
            "syscalls_shed": self.syscalls_shed,
            "sheds_by_stage": dict(sorted(self.sheds_by_stage.items())),
            "polled_scans": 0,  # a constant, kept: perfbench's goldens read it
            "slot_protocol_errors": self.area.protocol_errors,
            "net": self.linux.net.stats(),
        }
