"""The device-side system-call API (what kernel code sees as ``ctx.sys``).

Every POSIX call is available with per-invocation control over the
Section-V design axes::

    n = yield from ctx.sys.pread(fd, buf, count, offset,
                                 granularity=Granularity.WORK_GROUP,
                                 ordering=Ordering.RELAXED,
                                 blocking=True,
                                 wait=WaitMode.POLL)

Every method returns a sub-generator composed of the primitive GPU ops, so
claiming the slot costs a cmp-swap per try, populating it costs real
stores, the state change costs a swap, polling costs atomic-loads against
the L2, and halting costs the resume latency — the Table-IV / Figure-9
effects arise from the same code path the workloads use.  The claim and
completion-poll loops are :class:`~repro.gpu.ops.Spin` ops, so the
executor runs them without resuming the work-item on every poll.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple, TYPE_CHECKING

from repro.core.invocation import (
    Granularity,
    Ordering,
    SyscallKind,
    SyscallRequest,
    WaitMode,
    syscall_kind,
)
from repro.core.syscall_area import Slot, SlotState
from repro.gpu.ops import Atomic, Barrier, Do, L1Flush, MemWrite, Sleep, Spin, WaitAll
from repro.memory.buffers import Buffer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.genesys import Genesys
    from repro.gpu.hierarchy import WorkItemCtx
    from repro.gpu.wavefront import Wavefront

# Bound once: every lane of a work-group call runs ``invoke`` and
# ``_workgroup_invoke``, and a member lookup through its Enum class costs
# about eight times a module-global load (``EnumType`` defines
# ``__getattr__``, which slows every class-attribute load).
_WORK_ITEM = Granularity.WORK_ITEM
_WORK_GROUP = Granularity.WORK_GROUP
_KERNEL = Granularity.KERNEL
_STRONG = Ordering.STRONG
_POLL = WaitMode.POLL
_PRODUCER = SyscallKind.PRODUCER
_CONSUMER = SyscallKind.CONSUMER
#: The one barrier op every work-group call yields: ops are immutable to
#: the executor, so its lanes need not allocate one each.
_BARRIER = Barrier()


class SyscallHandle:
    """Returned by non-blocking invocations: completion can be checked
    (but the paper's model is fire-and-forget plus a host-side drain)."""

    __slots__ = ("slot", "request", "completion")

    def __init__(self, slot: Slot, request: SyscallRequest) -> None:
        self.slot = slot
        self.request = request
        # Captured now: the lane's next call repopulates the slot with a
        # fresh event, and this handle must still report its own call.
        self.completion = slot.completion

    @property
    def done(self) -> bool:
        completion = self.completion
        return completion is not None and completion.triggered


class _SlotOps:
    """Pre-built op objects for one work-item's fixed syscall slot.

    The slot protocol yields the same op sequence on every invocation
    (same addresses, same latencies); op objects are immutable to the
    executor, so building them once per work-item makes an invocation
    allocate no ops.  ``claim`` and ``poll`` are the protocol's two
    spins: cmp-swap until the slot is FREE, and atomic-load until it is
    FINISHED, each sleeping ``poll_interval_ns`` between tries.  Every
    try still issues its atomic through the L2/DRAM cost model.

    No op refers back to this object, so a retired work-item's ops are
    freed by reference counting, not left to the cyclic collector.
    """

    __slots__ = (
        "slot",
        "claim",
        "populate_write",
        "publish_swap",
        "set_ready",
        "note_issued",
        "sendmsg",
        "raise_irq",
        "poll",
        "get_completion",
        "consume",
        "pending",
        "populate_do",
    )

    def __init__(
        self, genesys: "Genesys", slot: Slot, hw_id: int, cfg: Any
    ) -> None:
        self.slot = slot
        self.claim = Spin(
            Atomic("cmp-swap", slot.addr), slot.try_claim, cfg.poll_interval_ns
        )
        self.populate_write = MemWrite(slot.addr, cfg.cacheline_bytes)
        self.publish_swap = Atomic("swap", slot.addr)
        self.set_ready = Do(slot.set_ready)
        self.note_issued: Dict[Granularity, Do] = {
            g: Do(lambda g=g: genesys.note_issued(g, slot)) for g in Granularity
        }
        self.sendmsg = Sleep(cfg.sendmsg_ns)
        self.raise_irq = Do(lambda: genesys.raise_interrupt(hw_id, slot))
        # Bound once: an enum member lookup costs more than the rest of
        # this check, which runs on every poll.
        finished = SlotState.FINISHED
        self.poll = Spin(
            Atomic("atomic-load", slot.addr),
            lambda: slot.state is finished,
            cfg.poll_interval_ns,
        )
        self.get_completion = Do(lambda: slot.completion)
        self.consume = Do(slot.consume)
        # The one per-invocation variable in the protocol is the request
        # itself; it travels through this one-element cell so the
        # populate op can be pre-built like every other op instead of
        # allocating a fresh Do + closure on each invocation.
        pending: List[Optional[SyscallRequest]] = [None]

        def populate_pending() -> None:
            request, pending[0] = pending[0], None
            slot.populate(request)

        self.pending = pending
        self.populate_do = Do(populate_pending)


class DeviceApi:
    """One work-item's ``ctx.sys``.

    Holds the values of its work-item it uses (group, kernel, lane,
    leader flags, hardware wavefront id), never the ``WorkItemCtx`` or
    ``Wavefront`` themselves: the context refers to this object, so a
    reference back would make every work-item a cycle for the collector.
    """

    __slots__ = (
        "_genesys",
        "_group",
        "_kernel",
        "_lane",
        "_hw_id",
        "_is_group_leader",
        "_is_kernel_leader",
        "_seq",
        "_ops",
    )

    def __init__(
        self, genesys: "Genesys", ctx: "WorkItemCtx", wavefront: "Wavefront"
    ) -> None:
        self._genesys = genesys
        self._group = ctx.group
        self._kernel = ctx.kernel
        # Built for every work-item, so the leader flags and lane (as the
        # syscall area indexes it) are read off the ids directly rather
        # than through the context's properties.
        local_id = ctx.local_id
        self._lane = local_id % genesys.config.wavefront_width
        self._hw_id = wavefront.hw_id
        self._is_group_leader = local_id == 0
        self._is_kernel_leader = ctx.global_id == 0
        self._seq = 0
        self._ops: Optional[_SlotOps] = None

    # -- the generic entry point ----------------------------------------------

    def invoke(
        self,
        name: str,
        *args: Any,
        granularity: Granularity = Granularity.WORK_ITEM,
        ordering: Ordering = Ordering.STRONG,
        blocking: bool = True,
        wait: WaitMode = WaitMode.POLL,
    ) -> Generator[Any, Any, Any]:
        """Invoke syscall ``name`` with the given strategy.

        Returns the strategy's sub-generator: ``invoke`` and the POSIX
        wrappers are plain functions, so every lane resume skips their
        frames.  The generator's value is the call's result for blocking
        invocations reaching this work-item (see below), a
        :class:`SyscallHandle` for non-blocking ones, and ``None`` for
        work-items that merely cooperate:

        * WORK_ITEM — every work-item invokes for itself (implies strong
          ordering: the caller itself is ordered around its own call).
        * WORK_GROUP — the group leader (local id 0) invokes; barriers
          surround the call per ``ordering``; producer results are
          published to the whole group, consumer results only reach the
          leader.
        * KERNEL — the kernel leader (global id 0) invokes for the whole
          launch; requires relaxed ordering (strong would deadlock).
        """
        if granularity is _WORK_ITEM:
            return self._raw_invoke(name, args, blocking, wait, granularity)
        if granularity is _WORK_GROUP:
            return self._workgroup_invoke(
                name, args, syscall_kind(name), ordering, blocking, wait
            )
        if granularity is _KERNEL:
            return self._kernel_invoke(name, args, ordering, blocking, wait)
        raise ValueError(f"unknown granularity {granularity!r}")

    # -- granularity strategies ---------------------------------------------

    def _workgroup_invoke(
        self,
        name: str,
        args: Tuple[Any, ...],
        kind: SyscallKind,
        ordering: Ordering,
        blocking: bool,
        wait: WaitMode,
    ) -> Generator[Any, Any, Any]:
        self._seq += 1
        key = ("sysres", self._seq)
        group = self._group
        pre_barrier = ordering is _STRONG or kind is _CONSUMER
        post_barrier = ordering is _STRONG or kind is _PRODUCER
        if pre_barrier:
            yield _BARRIER
        if self._is_group_leader:
            result = yield from self._raw_invoke(name, args, blocking, wait, _WORK_GROUP)
            group.shared[key] = result
        if post_barrier:
            yield _BARRIER
            return group.shared.get(key)
        # Relaxed consumer: only the leader observes the return value.
        return group.shared.get(key) if self._is_group_leader else None

    def _kernel_invoke(
        self,
        name: str,
        args: Tuple[Any, ...],
        ordering: Ordering,
        blocking: bool,
        wait: WaitMode,
    ) -> Generator[Any, Any, Any]:
        from repro.core.genesys import OrderingError

        if ordering is _STRONG:
            raise OrderingError(
                "strong ordering at kernel granularity can deadlock: a kernel "
                "may hold more work-items than can execute concurrently and "
                "GPU runtimes do not preempt (Section V-A)"
            )
        if not self._is_kernel_leader:
            return None
        result = yield from self._raw_invoke(name, args, blocking, wait, _KERNEL)
        self._kernel.shared[("sysres", name)] = result
        return result

    # -- the slot protocol (Figure 6, GPU side) --------------------------------

    def _raw_invoke(
        self,
        name: str,
        args: Tuple[Any, ...],
        blocking: bool,
        wait: WaitMode,
        granularity: Granularity,
    ) -> Generator[Any, Any, Any]:
        genesys = self._genesys
        hw_id = self._hw_id
        ops = self._ops
        if ops is None:
            ops = self._ops = _SlotOps(
                genesys,
                genesys.area.slot_for(hw_id, self._lane),
                hw_id,
                genesys.config,
            )
        slot = ops.slot
        # Retry loop: each attempt is a full slot-protocol round trip
        # with its own invocation id, so retries cost real simulated ops
        # and show up as separate invocations in spans.  ``attempt``
        # only advances when a blocking call returns a transient errno
        # the retry policy accepts; the fault-free path runs the body
        # exactly once, byte-identical to the loop-free design.
        attempt = 0
        while True:
            # Mint the invocation id (and fire the tracing origin mark) in
            # plain Python between ops: the lane's op stream — and therefore
            # every simulated timestamp — is identical traced or not.
            invocation_id = genesys.begin_invocation(
                name, hw_id, self._lane, granularity, blocking, wait
            )
            request = SyscallRequest(
                name,
                args,
                blocking,
                genesys.host_process,
                invocation_id=invocation_id,
                deadline_ns=genesys.mint_deadline(),
            )

            # Claim: cmp-swap until the slot is FREE (a previous non-blocking
            # call of ours may still be in flight — invocation is delayed).
            yield ops.claim

            # Consumer calls hand GPU-written buffers to the CPU: flush the
            # non-coherent L1 so the CPU sees the data (Section VI).
            if syscall_kind(name) is _CONSUMER:
                for arg in args:
                    if isinstance(arg, Buffer):
                        yield L1Flush(arg.addr, arg.size)

            # Populate the 64-byte slot, then publish with an atomic swap.
            ops.pending[0] = request
            yield ops.populate_do
            yield ops.populate_write
            yield ops.publish_swap
            yield ops.set_ready
            yield ops.note_issued[granularity]

            # Interrupt the CPU (s_sendmsg scalar instruction).
            yield ops.sendmsg
            yield ops.raise_irq

            if not blocking:
                return SyscallHandle(slot, request)

            if wait is _POLL:
                yield ops.poll
            else:
                completion = yield ops.get_completion
                yield WaitAll([completion])

            # The caller proceeds: the tracing resume mark, fired inline at
            # the instant the work-item's next op is requested (after any
            # halt-resume charge), again without adding an op.
            if genesys.tp_resume.enabled:
                genesys.tp_resume.fire(invocation_id, name, hw_id)

            # Consume the result and free the slot (FINISHED -> FREE).
            yield ops.publish_swap
            result = yield ops.consume
            if genesys.retry_decision(result, attempt):
                attempt += 1
                genesys.syscall_retries += 1
                backoff_ns = genesys.retry_backoff_ns(attempt)
                if genesys.tp_retry.enabled:
                    genesys.tp_retry.fire(
                        invocation_id, name, -result, attempt, backoff_ns
                    )
                yield Sleep(backoff_ns)
                continue
            return result

    # -- POSIX-named conveniences ------------------------------------------------

    def open(self, path: str, flags: int = 0, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("open", path, flags, **opts)

    def close(self, fd: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("close", fd, **opts)

    def read(self, fd: int, buf: Buffer, count: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("read", fd, buf, count, **opts)

    def write(self, fd: int, buf: Buffer, count: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("write", fd, buf, count, **opts)

    def pread(self, fd: int, buf: Buffer, count: int, offset: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("pread", fd, buf, count, offset, **opts)

    def pwrite(self, fd: int, buf: Buffer, count: int, offset: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("pwrite", fd, buf, count, offset, **opts)

    def lseek(self, fd: int, offset: int, whence: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("lseek", fd, offset, whence, **opts)

    def socket(self, host: str = "localhost", **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("socket", host, **opts)

    def bind(self, fd: int, port: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("bind", fd, port, **opts)

    def sendto(self, fd: int, buf: Buffer, count: int, dest: Tuple[str, int], **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("sendto", fd, buf, count, dest, **opts)

    def recvfrom(self, fd: int, buf: Buffer, count: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("recvfrom", fd, buf, count, **opts)

    def mmap(self, length: int, fd: Optional[int] = None, offset: int = 0, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("mmap", length, fd, offset, **opts)

    def munmap(self, addr: int, length: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("munmap", addr, length, **opts)

    def madvise(self, addr: int, length: int, advice: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("madvise", addr, length, advice, **opts)

    def getrusage(self, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("getrusage", **opts)

    def rt_sigqueueinfo(self, pid: int, signo: int, value: int, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("rt_sigqueueinfo", pid, signo, value, **opts)

    def ioctl(self, fd: int, cmd: int, arg: Any = None, **opts: Any) -> Generator[Any, Any, Any]:
        return self.invoke("ioctl", fd, cmd, arg, **opts)
