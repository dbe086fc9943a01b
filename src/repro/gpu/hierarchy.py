"""The GPU execution hierarchy: kernels, work-groups, work-items.

Mirrors Section IV of the paper: work-items (threads) execute in
lockstep wavefronts; wavefronts group into programmer-visible
work-groups that can barrier-synchronise internally and share local
storage; hundreds of work-groups form a kernel.  Work-groups execute
independently and there is no global (inter-work-group) barrier — the
property that makes strong ordering at kernel granularity deadlock.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional, TYPE_CHECKING

from repro.sim.engine import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.device import Gpu


class WorkItemCtx:
    """Everything a work-item body can see.

    ``sys`` is the GENESYS device API (attached at launch when a runtime
    is bound); ``group.shared`` and ``kernel.shared`` are the local /
    global scratch dictionaries used to communicate functional data
    between work-items (standing in for LDS and global memory buffers).
    """

    __slots__ = ("kernel", "group", "global_id", "local_id", "args", "sys")

    def __init__(
        self,
        kernel: "KernelInstance",
        group: "WorkGroup",
        global_id: int,
        local_id: int,
        args: tuple,
    ):
        self.kernel = kernel
        self.group = group
        self.global_id = global_id
        self.local_id = local_id
        self.args = args
        self.sys = None  # bound by the GENESYS runtime at launch

    @property
    def group_id(self) -> int:
        return self.group.group_id

    @property
    def lane(self) -> int:
        """Lane index within the wavefront."""
        return self.local_id % self.kernel.gpu.config.wavefront_width

    @property
    def is_group_leader(self) -> bool:
        return self.local_id == 0

    @property
    def is_kernel_leader(self) -> bool:
        return self.global_id == 0

    def __repr__(self) -> str:
        return f"WorkItemCtx(g={self.global_id}, wg={self.group.group_id}, l={self.local_id})"


class WorkGroup:
    """A work-group: barrier domain + local shared storage.

    The barrier is generational: a barrier releases once every live
    (non-finished) work-item of the group has arrived.  Finished
    work-items implicitly satisfy barriers, matching the common GPU
    relaxation for early-exiting lanes.
    """

    def __init__(self, sim: Simulator, kernel: "KernelInstance", group_id: int, size: int):
        self.sim = sim
        self.kernel = kernel
        self.group_id = group_id
        self.size = size
        self.shared: Dict[str, Any] = {}
        self.cu_id: Optional[int] = None
        self.finished_items = 0
        self.finished_wavefronts = 0
        self.num_wavefronts = 0  # set by the dispatcher
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self._barrier_generation = 0
        self._barrier_arrived = 0
        self._barrier_event = sim.event(name=f"wg{group_id}-bar0")

    # -- barrier ---------------------------------------------------------

    def arrive_barrier(self) -> Event:
        """A work-item arrives at the group barrier; returns its wake event."""
        self._barrier_arrived += 1
        event = self._barrier_event
        self._maybe_release_barrier()
        return event

    def _maybe_release_barrier(self) -> None:
        if (
            self._barrier_arrived > 0
            and self._barrier_arrived + self.finished_items >= self.size
        ):
            released = self._barrier_event
            self._barrier_generation += 1
            self._barrier_arrived = 0
            self._barrier_event = self.sim.event(
                name=f"wg{self.group_id}-bar{self._barrier_generation}"
            )
            released.succeed(self._barrier_generation)

    # -- lifecycle ---------------------------------------------------------

    def work_item_finished(self) -> None:
        self.finished_items += 1
        if self.finished_items > self.size:
            raise RuntimeError(f"work-group {self.group_id}: too many finishes")
        self._maybe_release_barrier()

    def wavefront_finished(self) -> None:
        self.finished_wavefronts += 1
        if self.finished_wavefronts == self.num_wavefronts:
            self.end_time = self.sim.now

    def __repr__(self) -> str:
        return f"WorkGroup({self.group_id}, size={self.size}, cu={self.cu_id})"


class KernelInstance:
    """One launched kernel: its work-groups plus kernel-wide scratch.
    ``kernel_id`` is numbered by the :class:`Gpu` that launches it.

    Each work-group points at its kernel, so the kernel keeps only their
    count: :meth:`make_groups` hands the groups to the dispatcher, and a
    finished kernel and its groups are freed by reference counting.
    """

    def __init__(
        self,
        sim: Simulator,
        gpu: "Gpu",
        func: Callable[[WorkItemCtx], Generator],
        global_size: int,
        workgroup_size: int,
        args: tuple,
        name: str = "",
        kernel_id: int = 0,
    ):
        if global_size < 1:
            raise ValueError("global_size must be >= 1")
        if workgroup_size < 1:
            raise ValueError("workgroup_size must be >= 1")
        self.sim = sim
        self.gpu = gpu
        self.func = func
        self.global_size = global_size
        self.workgroup_size = workgroup_size
        self.args = args
        self.name = name or getattr(func, "__name__", "kernel")
        self.kernel_id = kernel_id
        self.shared: Dict[str, Any] = {}
        self.completion = sim.event(name=f"kernel{self.kernel_id}-done")
        self.start_time: Optional[float] = None
        self.end_time: Optional[float] = None
        self.num_groups = -(-global_size // workgroup_size)
        self._finished_groups = 0

    def make_groups(self) -> List[WorkGroup]:
        """The kernel's work-groups in id order; the last may be short."""
        size = self.workgroup_size
        return [
            WorkGroup(self.sim, self, group_id, min(size, self.global_size - first))
            for group_id, first in enumerate(range(0, self.global_size, size))
        ]

    def group_finished(self) -> None:
        self._finished_groups += 1
        if self._finished_groups == self.num_groups:
            self.end_time = self.sim.now
            self.completion.succeed()

    def make_ctx(self, group: WorkGroup, local_id: int) -> WorkItemCtx:
        global_id = group.group_id * self.workgroup_size + local_id
        return WorkItemCtx(self, group, global_id, local_id, self.args)

    def __repr__(self) -> str:
        return (
            f"KernelInstance({self.name!r}, global={self.global_size}, "
            f"wg={self.workgroup_size}, groups={self.num_groups})"
        )
