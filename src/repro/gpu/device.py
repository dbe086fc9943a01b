"""The GPU device: kernel launch, work-group dispatch, wavefront slots.

Work-groups dispatch strictly in order onto the first compute unit with
enough free wavefront slots (a kernel can hold far more work-groups than
fit — GPU runtimes do not preempt, which is why kernel-granularity
strong ordering deadlocks, Section V-A).  Slots release per wavefront as
wavefronts retire, so work-groups whose trailing wavefronts linger on a
blocking syscall free most of their resources early — the weak-blocking
effect of Figure 8.
"""

from __future__ import annotations

from collections import deque
from math import ceil
from typing import Callable, Deque, Generator, List, Optional, Tuple

from repro.gpu.compute_unit import ComputeUnit
from repro.gpu.hierarchy import KernelInstance, WorkGroup, WorkItemCtx
from repro.gpu.wavefront import Wavefront
from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Event, Process, Simulator
from repro.sim.stats import UtilizationTracker


class KernelLaunch:
    """Launch descriptor for :meth:`Gpu.launch`."""

    __slots__ = ("func", "global_size", "workgroup_size", "args", "name")

    def __init__(
        self,
        func: Callable[[WorkItemCtx], Generator],
        global_size: int,
        workgroup_size: int,
        args: tuple = (),
        name: str = "",
    ):
        self.func = func
        self.global_size = global_size
        self.workgroup_size = workgroup_size
        self.args = args
        self.name = name or getattr(func, "__name__", "kernel")


class Gpu:
    """The simulated GPU device."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        memsystem: MemorySystem,
        probes: Optional[ProbeRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.memsystem = memsystem
        self.probes = probes if probes is not None else ProbeRegistry(sim)
        self.cus = [
            ComputeUnit(cu_id, config.wavefront_slots_per_cu)
            for cu_id in range(config.num_cus)
        ]
        tp_alloc = self.probes.tracepoint(
            "gpu.slots.alloc", ("cu_id", "count"), "wavefront slots claimed on a CU"
        )
        tp_release = self.probes.tracepoint(
            "gpu.slots.release", ("cu_id", "slot_id"), "a retiring wavefront freed its slot"
        )
        for cu in self.cus:
            cu.tp_alloc = tp_alloc
            cu.tp_release = tp_release
        self.tp_wf_halt = self.probes.tracepoint(
            "wavefront.halt",
            ("hw_id", "live_lanes"),
            "every lane blocked; the wavefront went to sleep",
        )
        self.tp_wf_resume = self.probes.tracepoint(
            "wavefront.resume",
            ("hw_id", "halted_ns"),
            "a sleeping wavefront woke up; halted_ns = time asleep",
        )
        self.tp_wf_occupancy = self.probes.tracepoint(
            "gpu.wf.occupancy",
            ("halted", "live"),
            "gauge: halted vs live wavefronts after a start/halt/resume/retire",
        )
        self.tp_lanes_runnable = self.probes.tracepoint(
            "gpu.lanes.runnable",
            ("hw_id", "runnable", "live"),
            "gauge: runnable vs live lanes after a wavefront lane-set change",
        )
        #: Gauge state behind ``gpu.wf.occupancy``.
        self.live_wavefronts = 0
        self.halted_wavefronts = 0
        self.utilization = UtilizationTracker(
            sim, config.num_cus * config.wavefront_slots_per_cu, name="gpu-slots"
        )
        self._pending: Deque[Tuple[KernelInstance, WorkGroup]] = deque()
        self._dispatcher_wake: Optional[Event] = None
        self._dispatcher_active = False
        #: Hook installed by the GENESYS runtime to give every work-item a
        #: device-side syscall API before its generator is created.
        self.workitem_binder: Optional[Callable[[WorkItemCtx, Wavefront], None]] = None
        self.kernels_launched = 0
        #: Aggregated lockstep-efficiency accounting over retired wavefronts.
        self.wavefront_stats = {
            "wavefronts": 0, "steps": 0, "lane_ops": 0, "divergent_steps": 0,
            "lane_slots": 0,
        }

    @property
    def simd_efficiency(self) -> float:
        """Whole-device mean fraction of lanes active per step."""
        if self.wavefront_stats["lane_slots"] == 0:
            return 1.0
        return self.wavefront_stats["lane_ops"] / self.wavefront_stats["lane_slots"]

    # -- public API -------------------------------------------------------

    def launch(self, launch: KernelLaunch) -> Process:
        """Asynchronously launch a kernel; the returned process completes
        when every work-group has retired, yielding the KernelInstance."""
        return self.sim.process(self._launch_body(launch), name=f"launch:{launch.name}")

    # -- dispatch ----------------------------------------------------------

    def _launch_body(self, launch: KernelLaunch) -> Generator:
        yield self.config.kernel_launch_ns
        kernel = KernelInstance(
            self.sim,
            self,
            launch.func,
            launch.global_size,
            launch.workgroup_size,
            launch.args,
            name=launch.name,
            kernel_id=self.kernels_launched,
        )
        kernel.start_time = self.sim.now
        self.kernels_launched += 1
        for group in kernel.groups:
            self._pending.append((kernel, group))
        self._kick_dispatcher()
        yield kernel.completion
        return kernel

    def _kick_dispatcher(self) -> None:
        if self._dispatcher_active:
            if self._dispatcher_wake is not None and not self._dispatcher_wake.triggered:
                self._dispatcher_wake.succeed()
        else:
            self._dispatcher_active = True
            self.sim.process(self._dispatch_loop(), name="gpu-dispatcher")

    def _dispatch_loop(self) -> Generator:
        while self._pending:
            kernel, group = self._pending[0]
            slots_needed = ceil(group.size / self.config.wavefront_width)
            placement = self._find_cu(slots_needed)
            if placement is None:
                self._dispatcher_wake = self.sim.event(name="dispatch-wake")
                yield self._dispatcher_wake
                self._dispatcher_wake = None
                continue
            self._pending.popleft()
            cu, slot_ids = placement
            self._start_group(kernel, group, cu, slot_ids)
        self._dispatcher_active = False

    def _find_cu(self, slots_needed: int) -> Optional[Tuple[ComputeUnit, List[int]]]:
        if slots_needed > self.config.wavefront_slots_per_cu:
            raise ValueError(
                f"work-group needs {slots_needed} wavefront slots; a CU has "
                f"only {self.config.wavefront_slots_per_cu}"
            )
        for cu in self.cus:
            slot_ids = cu.alloc_slots(slots_needed)
            if slot_ids is not None:
                return cu, slot_ids
        return None

    def _start_group(
        self, kernel: KernelInstance, group: WorkGroup, cu: ComputeUnit, slot_ids: List[int]
    ) -> None:
        group.cu_id = cu.cu_id
        group.start_time = self.sim.now
        width = self.config.wavefront_width
        ctxs = [kernel.make_ctx(group, local_id) for local_id in range(group.size)]
        wavefront_lanes = [ctxs[i : i + width] for i in range(0, group.size, width)]
        group.num_wavefronts = len(wavefront_lanes)
        for slot_id, lanes in zip(slot_ids, wavefront_lanes):
            wavefront = Wavefront(self.sim, self, group, lanes, cu.cu_id, slot_id)
            self.utilization.busy()
            self.live_wavefronts += 1
            self._note_occupancy()
            self.sim.process(wavefront.run(), name=f"wf:{wavefront.hw_id}")

    def _note_occupancy(self) -> None:
        if self.tp_wf_occupancy.enabled:
            self.tp_wf_occupancy.fire(self.halted_wavefronts, self.live_wavefronts)

    # -- callbacks from wavefronts ------------------------------------------

    def start_work_item(self, ctx: WorkItemCtx, wavefront: Wavefront) -> Generator:
        """Bind the device API (if a runtime is attached) and create the
        work-item generator."""
        if self.workitem_binder is not None:
            self.workitem_binder(ctx, wavefront)
        return ctx.kernel.func(ctx)

    def wavefront_finished(self, wavefront: Wavefront) -> None:
        stats = self.wavefront_stats
        stats["wavefronts"] += 1
        stats["steps"] += wavefront.steps
        stats["lane_ops"] += wavefront.lane_ops
        stats["divergent_steps"] += wavefront.divergent_steps
        stats["lane_slots"] += wavefront.steps * wavefront.width
        self.utilization.idle()
        self.live_wavefronts -= 1
        self._note_occupancy()
        self.cus[wavefront.cu_id].release_slot(wavefront.slot_id)
        group = wavefront.group
        group.wavefront_finished()
        if group.finished_wavefronts == group.num_wavefronts:
            group.kernel.group_finished()
        self._kick_dispatcher()
