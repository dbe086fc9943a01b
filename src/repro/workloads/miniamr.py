"""miniAMR: GPU-directed memory management (Section VIII-A, Figure 11).

A 3D-stencil adaptive-mesh-refinement proxy whose memory needs vary with
the (data-dependent) refinement level.  The dataset is sized just past
the physical-memory limit, so a version that never returns memory to the
OS thrashes the swap until the GPU driver's watchdog kills it — the
paper's baseline "simply does not complete".

With GENESYS, work-groups call ``getrusage`` directly from the GPU and,
whenever the resident set exceeds a watermark, ``madvise(MADV_DONTNEED)``
the blocks that the current refinement level no longer needs.  The
watermark trades memory footprint for runtime (rss-3GB vs rss-4GB in
Figure 11); everything here is scaled ~1000x down.
"""

from __future__ import annotations

import math
from typing import Generator, List, Optional

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu.ops import Compute, Do, Sleep
from repro.oskernel.mm import GpuTimeoutError, MADV_DONTNEED
from repro.system import System
from repro.workloads.base import WorkloadResult

#: Stencil compute cost per touched page per timestep.
STENCIL_CYCLES_PER_PAGE = 400.0


class MiniAmrWorkload:
    def __init__(
        self,
        system: System,
        num_blocks: int = 48,
        block_bytes: int = 64 * 1024,
        timesteps: int = 24,
        workgroup_size: int = 16,
    ):
        self.system = system
        self.num_blocks = num_blocks
        self.block_bytes = block_bytes
        self.timesteps = timesteps
        self.workgroup_size = workgroup_size
        self.block_addrs: List[int] = []
        aspace = system.host.address_space
        for _ in range(num_blocks):
            self.block_addrs.append(aspace.mmap(block_bytes))

    @property
    def dataset_bytes(self) -> int:
        return self.num_blocks * self.block_bytes

    def active_blocks(self, step: int) -> List[int]:
        """Refinement schedule: the active fraction oscillates between
        ~45% and 100% of the mesh (turbulent regions refine and coarsen)."""
        frac = 0.50 + 0.15 * math.sin(2 * math.pi * step / 12.0)
        count = max(1, int(self.num_blocks * frac))
        # Rotate which blocks are active so the working set shifts.
        start = (step * 7) % self.num_blocks
        return [(start + i) % self.num_blocks for i in range(count)]

    def run(
        self,
        rss_watermark_bytes: Optional[int] = None,
        use_madvise: bool = True,
    ) -> WorkloadResult:
        """Run the simulation; without madvise this may raise
        :class:`GpuTimeoutError` (reported in the result instead)."""
        system = self.system
        aspace = system.host.address_space
        addrs = self.block_addrs
        block_bytes = self.block_bytes
        watermark = rss_watermark_bytes or int(0.75 * self.dataset_bytes)
        pages_per_block = block_bytes // system.config.page_bytes
        wg_opts = dict(
            granularity=Granularity.WORK_GROUP,
            ordering=Ordering.RELAXED,
            wait=WaitMode.POLL,
        )
        start = system.now
        timed_out: List[str] = []

        def step_kernel(ctx) -> Generator:
            active = ctx.args[0]
            # Each work-group owns a slice of active blocks.
            per_group = -(-len(active) // ctx.kernel.num_groups)
            lo = ctx.group_id * per_group
            hi = min(len(active), lo + per_group)
            for bidx in active[lo:hi]:
                addr = addrs[bidx]
                if ctx.is_group_leader:
                    # The group touches the block's pages (faulting them
                    # in through the driver if needed)...
                    stall, _majors = yield Do(
                        lambda a=addr: aspace.fault_in_gpu(a, block_bytes)
                    )
                    if stall:
                        yield Sleep(stall)
                # ...and everyone computes the stencil on its share.
                yield Compute(STENCIL_CYCLES_PER_PAGE * pages_per_block / ctx.group.size)
            if not use_madvise:
                return
            # GENESYS memory management: query RSS; above the watermark,
            # return the inactive blocks to the OS.
            if ctx.is_group_leader and ctx.group_id == 0:
                usage = yield from ctx.sys.getrusage(
                    granularity=Granularity.WORK_ITEM, wait=WaitMode.POLL
                )
                del usage  # decision below uses live RSS via the watermark
            rss = aspace.rss_bytes
            if rss > watermark:
                live = set(active)
                inactive = [i for i in range(len(addrs)) if i not in live]
                per_group_inactive = [
                    b for j, b in enumerate(inactive)
                    if j % ctx.kernel.num_groups == ctx.group_id
                ]
                for bidx in per_group_inactive:
                    yield from ctx.sys.madvise(
                        addrs[bidx], block_bytes, MADV_DONTNEED,
                        blocking=False, **wg_opts
                    )

        def main() -> Generator:
            for step in range(self.timesteps):
                active = self.active_blocks(step)
                groups = min(8, len(active))
                yield system.launch(
                    step_kernel,
                    global_size=groups * self.workgroup_size,
                    workgroup_size=self.workgroup_size,
                    args=(active,),
                    name=f"amr-step{step}",
                )
                # Let outstanding madvise calls land before the next step.
                yield from system.genesys.drain()

        try:
            system.run_to_completion(main(), name="miniamr")
        except GpuTimeoutError as err:
            timed_out.append(str(err))
        variant = (
            f"madvise-wm{watermark // (1024 * 1024)}MB" if use_madvise else "baseline"
        )
        return WorkloadResult(
            "miniamr",
            variant,
            system.now - start,
            {
                "completed": not timed_out,
                "timeout": timed_out[0] if timed_out else None,
                "peak_rss_bytes": aspace.peak_rss_pages * aspace.page_bytes,
                "major_faults": aspace.major_faults,
                "minor_faults": aspace.minor_faults,
                "rss_series": aspace.rss_series(),
                "watermark_bytes": watermark if use_madvise else None,
            },
        )
