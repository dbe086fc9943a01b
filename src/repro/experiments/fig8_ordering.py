"""Figure 8: blocking/non-blocking x strong/relaxed ordering sweep."""

from __future__ import annotations

from typing import Dict

from repro.core.invocation import Granularity, Ordering
from repro.experiments import ExperimentResult
from repro.gpu.ops import Compute
from repro.machine import MachineConfig
from repro.oskernel.fs import O_RDWR
from repro.system import System

NAME = "fig8"
TITLE = "Figure 8: blocking and ordering semantics"

BLOCK_BYTES = 8192
#: More work-groups than can be resident: freeing resources early
#: (non-blocking / weak ordering) lets the next groups start.
NUM_BLOCKS = 24
WG_SIZE = 256
PERMUTE_CYCLES_PER_ITER = 3000.0
ITERATIONS = (1, 4, 16, 32)

CONFIGS = (
    ("strong-block", Ordering.STRONG, True),
    ("strong-non-block", Ordering.STRONG, False),
    ("weak-block", Ordering.RELAXED, True),
    ("weak-non-block", Ordering.RELAXED, False),
)


def fig8_machine() -> MachineConfig:
    """2 CUs x 8 wavefront slots: four 256-work-item groups resident."""
    return MachineConfig(
        num_cus=2, wavefront_slots_per_cu=8, gpu_l2_lines=512, gpu_l1_lines=64
    )


def permute_time(iterations: int, ordering: Ordering, blocking: bool) -> float:
    """Time per permutation iteration for one configuration (ns)."""
    with System(config=fig8_machine()) as system:
        system.kernel.fs.create_file("/tmp/out", b"")
        buf = system.memsystem.alloc_buffer(BLOCK_BYTES)

        def kern(ctx):
            fd = ctx.kernel.shared.get("fd")
            if fd is None:
                fd = yield from ctx.sys.open(
                    "/tmp/out", O_RDWR,
                    granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
                )
                ctx.kernel.shared["fd"] = fd
            yield Compute(PERMUTE_CYCLES_PER_ITER * iterations)
            yield from ctx.sys.pwrite(
                fd, buf, BLOCK_BYTES, BLOCK_BYTES * ctx.group_id,
                granularity=Granularity.WORK_GROUP,
                ordering=ordering, blocking=blocking,
            )

        elapsed = system.run_kernel(kern, NUM_BLOCKS * WG_SIZE, WG_SIZE, name="fig8")
        return elapsed / iterations


def run_sweep() -> Dict[str, Dict[int, float]]:
    results: Dict[str, Dict[int, float]] = {}
    for name, ordering, blocking in CONFIGS:
        results[name] = {
            iters: permute_time(iters, ordering, blocking) for iters in ITERATIONS
        }
    return results


def run() -> ExperimentResult:
    results = run_sweep()
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        "Figure 8: time per permutation iteration (us)",
        ["iterations"] + [name for name, _, _ in CONFIGS],
        [
            tuple(
                [str(iters)]
                + [f"{results[name][iters] / 1000:.1f}" for name, _, _ in CONFIGS]
            )
            for iters in ITERATIONS
        ],
    )
    experiment.data = results
    return experiment
