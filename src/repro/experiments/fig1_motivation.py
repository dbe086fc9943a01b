"""Figure 1: why GPUs should invoke system calls at all.

The paper's motivating timeline: without GPU syscalls a conceptually
single kernel must be split around every OS service request — the CPU
loads data, launches a kernel, waits for it to finish, loads the next
chunk, launches again.  Each split is a global barrier plus a CPU-GPU
round trip.  With GENESYS one kernel requests data as it goes, and CPU
servicing overlaps GPU execution of other work-groups.

This experiment quantifies that: a streaming job that processes N
chunks of a file, run (a) conventionally with one kernel launch per
chunk and (b) as a single GENESYS kernel whose work-groups read their
own chunks.
"""

from __future__ import annotations

from typing import Generator

from repro.core.invocation import Granularity, Ordering
from repro.experiments import ExperimentResult
from repro.gpu.ops import Compute
from repro.machine import MachineConfig
from repro.oskernel.fs import O_RDONLY
from repro.system import System

NAME = "fig1"
TITLE = "Figure 1: kernel-split baseline vs direct GPU syscalls"

NUM_CHUNKS = 16
CHUNK_BYTES = 16384
WG_SIZE = 64
PROCESS_CYCLES_PER_BYTE = 2.0


def _populate(system: System) -> None:
    system.kernel.fs.create_file("/tmp/stream", b"\x5a" * (NUM_CHUNKS * CHUNK_BYTES))


def run_conventional() -> float:
    """One kernel launch per chunk; the CPU loads data between launches."""
    with System(config=MachineConfig()) as system:
        _populate(system)
        kernel = system.kernel
        proc = system.host
        staged = {}

        def process_kernel(ctx) -> Generator:
            data = staged["chunk"]
            per_item = len(data) // ctx.group.size
            yield Compute(per_item * PROCESS_CYCLES_PER_BYTE)

        def main() -> Generator:
            fd = yield from kernel.call(proc, "open", "/tmp/stream", O_RDONLY)
            buf = system.memsystem.alloc_buffer(CHUNK_BYTES)
            for chunk_no in range(NUM_CHUNKS):
                # load_data(buf): the CPU must fetch the chunk...
                n = yield from kernel.call(
                    proc, "pread", fd, buf, CHUNK_BYTES, chunk_no * CHUNK_BYTES
                )
                staged["chunk"] = bytes(buf.data[:n])
                # ...then launch a fresh kernel to process it, and wait.
                yield system.launch(process_kernel, WG_SIZE, WG_SIZE, name="conv")
            yield from kernel.call(proc, "close", fd)

        start = system.now
        system.run_to_completion(main(), name="fig1-conventional")
        return system.now - start


def run_genesys() -> float:
    """A single kernel; each work-group preads and processes its chunk."""
    with System(config=MachineConfig()) as system:
        _populate(system)
        bufs = {}

        def kern(ctx) -> Generator:
            fd = yield from ctx.sys.open(
                "/tmp/stream", O_RDONLY,
                granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
            )
            if ctx.group_id not in bufs:
                bufs[ctx.group_id] = system.memsystem.alloc_buffer(CHUNK_BYTES)
            buf = bufs[ctx.group_id]
            yield from ctx.sys.pread(
                fd, buf, CHUNK_BYTES, ctx.group_id * CHUNK_BYTES,
                granularity=Granularity.WORK_GROUP, ordering=Ordering.RELAXED,
            )
            yield Compute(CHUNK_BYTES // WG_SIZE * PROCESS_CYCLES_PER_BYTE)
            yield from ctx.sys.close(
                fd, granularity=Granularity.WORK_GROUP,
                ordering=Ordering.RELAXED, blocking=False,
            )

        start = system.now
        system.run_kernel(kern, NUM_CHUNKS * WG_SIZE, WG_SIZE, name="fig1-genesys")
        return system.now - start, system.gpu.kernels_launched


def run() -> ExperimentResult:
    conventional = run_conventional()
    genesys, genesys_launches = run_genesys()
    result = ExperimentResult(NAME)
    result.add_table(
        TITLE,
        ["variant", "kernel launches", "runtime (ms)", "speedup"],
        [
            ("conventional (split kernels)", NUM_CHUNKS, f"{conventional / 1e6:.3f}", "1.00x"),
            ("GENESYS (one kernel)", genesys_launches, f"{genesys / 1e6:.3f}",
             f"{conventional / genesys:.2f}x"),
        ],
    )
    result.data = {
        "conventional_ns": conventional,
        "genesys_ns": genesys,
        "genesys_launches": genesys_launches,
        "speedup": conventional / genesys,
    }
    return result
