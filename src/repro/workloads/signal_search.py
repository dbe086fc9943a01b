"""signal-search: GPU→CPU asynchronous notification (Section VIII-B).

A two-phase map-reduce.  Phase 1 — a highly parallel lookup over blocks
of a data array — fits the GPU; phase 2 — SHA-512 checksums of the
retrieved blocks — fits the CPU (hardware SHA acceleration).  Without
GPU signal support the phases serialise: the whole lookup kernel must
finish before the CPU may start hashing.  With GENESYS, each work-group
emits ``rt_sigqueueinfo`` as it completes its block, passing the block
id through the siginfo value, and a CPU thread draining ``sigwaitinfo``
overlaps hashing with the still-running kernel — the paper's ~14%
speedup (Figure 12).

Checksums are computed for real (hashlib.sha512).
"""

from __future__ import annotations

import hashlib
from typing import Dict, Generator, Tuple

from repro.core.invocation import Granularity, Ordering, WaitMode
from repro.gpu.ops import Compute
from repro.oskernel.signals import SIGRTMIN
from repro.system import System
from repro.workloads.base import DeterministicRandom, WorkloadResult, shared_input

#: Per-byte costs: GPU parallel lookup and CPU SHA-512 (with SHA-NI).
GPU_LOOKUP_CYCLES_PER_BYTE = 130.0
CPU_SHA_NS_PER_BYTE = 1.5
SIG_BLOCK_DONE = SIGRTMIN + 2
#: Work-groups stride over the blocks, so block completions stagger in
#: time and the CPU can start hashing early ones while later ones run.
NUM_GROUPS = 8


def signal_blocks(
    num_blocks: int, block_bytes: int, seed: int
) -> Tuple[Tuple[bytes, ...], Tuple[str, ...]]:
    """The signal-search input: the data blocks and their SHA-512
    hex digests."""
    rng = DeterministicRandom(seed)
    blocks = tuple(rng.bytes(block_bytes) for _ in range(num_blocks))
    return blocks, tuple(hashlib.sha512(b).hexdigest() for b in blocks)


class SignalSearchWorkload:
    def __init__(
        self,
        system: System,
        num_blocks: int = 32,
        block_bytes: int = 32768,
        workgroup_size: int = 64,
        seed: int = 11,
    ):
        self.system = system
        self.num_blocks = num_blocks
        self.block_bytes = block_bytes
        self.workgroup_size = workgroup_size
        self._input = shared_input(signal_blocks, num_blocks, block_bytes, seed)
        blocks, digests = self._input.value
        self.blocks: Tuple[bytes, ...] = blocks
        self.expected: Dict[int, str] = dict(enumerate(digests))

    def _lookup_kernel(self, on_block_done):
        """Phase-1 kernel: work-groups stride over the blocks; after each
        block, ``on_block_done`` (a sub-generator factory or None) runs."""
        blocks = self.blocks
        cycles = GPU_LOOKUP_CYCLES_PER_BYTE

        def kern(ctx) -> Generator:
            for block_id in range(ctx.group_id, len(blocks), ctx.kernel.num_groups):
                data = blocks[block_id]
                per_item = -(-len(data) // ctx.group.size)
                yield Compute(per_item * cycles)
                if on_block_done is not None:
                    # Work-group-granularity call: every lane participates
                    # (the API designates the leader internally).
                    yield from on_block_done(ctx, block_id)

        return kern

    def _hash_block(self, block_id: int, digests: Dict[int, str]) -> Generator:
        """CPU phase-2 work for one block (process body)."""
        data = self.blocks[block_id]
        yield from self.system.cpu.run(len(data) * CPU_SHA_NS_PER_BYTE)
        digests[block_id] = hashlib.sha512(data).hexdigest()

    # -- baseline: phases serialise -------------------------------------------

    def run_baseline(self) -> WorkloadResult:
        system = self.system
        digests: Dict[int, str] = {}
        start = system.now

        def main() -> Generator:
            groups = min(NUM_GROUPS, self.num_blocks)
            yield system.launch(
                self._lookup_kernel(None),
                global_size=groups * self.workgroup_size,
                workgroup_size=self.workgroup_size,
                name="lookup",
            )
            for block_id in range(self.num_blocks):
                yield from self._hash_block(block_id, digests)

        system.run_to_completion(main(), name="signal-search-base")
        return WorkloadResult(
            "signal-search", "baseline", system.now - start, {"digests": digests}
        )

    # -- GENESYS: signals overlap the phases ------------------------------------

    def run_genesys(self) -> WorkloadResult:
        system = self.system
        host = system.host
        digests: Dict[int, str] = {}
        start = system.now

        def on_done(ctx, block_id: int) -> Generator:
            # Non-blocking work-group invocation.  Strong ordering keeps
            # the group's lanes at the post-call barrier for the few
            # microseconds the leader needs to issue the signal, so the
            # notification leaves as soon as the block is done instead
            # of being dragged behind the next block's compute.
            yield from ctx.sys.rt_sigqueueinfo(
                host.pid,
                SIG_BLOCK_DONE,
                block_id,
                granularity=Granularity.WORK_GROUP,
                ordering=Ordering.STRONG,
                blocking=False,
                wait=WaitMode.POLL,
            )

        def cpu_consumer() -> Generator:
            for _ in range(self.num_blocks):
                info = yield from host.signals.sigwaitinfo()
                assert info.signo == SIG_BLOCK_DONE
                yield from self._hash_block(info.value, digests)

        def main() -> Generator:
            consumer = system.sim.process(cpu_consumer(), name="sha-consumer")
            groups = min(NUM_GROUPS, self.num_blocks)
            yield system.launch(
                self._lookup_kernel(on_done),
                global_size=groups * self.workgroup_size,
                workgroup_size=self.workgroup_size,
                name="lookup-sig",
            )
            yield consumer

        system.run_to_completion(main(), name="signal-search-genesys")
        return WorkloadResult(
            "signal-search", "genesys", system.now - start, {"digests": digests}
        )
