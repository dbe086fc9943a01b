"""The assembled memory system: per-CU L1s, shared L2, shared DRAM.

Timing paths (all methods are process bodies for the simulation engine):

* ``gpu_load`` / ``gpu_store`` — L1 (non-coherent, per CU) → L2 → DRAM.
* ``gpu_atomic`` — bypasses the L1 entirely (the Section-VI coherence
  trick), pays the Table-IV atomic latency, and on an L2 miss also moves
  a cacheline through the shared DRAM channel.  A polling loop over more
  lines than the L2 holds therefore floods DRAM — Figure 9.
* ``cpu_stream_access`` — CPU-side streaming access through the same
  DRAM channel, used to measure CPU throughput under GPU contention.
* ``gpu_l1_flush_range`` — the manual software-coherence flush GENESYS
  performs before handing syscall buffers to the CPU.
"""

from __future__ import annotations

from typing import Generator, List, Optional

from repro.machine import MachineConfig
from repro.memory.atomics import AtomicCostModel
from repro.memory.buffers import AddressAllocator, Buffer
from repro.memory.cache import Cache, lines_covering
from repro.memory.dram import Dram
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Simulator


class MemorySystem:
    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        probes: Optional[ProbeRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.probes = probes if probes is not None else ProbeRegistry(sim)
        self.dram = Dram(sim, config, probes=self.probes)
        self.atomics = AtomicCostModel(config)
        self.allocator = AddressAllocator(alignment=config.cacheline_bytes)
        self.l2 = Cache(config.gpu_l2_lines, name="gpu-l2")
        self.l1s: List[Cache] = [
            Cache(config.gpu_l1_lines, name=f"gpu-l1.{cu}")
            for cu in range(config.num_cus)
        ]
        # Rebind the caches' inert class-level tracepoints: one pair per
        # level (all L1s share the mem.l1.* points).
        self.l2.tp_hit = self.probes.tracepoint(
            "mem.l2.hit", ("line",), "GPU L2 hit"
        )
        self.l2.tp_miss = self.probes.tracepoint(
            "mem.l2.miss", ("line",), "GPU L2 miss (line installed)"
        )
        l1_hit = self.probes.tracepoint("mem.l1.hit", ("line",), "per-CU L1 hit")
        l1_miss = self.probes.tracepoint(
            "mem.l1.miss", ("line",), "per-CU L1 miss (line installed)"
        )
        for l1 in self.l1s:
            l1.tp_hit = l1_hit
            l1.tp_miss = l1_miss

    def alloc(self, nbytes: int, align: int = 0) -> int:
        """Reserve a simulated shared-virtual-memory address range."""
        return self.allocator.alloc(nbytes, align)

    def alloc_buffer(self, nbytes: int, align: int = 0) -> Buffer:
        """Allocate an address range with backing storage attached."""
        return Buffer(self.alloc(nbytes, align), nbytes)

    # -- GPU data path ---------------------------------------------------

    def _l1(self, cu_id: int) -> Cache:
        if not 0 <= cu_id < len(self.l1s):
            raise IndexError(f"cu_id {cu_id} out of range")
        return self.l1s[cu_id]

    def gpu_load(self, cu_id: int, addr: int, size: int) -> Generator:
        """Timed GPU read of [addr, addr+size) through L1/L2/DRAM."""
        cfg = self.config
        l1 = self._l1(cu_id)
        for line in lines_covering(addr, size, cfg.cacheline_bytes):
            if l1.access(line):
                yield cfg.gpu_l1_hit_ns
            elif self.l2.access(line):
                yield cfg.gpu_l2_hit_ns
            else:
                yield cfg.gpu_l2_hit_ns
                yield from self.dram.gpu_access(cfg.cacheline_bytes)

    def gpu_store(self, cu_id: int, addr: int, size: int) -> Generator:
        """Timed GPU write; modelled write-through to L2."""
        cfg = self.config
        l1 = self._l1(cu_id)
        for line in lines_covering(addr, size, cfg.cacheline_bytes):
            l1.access(line)
            if self.l2.access(line):
                yield cfg.gpu_l2_hit_ns
            else:
                yield cfg.gpu_l2_hit_ns
                yield from self.dram.gpu_access(cfg.cacheline_bytes)

    def gpu_atomic(self, op: str, addr: int) -> Generator:
        """Timed GPU atomic: L1-bypassing, L2-coherent (Section VI)."""
        latency = self.atomics.charge(op)
        line_bytes = self.config.cacheline_bytes
        yield latency
        if not self.l2.access(addr // line_bytes):
            yield from self.dram.gpu_access(line_bytes)

    def gpu_load_uncached(self, addr: int) -> Generator:
        """Timed L1-bypassing plain load (Table IV's 'load' baseline).

        This is the apples-to-apples comparison point for the atomic
        ops: same L2 path, no read-modify-write."""
        latency = self.atomics.charge("load")
        line = addr // self.config.cacheline_bytes
        yield latency
        if not self.l2.access(line):
            yield from self.dram.gpu_access(self.config.cacheline_bytes)

    def gpu_l1_flush_range(self, cu_id: int, addr: int, size: int) -> Generator:
        """Software-coherence flush of a buffer from one CU's L1."""
        dropped = self._l1(cu_id).flush_range(addr, size)
        # A few GPU cycles per dropped line for the flush instructions.
        yield dropped * 4 * self.config.gpu_cycle_ns

    # -- CPU data path ---------------------------------------------------

    def cpu_stream_access(self, nbytes: int) -> Generator:
        """Timed CPU streaming access through the shared DRAM channel."""
        yield from self.dram.cpu_access(nbytes)
