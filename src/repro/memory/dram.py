"""DRAM model: a single shared channel with latency + bandwidth.

The FX-9800P's memory controller is shared between CPU and GPU; the
paper's Figure 9 shows CPU access throughput collapsing once the GPU's
polled working set spills out of its L2 and floods this channel.  Both
agents therefore issue their transfers through one
:class:`~repro.sim.resources.BandwidthResource`.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.machine import CACHELINE_BYTES, MachineConfig
from repro.probes.tracepoints import ProbeRegistry
from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource


class Dram:
    """Shared CPU/GPU DRAM channel."""

    def __init__(
        self,
        sim: Simulator,
        config: MachineConfig,
        probes: Optional[ProbeRegistry] = None,
    ):
        self.sim = sim
        self.config = config
        self.channel = BandwidthResource(
            sim,
            rate_bytes_per_ns=config.dram_bw_bytes_per_ns,
            fixed_latency=config.dram_latency_ns,
            name="dram",
        )
        self.gpu_accesses = 0
        registry = probes if probes is not None else ProbeRegistry(sim)
        self.tp_access = registry.tracepoint(
            "dram.access", ("agent", "nbytes"), "one transfer through the channel"
        )
        self.tp_stall = registry.tracepoint(
            "dram.stall",
            ("agent", "stall_ns"),
            "queueing delay behind other transfers (contention, Fig. 9)",
        )
        self.tp_queue = registry.tracepoint(
            "dram.queue",
            ("depth",),
            "gauge: transfers in service or queued on the channel, "
            "including the one being enqueued",
        )

    def _observing(self) -> bool:
        return (
            self.tp_access.enabled
            or self.tp_stall.enabled
            or self.tp_queue.enabled
        )

    def cpu_access(self, nbytes: int = CACHELINE_BYTES) -> Generator:
        """Process body: one CPU-originated transfer."""
        if self._observing():
            yield from self._observed_transfer("cpu", nbytes)
        else:
            yield from self.channel.transfer(nbytes)

    def gpu_access(self, nbytes: int = CACHELINE_BYTES) -> Generator:
        """Process body: one GPU-originated transfer."""
        self.gpu_accesses += 1
        if self._observing():
            yield from self._observed_transfer("gpu", nbytes)
        else:
            yield from self.channel.transfer(nbytes)

    def _observed_transfer(self, agent: str, nbytes: int) -> Generator:
        start = self.sim.now
        if self.tp_queue.enabled:
            self.tp_queue.fire(self.channel.queue_depth + 1)
        yield from self.channel.transfer(nbytes)
        if self.tp_access.enabled:
            self.tp_access.fire(agent, nbytes)
        if self.tp_stall.enabled:
            stall = (self.sim.now - start) - self.channel.transfer_time(nbytes)
            if stall > 1e-9:
                self.tp_stall.fire(agent, stall)
