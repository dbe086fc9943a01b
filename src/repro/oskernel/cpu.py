"""CPU complex: a pool of cores with utilisation accounting.

Both application CPU threads and OS worker threads run their CPU-bound
segments through :meth:`CpuComplex.run`, so system-call processing
competes with application work for the same four cores — the effect the
paper's Figure 14 CPU-utilisation traces expose (offloading search to
the GPU frees the CPU to process system calls).
"""

from __future__ import annotations

from typing import Generator

from repro.machine import MachineConfig
from repro.sim.engine import Simulator
from repro.sim.resources import Resource
from repro.sim.stats import UtilizationTracker


class CpuComplex:
    def __init__(self, sim: Simulator, config: MachineConfig):
        self.sim = sim
        self.config = config
        self.cores = Resource(sim, config.cpu_cores, name="cpu-cores")
        self.utilization = UtilizationTracker(sim, config.cpu_cores, name="cpu")

    def run(self, duration: float) -> Generator:
        """Process body: occupy one core for ``duration`` ns of CPU work."""
        if duration < 0:
            raise ValueError(f"negative CPU time: {duration}")
        if duration == 0:
            return
        yield self.cores.acquire()
        self.utilization.busy()
        try:
            yield duration
        finally:
            self.utilization.idle()
            self.cores.release()
