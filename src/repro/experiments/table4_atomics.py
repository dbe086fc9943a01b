"""Table IV: profiled latency of GPU memory operations."""

from __future__ import annotations

from typing import Dict

from repro.experiments import ExperimentResult
from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.sim.engine import Simulator

NAME = "table4"
TITLE = "Table IV: profiled GPU memory-op latency"

OPS = ("cmp-swap", "swap", "atomic-load", "load")
REPS = 64


def measure_op(op: str) -> float:
    """Measured mean latency of one op through the memory system (ns)."""
    sim = Simulator()
    mem = MemorySystem(sim, MachineConfig())
    addr = 0x1_0000

    def body():
        yield from mem.gpu_atomic("atomic-load", addr)  # warm the line
        start = sim.now
        for _ in range(REPS):
            yield from mem.gpu_atomic(op, addr)
        return (sim.now - start) / REPS

    return sim.run_process(body())


def measure_all() -> Dict[str, float]:
    return {op: measure_op(op) for op in OPS}


def run() -> ExperimentResult:
    measured = measure_all()
    experiment = ExperimentResult(NAME)
    experiment.add_table(
        TITLE,
        ["op", "measured (us)"],
        [(op, f"{measured[op] / 1000:.3f}") for op in OPS],
    )
    experiment.data = measured
    return experiment
