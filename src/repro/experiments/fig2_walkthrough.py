"""Figures 2 and 6, narrated: one syscall's walk through the machinery.

Runs a single blocking work-item ``pread`` and records every slot state
transition with its timestamp and which side (GPU or CPU) drove it —
the five steps of Figure 2 and the full FREE → POPULATING → READY →
PROCESSING → FINISHED → FREE cycle of Figure 6, with real latencies
from the calibrated model attached to each edge.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.experiments import ExperimentResult
from repro.machine import MachineConfig
from repro.system import System

NAME = "fig2"
TITLE = "Figures 2/6: one system call, step by step"


def run_walkthrough() -> Tuple[List[tuple], float, int]:
    """Returns (transition log, total latency ns, bytes read)."""
    with System(config=MachineConfig()) as system:
        system.kernel.fs.create_file("/tmp/one", b"W" * 4096)
        buf = system.memsystem.alloc_buffer(4096)
        log: List[tuple] = []
        got = {}

        sim = system.sim

        def recorder(slot_index, old, new, actor):
            # Reads the clock from the simulator, which refers to no
            # tracepoint: closing over the machine would make it a cycle.
            log.append((sim.now, old, new, actor))

        system.probes.attach("slot.transition", recorder)

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/one")
            n = yield from ctx.sys.pread(fd, buf, 4096, 0)
            got["n"] = n

        def body():
            yield system.launch(kern, 1, 1)

        start = system.now
        system.run_to_completion(body())
        return log, system.now - start, got["n"]


def run() -> ExperimentResult:
    log, total_ns, nbytes = run_walkthrough()
    experiment = ExperimentResult(NAME)
    rows = []
    prev_time = None
    for when, old, new, actor in log:
        delta = "" if prev_time is None else f"+{(when - prev_time) / 1000:.2f}"
        rows.append(
            (f"{when / 1000:.2f}", delta, f"{old} -> {new}", actor.upper())
        )
        prev_time = when
    experiment.add_table(
        TITLE,
        ["t (us)", "delta (us)", "transition", "side"],
        rows,
    )
    experiment.add_table(
        "Outcome",
        ["metric", "value"],
        [
            ("bytes read", nbytes),
            ("end-to-end (us)", f"{total_ns / 1000:.2f}"),
            ("transitions", len(log)),
        ],
    )
    experiment.data = {"log": log, "total_ns": total_ns, "bytes": nbytes}
    return experiment
