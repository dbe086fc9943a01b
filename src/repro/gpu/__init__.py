"""GPU execution model: the work-item / wavefront / work-group / kernel
hierarchy of Section IV, compute units with wavefront slots, and a
generator-based kernel programming API.

A GPU *kernel* is a Python generator function taking a
:class:`~repro.gpu.hierarchy.WorkItemCtx`; its body yields operation
objects (:mod:`repro.gpu.ops`) that the wavefront executor interprets in
lockstep.  Work-groups occupy wavefront slots on a single compute unit
until all their wavefronts retire, which is what makes the paper's
non-blocking-syscall resource-release effect visible.
"""

from repro.gpu.device import Gpu, KernelLaunch
from repro.gpu.hierarchy import KernelInstance, WorkGroup, WorkItemCtx
from repro.gpu.ops import (
    Atomic,
    Barrier,
    Compute,
    Do,
    L1Flush,
    LdsRead,
    LdsWrite,
    MemRead,
    MemWrite,
    Sleep,
    Spin,
    WaitAll,
)

__all__ = [
    "Atomic",
    "Barrier",
    "Compute",
    "Do",
    "Gpu",
    "KernelInstance",
    "KernelLaunch",
    "L1Flush",
    "LdsRead",
    "LdsWrite",
    "MemRead",
    "MemWrite",
    "Sleep",
    "Spin",
    "WaitAll",
    "WorkGroup",
    "WorkItemCtx",
]
