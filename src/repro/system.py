"""One-stop assembly of the simulated machine.

:class:`System` wires the simulator, memory hierarchy, CPU complex,
Linux substrate, GPU, and the GENESYS runtime together with a host
process, mirroring the paper's Table III platform.  Most examples,
tests, and benchmarks start with::

    with System() as system:  # leaving the block closes the machine
        ...define a kernel...
        result = system.run_to_completion(main())
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.core.coalescing import CoalescingConfig
from repro.core.genesys import Genesys
from repro.gpu.device import Gpu, KernelLaunch
from repro.machine import MachineConfig
from repro.memory.system import MemorySystem
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.linux import LinuxKernel
from repro.oskernel.workqueue import DrainTimeout
from repro.probes.tracepoints import ProbeRegistry, apply_global_plan
from repro.sim.engine import Process, SimulationError, Simulator


class System:
    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        coalescing: Optional[CoalescingConfig] = None,
        with_disk: bool = True,
        slot_stride_bytes: int = 64,
    ):
        self.config = config or MachineConfig()
        self.sim = Simulator()
        #: The machine's probe registry: every layer declares its
        #: tracepoints here (see repro.probes).
        self.probes = ProbeRegistry(self.sim)
        self.memsystem = MemorySystem(self.sim, self.config, probes=self.probes)
        self.cpu = CpuComplex(self.sim, self.config)
        self.kernel = LinuxKernel(
            self.sim,
            self.config,
            self.memsystem,
            cpu=self.cpu,
            with_disk=with_disk,
            probes=self.probes,
        )
        self.gpu = Gpu(self.sim, self.config, self.memsystem, probes=self.probes)
        self.host = self.kernel.create_process("host")
        self.genesys = Genesys(
            self.sim,
            self.config,
            self.kernel,
            self.gpu,
            self.memsystem,
            self.host,
            coalescing=coalescing,
            slot_stride_bytes=slot_stride_bytes,
            probes=self.probes,
        )
        #: When set (simulated ns), :meth:`run_to_completion` bounds both
        #: its main process and its final drain by it and raises
        #: ``DrainTimeout`` instead of hanging — chaos/fault runs set this
        #: so liveness violations are diagnosable failures, not wedged
        #: event loops.
        self.drain_timeout_ns: Optional[float] = None
        # Every tracepoint now exists: apply any CLI/test attach plan.
        apply_global_plan(self.probes)

    # -- conveniences ---------------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def launch(self, func, global_size: int, workgroup_size: int, args: tuple = (), name: str = "") -> Process:
        return self.gpu.launch(KernelLaunch(func, global_size, workgroup_size, args, name))

    def run_to_completion(self, main: Generator, name: str = "main") -> Any:
        """Run ``main`` as a process, then drain outstanding GPU syscalls.

        With :attr:`drain_timeout_ns` set, ``main`` and then the drain
        each get that much simulated time to finish, along with all the
        work they schedule; work still due after it raises
        ``DrainTimeout`` listing the stuck slots and tasks.  A run that
        finishes inside the bound ends at the same instant as unbounded.
        """
        result = self._run(main, name)
        self._run(self.genesys.drain(timeout=self.drain_timeout_ns), "drain")
        return result

    def _run(self, body: Generator, name: str) -> Any:
        """Run ``body`` as a process until the event queue drains."""
        sim = self.sim
        bound = self.drain_timeout_ns
        if bound is None:
            return sim.run_process(body, name=name)
        proc = sim.process(body, name=name)
        if not sim.run_within(sim.now + bound):
            raise DrainTimeout(
                f"{name}: still running at the {bound:.0f}ns bound",
                stuck=self.genesys.stuck_report(),
            )
        if not proc.finished:
            raise SimulationError(f"process {name!r} deadlocked")
        return proc.result

    def run_kernel(
        self, func, global_size: int, workgroup_size: int, args: tuple = (), name: str = ""
    ) -> float:
        """Launch one kernel, wait for it and all its syscalls; returns
        the elapsed simulated time in nanoseconds."""
        start = self.sim.now

        def body() -> Generator:
            yield self.launch(func, global_size, workgroup_size, args, name)

        self.run_to_completion(body(), name=f"run:{name or func.__name__}")
        return self.sim.now - start

    # -- lifetime ---------------------------------------------------------------

    def close(self) -> None:
        """End the machine where its run ends.

        Its parked processes and the components that call back into
        each other are reference cycles, so a machine dropped without
        this waits for the cyclic collector.  ``close`` closes every
        unfinished process and empties the event heap, silently: a
        ``finally`` it runs fires no tracepoint.  Then it unhooks the
        runtime and unmounts /proc and /sys, so the machine is freed as
        soon as its last holder lets go.

        Every value read after a run stays as it was: ``sim.now``, the
        component counters, tracepoint hits and observers, and
        ``probes.programs``.  The machine cannot run again.
        """
        tracepoints = self.probes.tracepoints.values()
        for tp in tracepoints:
            tp.enabled = False
        try:
            self.sim.close()
        finally:
            for tp in tracepoints:
                tp.enabled = bool(tp.observers)
        self.genesys.close()
        self.kernel.close()

    def __enter__(self) -> "System":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
