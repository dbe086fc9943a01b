"""Tests for the System assembly facade."""

import pytest

from repro.core.coalescing import CoalescingConfig
from repro.gpu.ops import Compute
from repro.machine import small_machine
from repro.system import System


class TestWiring:
    def test_default_config_is_paper_machine(self):
        system = System()
        assert system.config.cpu_cores == 4
        assert system.config.num_cus == 8

    def test_shared_simulator(self):
        system = System(config=small_machine())
        assert system.gpu.sim is system.sim
        assert system.kernel.sim is system.sim
        assert system.memsystem.sim is system.sim

    def test_host_process_registered(self):
        system = System(config=small_machine())
        assert system.host.pid in system.kernel.processes
        assert system.host.address_space is not None

    def test_genesys_bound_to_gpu(self):
        system = System(config=small_machine())
        assert system.gpu.workitem_binder is not None

    def test_without_disk(self):
        system = System(config=small_machine(), with_disk=False)
        assert system.kernel.disk is None

    def test_coalescing_config_passthrough(self):
        coalescing = CoalescingConfig(window_ns=123, max_batch=4)
        system = System(config=small_machine(), coalescing=coalescing)
        assert system.genesys.coalescing is coalescing

    def test_slot_stride_passthrough(self):
        system = System(config=small_machine(), slot_stride_bytes=16)
        assert system.genesys.area.stride == 16

    def test_cpu_shared_between_kernel_and_system(self):
        system = System(config=small_machine())
        assert system.kernel.cpu is system.cpu


class TestRunHelpers:
    def test_run_kernel_returns_elapsed(self):
        system = System(config=small_machine())

        def kern(ctx):
            yield Compute(1000)

        elapsed = system.run_kernel(kern, 4, 4)
        assert elapsed > 0
        assert system.now == elapsed

    def test_run_kernel_accumulates_time(self):
        system = System(config=small_machine())

        def kern(ctx):
            yield Compute(1000)

        first = system.run_kernel(kern, 4, 4)
        second = system.run_kernel(kern, 4, 4)
        assert system.now == pytest.approx(first + second)

    def test_run_to_completion_returns_value(self):
        system = System(config=small_machine())

        def main():
            yield 100
            return "answer"

        assert system.run_to_completion(main()) == "answer"

    def test_run_to_completion_drains_syscalls(self):
        system = System(config=small_machine())
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(4)
        buf.data[:] = b"post"

        def kern(ctx):
            from repro.oskernel.fs import O_RDWR

            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            yield from ctx.sys.pwrite(fd, buf, 4, 0, blocking=False)

        def main():
            yield system.launch(kern, 1, 1)

        system.run_to_completion(main())
        assert system.genesys.outstanding == 0
        assert system.kernel.fs.read_whole("/tmp/f") == b"post"

    def test_now_property(self):
        system = System(config=small_machine())
        assert system.now == 0

        def main():
            yield 42

        system.run_to_completion(main())
        assert system.now == 42


class TestMultipleSystems:
    def test_systems_are_isolated(self):
        first = System(config=small_machine())
        second = System(config=small_machine())
        first.kernel.fs.create_file("/tmp/only-in-first", b"x")
        assert not second.kernel.fs.exists("/tmp/only-in-first")

        def main():
            yield 1000

        first.run_to_completion(main())
        assert second.now == 0
