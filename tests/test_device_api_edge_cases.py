"""Edge cases of the device-side API: argument limits, buffer-flush
behaviour, sequences of mixed-granularity invocations, handle
semantics, and error surfaces."""

import pytest

from repro.core.device_api import SyscallHandle
from repro.core.invocation import Granularity, Ordering, SyscallRequest, WaitMode
from repro.machine import small_machine
from repro.oskernel.fs import O_CREAT, O_RDWR
from repro.system import System


def run_kernel(system, kern, global_size=8, wg=8):
    def body():
        yield system.launch(kern, global_size, wg)

    system.run_to_completion(body())


@pytest.fixture
def system():
    return System(config=small_machine())


class TestArgumentLimits:
    def test_six_args_fit_the_slot(self, system):
        """The slot format carries at most 6 arguments (Figure 5)."""
        captured = {}

        def kern(ctx):
            try:
                yield from ctx.sys.invoke("getrusage", 1, 2, 3, 4, 5, 6, 7)
            except ValueError as err:
                captured["error"] = str(err)

        run_kernel(system, kern, 1, 1)
        assert "6-argument slot" in captured["error"]


class TestBufferCoherence:
    def test_consumer_call_flushes_buffer_from_l1(self, system):
        """pwrite (consumer) flushes the GPU-written buffer from the
        non-coherent L1 before handing it to the CPU (Section VI)."""
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(256)
        observed = {}

        def kern(ctx):
            from repro.gpu.ops import MemWrite

            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            yield MemWrite(buf.addr, buf.size)  # populate via L1
            cu_l1 = system.memsystem.l1s[0]
            line = buf.addr // 64
            assert cu_l1.contains(line)
            yield from ctx.sys.pwrite(fd, buf, 256, 0)
            observed["resident_after"] = cu_l1.contains(line)

        run_kernel(system, kern, 1, 1)
        assert observed["resident_after"] is False

    def test_producer_call_does_not_flush(self, system):
        """pread's buffer is CPU-written; no GPU-side flush needed."""
        system.kernel.fs.create_file("/tmp/f", b"z" * 256)
        buf = system.memsystem.alloc_buffer(256)

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f")
            n = yield from ctx.sys.pread(fd, buf, 256, 0)
            assert n == 256

        run_kernel(system, kern, 1, 1)
        flushes = system.memsystem.l1s[0].stats.invalidations
        assert flushes == 0


class TestMixedSequences:
    def test_wg_then_wi_then_kernel_in_one_program(self, system):
        system.kernel.fs.create_file("/tmp/f", b"m" * 512)
        buf = system.memsystem.alloc_buffer(16)
        log = []

        def kern(ctx):
            fd = yield from ctx.sys.open(
                "/tmp/f", granularity=Granularity.WORK_GROUP
            )
            n = yield from ctx.sys.pread(
                fd, buf, 16, 0, granularity=Granularity.WORK_ITEM
            )
            log.append(n)
            usage = yield from ctx.sys.getrusage(
                granularity=Granularity.KERNEL, ordering=Ordering.RELAXED
            )
            if ctx.is_kernel_leader:
                log.append(type(usage).__name__)

        run_kernel(system, kern, 8, 8)
        assert log.count(16) == 8
        assert "Rusage" in log
        counts = system.kernel.syscall_counts
        assert counts["open"] == 1 and counts["pread"] == 8 and counts["getrusage"] == 1

    def test_back_to_back_blocking_calls_reuse_slot(self, system):
        system.kernel.fs.create_file("/tmp/f", b"r" * 256)
        buf = system.memsystem.alloc_buffer(16)

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f")
            for i in range(4):
                n = yield from ctx.sys.pread(fd, buf, 16, 16 * i)
                assert n == 16

        run_kernel(system, kern, 1, 1)
        assert system.kernel.syscall_counts["pread"] == 4


class TestHandleSemantics:
    def test_handle_not_done_before_servicing(self, system):
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(4)
        snapshots = []

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            handle = yield from ctx.sys.pwrite(fd, buf, 4, 0, blocking=False)
            snapshots.append(handle.done)  # immediately after issue
            snapshots.append(handle)

        run_kernel(system, kern, 1, 1)
        issued_done, handle = snapshots
        assert issued_done is False
        assert handle.done is True  # after drain

    def test_earlier_handle_stays_done_after_the_next_call(self, system):
        """The lane's second non-blocking call can only claim the slot
        once the first call completed and freed it, so the first handle
        reports done although the slot now holds the second call."""
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(4)
        seen = {}

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            first = yield from ctx.sys.pwrite(fd, buf, 4, 0, blocking=False)
            second = yield from ctx.sys.pwrite(fd, buf, 4, 4, blocking=False)
            seen["same_slot"] = first.slot is second.slot
            seen["first"] = first.done
            seen["second"] = second.done

        run_kernel(system, kern, 1, 1)
        assert seen == {"same_slot": True, "first": True, "second": False}

    def test_handle_request_metadata(self, system):
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(4)
        holder = {}

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            holder["h"] = yield from ctx.sys.pwrite(fd, buf, 4, 0, blocking=False)

        run_kernel(system, kern, 1, 1)
        handle = holder["h"]
        assert isinstance(handle, SyscallHandle)
        assert handle.request.name == "pwrite"
        assert handle.request.blocking is False


class TestErrorSurfaces:
    def test_enosys_reaches_the_gpu(self, system):
        results = []

        def kern(ctx):
            ret = yield from ctx.sys.invoke("execve", "/bin/sh")
            results.append(ret)

        run_kernel(system, kern, 1, 1)
        from repro.oskernel.errors import Errno

        assert results == [-int(Errno.ENOSYS)]

    def test_errno_broadcast_at_wg_granularity(self, system):
        results = set()

        def kern(ctx):
            ret = yield from ctx.sys.open(
                "/missing", granularity=Granularity.WORK_GROUP
            )
            results.add(ret)

        run_kernel(system, kern, 8, 8)
        from repro.oskernel.errors import Errno

        assert results == {-int(Errno.ENOENT)}

    def test_unknown_granularity_rejected(self, system):
        captured = {}

        def kern(ctx):
            try:
                yield from ctx.sys.invoke("getrusage", granularity="bogus")
            except ValueError as err:
                captured["error"] = str(err)

        run_kernel(system, kern, 1, 1)
        assert "granularity" in captured["error"]
