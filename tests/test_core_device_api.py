"""Tests for the device-side syscall API: granularities, ordering,
blocking modes, and wait modes (the Section-V design space)."""

import ast
import inspect

import pytest

from repro.core import device_api, invocation
from repro.core.device_api import SyscallHandle
from repro.core.genesys import OrderingError
from repro.core.invocation import Granularity, Ordering, WaitMode, syscall_kind, SyscallKind
from repro.machine import small_machine
from repro.oskernel.fs import O_RDWR
from repro.system import System

WI = Granularity.WORK_ITEM
WG = Granularity.WORK_GROUP
KER = Granularity.KERNEL


@pytest.fixture
def system():
    return System(config=small_machine())


def run_kernel(system, kern, global_size=8, wg=8):
    def body():
        yield system.launch(kern, global_size, wg)

    system.run_to_completion(body())


class TestSyscallKinds:
    def test_reads_are_producers(self):
        for name in ("read", "pread", "recvfrom", "getrusage", "open"):
            assert syscall_kind(name) is SyscallKind.PRODUCER

    def test_writes_are_consumers(self):
        for name in ("write", "pwrite", "sendto", "madvise", "rt_sigqueueinfo"):
            assert syscall_kind(name) is SyscallKind.CONSUMER

    def test_unknown_defaults_to_producer(self):
        assert syscall_kind("frobnicate") is SyscallKind.PRODUCER


class TestPerLaneDispatch:
    """Every lane of a work-group call runs ``invoke`` and
    ``_workgroup_invoke``, so those paths compare against Enum members
    bound once at module level: a lookup through the class costs about
    eight times a module-global load on CPython 3.11."""

    ENUMS = ("Granularity", "Ordering", "WaitMode", "SyscallKind")
    PER_CALL = {
        device_api: ("invoke", "_workgroup_invoke", "_kernel_invoke", "_raw_invoke"),
        invocation: ("syscall_kind",),
    }

    def member_loads(self, node):
        return [
            f"{sub.value.id}.{sub.attr}"
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in self.ENUMS
        ]

    def test_per_call_paths_load_no_member_through_its_class(self):
        for module, names in self.PER_CALL.items():
            tree = ast.parse(inspect.getsource(module))
            functions = {
                node.name: node
                for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)
            }
            for name in names:
                # The body only: argument defaults are evaluated once.
                loads = [
                    load
                    for statement in functions[name].body
                    for load in self.member_loads(statement)
                ]
                assert loads == [], f"{module.__name__}.{name} looks up {loads}"

    def test_scan_sees_class_lookups(self):
        tree = ast.parse(inspect.getsource(device_api))
        assert "Granularity.WORK_GROUP" in self.member_loads(tree)


class TestWorkItemGranularity:
    def test_every_item_invokes(self, system):
        system.kernel.fs.create_file("/tmp/f", bytes(range(64)) * 8)
        results = {}
        bufs = [system.memsystem.alloc_buffer(8) for _ in range(8)]

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", granularity=WG)
            n = yield from ctx.sys.pread(fd, bufs[ctx.global_id], 8, 8 * ctx.global_id)
            results[ctx.global_id] = n

        run_kernel(system, kern)
        assert all(n == 8 for n in results.values())
        assert system.kernel.syscall_counts["pread"] == 8

    def test_error_returns_negative_errno(self, system):
        results = []

        def kern(ctx):
            fd = yield from ctx.sys.open("/no/such/file")
            results.append(fd)

        run_kernel(system, kern, 2, 2)
        assert all(fd < 0 for fd in results)

    def test_each_item_gets_own_slot(self, system):
        """Concurrent WI invocations use distinct syscall-area slots."""
        system.kernel.fs.create_file("/tmp/f", b"x" * 64)
        buf = system.memsystem.alloc_buffer(8)

        def kern(ctx):
            yield from ctx.sys.pread(fd_holder[0], buf, 1, 0)

        fd_holder = []

        def setup(ctx):
            fd = yield from ctx.sys.open("/tmp/f")
            fd_holder.append(fd)

        run_kernel(system, setup, 1, 1)
        run_kernel(system, kern, 8, 8)
        assert system.genesys.syscalls_completed == 1 + 8


class TestWorkGroupGranularity:
    def test_single_invocation_per_group(self, system):
        def kern(ctx):
            yield from ctx.sys.getrusage(granularity=WG)

        run_kernel(system, kern, 16, 8)  # two groups
        assert system.kernel.syscall_counts["getrusage"] == 2

    def test_producer_result_broadcast_strong(self, system):
        system.kernel.fs.create_file("/tmp/f", b"q" * 100)
        seen = []

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", granularity=WG, ordering=Ordering.STRONG)
            seen.append(fd)

        run_kernel(system, kern, 8, 8)
        assert len(set(seen)) == 1
        assert seen[0] >= 0

    def test_producer_result_broadcast_relaxed(self, system):
        system.kernel.fs.create_file("/tmp/f", b"q" * 100)
        seen = []

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", granularity=WG, ordering=Ordering.RELAXED)
            seen.append(fd)

        run_kernel(system, kern, 8, 8)
        assert len(set(seen)) == 1

    def test_relaxed_consumer_only_leader_sees_result(self, system):
        system.kernel.fs.create_file("/tmp/f", b"")
        results = {}
        buf = system.memsystem.alloc_buffer(4)
        buf.data[:] = b"abcd"

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR, granularity=WG)
            n = yield from ctx.sys.pwrite(
                fd, buf, 4, 0, granularity=WG, ordering=Ordering.RELAXED
            )
            results[ctx.local_id] = n

        run_kernel(system, kern, 8, 8)
        assert results[0] == 4
        assert all(results[i] is None for i in range(1, 8))

    def test_strong_consumer_broadcasts_result(self, system):
        system.kernel.fs.create_file("/tmp/f", b"")
        results = set()
        buf = system.memsystem.alloc_buffer(4)

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR, granularity=WG)
            n = yield from ctx.sys.pwrite(
                fd, buf, 4, 0, granularity=WG, ordering=Ordering.STRONG
            )
            results.add(n)

        run_kernel(system, kern, 8, 8)
        assert results == {4}

    def test_strong_ordering_slower_than_relaxed_nonblocking(self):
        """Figure 8's headline: strong blocking > relaxed non-blocking."""

        def run(ordering, blocking):
            system = System(config=small_machine())
            system.kernel.fs.create_file("/tmp/f", b"")
            buf = system.memsystem.alloc_buffer(64)

            def kern(ctx):
                fd = ctx.kernel.shared.get("fd")
                if fd is None:
                    fd = yield from ctx.sys.open(
                        "/tmp/f", O_RDWR, granularity=WG
                    )
                    ctx.kernel.shared["fd"] = fd
                from repro.gpu.ops import Compute

                for i in range(4):
                    yield Compute(2000)
                    yield from ctx.sys.pwrite(
                        fd, buf, 64, 64 * i, granularity=WG,
                        ordering=ordering, blocking=blocking,
                    )

            start = system.now
            run_kernel(system, kern, 16, 8)
            return system.now - start

        strong_block = run(Ordering.STRONG, True)
        weak_nonblock = run(Ordering.RELAXED, False)
        assert weak_nonblock < strong_block


class TestKernelGranularity:
    def test_single_invocation_for_whole_kernel(self, system):
        def kern(ctx):
            yield from ctx.sys.getrusage(granularity=KER, ordering=Ordering.RELAXED)

        run_kernel(system, kern, 16, 8)
        assert system.kernel.syscall_counts["getrusage"] == 1

    def test_strong_ordering_rejected(self, system):
        def kern(ctx):
            yield from ctx.sys.getrusage(granularity=KER, ordering=Ordering.STRONG)

        with pytest.raises(OrderingError):
            run_kernel(system, kern, 4, 4)

    def test_nonleaders_get_none(self, system):
        results = {}

        def kern(ctx):
            value = yield from ctx.sys.getrusage(
                granularity=KER, ordering=Ordering.RELAXED
            )
            results[ctx.global_id] = value

        run_kernel(system, kern, 4, 4)
        assert results[0] is not None
        assert all(results[i] is None for i in range(1, 4))


class TestBlockingModes:
    def test_non_blocking_returns_handle(self, system):
        system.kernel.fs.create_file("/tmp/f", b"")
        handles = []
        buf = system.memsystem.alloc_buffer(4)

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            handle = yield from ctx.sys.pwrite(fd, buf, 4, 0, blocking=False)
            handles.append(handle)

        run_kernel(system, kern, 1, 1)
        assert isinstance(handles[0], SyscallHandle)
        assert handles[0].done  # drained by run_to_completion

    def test_non_blocking_write_eventually_lands(self, system):
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(4)
        buf.data[:] = b"data"

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            yield from ctx.sys.pwrite(fd, buf, 4, 0, blocking=False)

        run_kernel(system, kern, 1, 1)
        assert system.kernel.fs.read_whole("/tmp/f") == b"data"

    def test_slot_reuse_delays_second_nonblocking_call(self, system):
        """A second call on a busy slot is delayed, not lost (Fig 6)."""
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(4)

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            for i in range(4):
                yield from ctx.sys.pwrite(fd, buf, 4, 4 * i, blocking=False)

        run_kernel(system, kern, 1, 1)
        assert system.kernel.fs.read_whole("/tmp/f") == b"\0" * 16 or len(
            system.kernel.fs.read_whole("/tmp/f")
        ) == 16
        assert system.kernel.syscall_counts["pwrite"] == 4


class TestWaitModes:
    def test_halt_resume_returns_same_result_as_poll(self):
        def run(wait):
            system = System(config=small_machine())
            system.kernel.fs.create_file("/tmp/f", b"0123456789")
            buf = system.memsystem.alloc_buffer(10)
            out = []

            def kern(ctx):
                fd = yield from ctx.sys.open("/tmp/f", wait=wait)
                n = yield from ctx.sys.pread(fd, buf, 10, 0, wait=wait)
                out.append((fd, n, bytes(buf.data)))

            def body():
                yield system.launch(kern, 1, 1)

            system.run_to_completion(body())
            return out[0]

        poll = run(WaitMode.POLL)
        halt = run(WaitMode.HALT_RESUME)
        assert poll[1:] == halt[1:]

    def test_halt_resume_charges_resume_latency(self):
        system = System(config=small_machine())
        system.kernel.fs.create_file("/tmp/f", b"x")
        times = {}

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", wait=WaitMode.HALT_RESUME)
            times["fd"] = fd

        def body():
            yield system.launch(kern, 1, 1)

        system.run_to_completion(body())
        assert times["fd"] >= 0
        assert system.now >= system.config.halt_resume_ns
