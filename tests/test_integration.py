"""Cross-module integration tests: whole-system scenarios that exercise
the GPU, GENESYS, and several OS substrates together."""

from repro.core.invocation import Granularity, Ordering
from repro.gpu.ops import Compute
from repro.machine import MachineConfig, small_machine
from repro.oskernel.fs import O_CREAT, O_RDWR
from repro.system import System


class TestEverythingIsAFile:
    """Section IV: GENESYS inherits Linux's file philosophy — terminal,
    /proc files, and devices all work through the same calls."""

    def test_gpu_reads_proc_meminfo(self):
        system = System(config=small_machine())
        out = {}
        buf = system.memsystem.alloc_buffer(256)

        def kern(ctx):
            fd = yield from ctx.sys.open("/proc/meminfo")
            n = yield from ctx.sys.read(fd, buf, 256)
            out["data"] = bytes(buf.data[:n])
            yield from ctx.sys.close(fd)

        def body():
            yield system.launch(kern, 1, 1)

        system.run_to_completion(body())
        assert b"MemTotal" in out["data"]

    def test_gpu_prints_to_terminal(self):
        system = System(config=small_machine())
        buf = system.memsystem.alloc_buffer(32)
        buf.data[:12] = b"gpu says hi\n"

        def kern(ctx):
            yield from ctx.sys.write(1, buf, 12)

        def body():
            yield system.launch(kern, 1, 1)

        system.run_to_completion(body())
        assert system.kernel.terminal.lines == ["gpu says hi"]

    def test_gpu_creates_file_visible_to_cpu(self):
        system = System(config=small_machine())
        buf = system.memsystem.alloc_buffer(16)
        buf.data[:9] = b"from gpu!"

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/gpu_made.txt", O_CREAT | O_RDWR)
            yield from ctx.sys.pwrite(fd, buf, 9, 0)
            yield from ctx.sys.close(fd)

        def body():
            yield system.launch(kern, 1, 1)

        system.run_to_completion(body())
        assert system.kernel.fs.read_whole("/tmp/gpu_made.txt") == b"from gpu!"


class TestStatefulSharedOffset:
    def test_workitem_reads_share_the_file_pointer(self):
        """Plain read at work-item granularity interleaves through the
        shared offset — every byte is read exactly once, but which
        work-item gets which bytes is scheduling-dependent (the paper's
        Section IV correctness caveat)."""
        system = System(config=small_machine())
        content = bytes(range(64))
        system.kernel.fs.create_file("/tmp/seq", content)
        chunks = []
        bufs = [system.memsystem.alloc_buffer(8) for _ in range(8)]

        def opener(ctx):
            fd = yield from ctx.sys.open("/tmp/seq", O_RDWR)
            ctx.kernel.shared["fd"] = fd

        def body():
            kernel = yield system.launch(opener, 1, 1)
            fd = kernel.shared["fd"]

            def kern2(ctx):
                n = yield from ctx.sys.read(fd, bufs[ctx.global_id], 8)
                chunks.append(bytes(bufs[ctx.global_id].data[:n]))

            yield system.launch(kern2, 8, 8)

        system.run_to_completion(body())
        assert sorted(b"".join(chunks)) == sorted(content)


class TestConcurrentKernelsAndSyscalls:
    def test_two_kernels_share_genesys(self):
        system = System(config=small_machine())
        system.kernel.fs.create_file("/tmp/a", b"A" * 64)
        system.kernel.fs.create_file("/tmp/b", b"B" * 64)
        got = {}
        buf_a = system.memsystem.alloc_buffer(8)
        buf_b = system.memsystem.alloc_buffer(8)

        def kern_a(ctx):
            fd = yield from ctx.sys.open("/tmp/a")
            yield from ctx.sys.pread(fd, buf_a, 8, 0)
            got["a"] = bytes(buf_a.data)

        def kern_b(ctx):
            fd = yield from ctx.sys.open("/tmp/b")
            yield from ctx.sys.pread(fd, buf_b, 8, 0)
            got["b"] = bytes(buf_b.data)

        def body():
            first = system.launch(kern_a, 1, 1)
            second = system.launch(kern_b, 1, 1)
            yield first
            yield second

        system.run_to_completion(body())
        assert got == {"a": b"A" * 8, "b": b"B" * 8}

    def test_syscalls_overlap_with_compute_of_other_groups(self):
        """Non-blocking syscalls free the work-group; other groups keep
        the GPU busy while the CPU services the calls (Figure 1 right)."""
        config = MachineConfig(
            num_cus=1, wavefront_slots_per_cu=2, wavefront_width=8,
            gpu_l2_lines=64, gpu_l1_lines=16,
        )
        system = System(config=config)
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(16)
        done_order = []

        def kern(ctx):
            yield Compute(5000)
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR, granularity=Granularity.WORK_GROUP)
            yield from ctx.sys.pwrite(
                fd, buf, 16, 16 * ctx.group_id,
                granularity=Granularity.WORK_GROUP,
                ordering=Ordering.RELAXED,
                blocking=False,
            )
            if ctx.is_group_leader:
                done_order.append(ctx.group_id)

        def body():
            yield system.launch(kern, 8 * 6, 8)  # 6 groups, 2 resident

        system.run_to_completion(body())
        assert len(done_order) == 6
        assert len(system.kernel.fs.read_whole("/tmp/f")) == 96


class TestGlobalSynchronisationHazard:
    def test_manual_global_barrier_deadlocks_oversubscribed_kernel(self):
        """Why GENESYS rejects strong kernel-granularity ordering: a
        hand-rolled global barrier deadlocks when work-groups exceed
        residency, because GPUs do not preempt (Section V-A)."""
        config = MachineConfig(
            num_cus=1, wavefront_slots_per_cu=1, wavefront_width=4,
            gpu_l2_lines=64, gpu_l1_lines=16,
        )
        system = System(config=config)
        arrived = {"count": 0}

        def kern(ctx):
            from repro.gpu.ops import Do, Sleep

            yield Do(lambda: arrived.__setitem__("count", arrived["count"] + 1))
            # Spin until all 8 work-items (2 groups) arrive — but only
            # one group can be resident at a time.
            while arrived["count"] < 8:
                yield Sleep(1000)

        launch = system.launch(kern, 8, 4)
        system.sim.run(until=50_000_000)
        assert not launch.finished  # deadlocked, as the paper warns

    def test_same_kernel_without_barrier_completes(self):
        config = MachineConfig(
            num_cus=1, wavefront_slots_per_cu=1, wavefront_width=4,
            gpu_l2_lines=64, gpu_l1_lines=16,
        )
        system = System(config=config)

        def kern(ctx):
            yield Compute(100)

        def body():
            yield system.launch(kern, 8, 4)

        system.run_to_completion(body())  # no deadlock


class TestHostDrainSemantics:
    def test_outstanding_calls_survive_kernel_end(self):
        """Section IX: a non-blocking syscall can outlive its GPU thread;
        the host-side drain covers it before process exit."""
        system = System(config=small_machine())
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(4)
        buf.data[:] = b"tail"
        observed = {}

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            yield from ctx.sys.pwrite(fd, buf, 4, 0, blocking=False)

        def body():
            yield system.launch(kern, 1, 1)
            observed["at_kernel_end"] = system.kernel.fs.read_whole("/tmp/f")
            yield from system.genesys.drain()
            observed["after_drain"] = system.kernel.fs.read_whole("/tmp/f")

        system.sim.run_process(body())
        assert observed["after_drain"] == b"tail"
