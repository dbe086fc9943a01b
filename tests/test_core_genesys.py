"""Tests for the GENESYS runtime: interrupts, scans, coalescing wiring,
drain, the packed-slot false-sharing ablation, and the single retire
path."""

import ast
from pathlib import Path

import pytest

import repro.core
from repro.core.coalescing import CoalescingConfig
from repro.core.invocation import Granularity
from repro.faults.chaos import check_invariants
from repro.machine import small_machine
from repro.oskernel.errors import Errno
from repro.oskernel.fs import O_RDWR
from repro.sanitizers.gsan import GSan
from repro.system import System


def run_kernel(system, kern, global_size=8, wg=8):
    def body():
        yield system.launch(kern, global_size, wg)

    system.run_to_completion(body())


class TestRequestPath:
    def test_interrupt_per_wavefront_not_per_syscall(self):
        """Interrupts are suppressed while a scan is queued for the same
        hardware wavefront ID — one scan serves many READY slots."""
        system = System(config=small_machine())
        system.kernel.fs.create_file("/tmp/f", b"z" * 64)
        bufs = [system.memsystem.alloc_buffer(8) for _ in range(8)]

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", granularity=Granularity.WORK_GROUP)
            yield from ctx.sys.pread(fd, bufs[ctx.global_id], 8, 0)

        run_kernel(system, kern, 8, 8)
        stats = system.genesys.stats()
        assert stats["syscalls_completed"] == 9
        assert stats["interrupts_sent"] <= 9

    def test_stats_shape(self):
        system = System(config=small_machine())

        def kern(ctx):
            yield from ctx.sys.getrusage()

        run_kernel(system, kern, 2, 2)
        stats = system.genesys.stats()
        assert stats["outstanding"] == 0
        assert stats["invocations"]["work-item"] == 2
        assert stats["syscall_counts"]["getrusage"] == 2

    def test_worker_context_switch_charged(self):
        system = System(config=small_machine())

        def kern(ctx):
            yield from ctx.sys.getrusage()

        run_kernel(system, kern, 1, 1)
        config = system.config
        floor = (
            config.interrupt_handler_ns
            + config.workqueue_dispatch_ns
            + config.context_switch_ns
            + config.syscall_base_ns
        )
        assert system.now >= floor

    def test_syscalls_from_many_workgroups_processed(self):
        system = System(config=small_machine())

        def kern(ctx):
            yield from ctx.sys.getrusage(granularity=Granularity.WORK_GROUP)

        run_kernel(system, kern, 32, 8)  # 4 work-groups
        assert system.genesys.syscalls_completed == 4


class TestCoalescing:
    def test_coalesced_bundles_form(self):
        system = System(
            config=small_machine(),
            coalescing=CoalescingConfig(window_ns=50_000, max_batch=8),
        )

        def kern(ctx):
            yield from ctx.sys.getrusage(granularity=Granularity.WORK_GROUP)

        run_kernel(system, kern, 32, 8)
        assert system.genesys.coalescer.mean_bundle_size > 1.0
        assert system.genesys.syscalls_completed == 4

    def test_coalescing_adds_latency_for_single_call(self):
        def run(coalescing):
            system = System(config=small_machine(), coalescing=coalescing)

            def kern(ctx):
                yield from ctx.sys.getrusage()

            run_kernel(system, kern, 1, 1)
            return system.now

        fast = run(None)
        slow = run(CoalescingConfig(window_ns=100_000, max_batch=64))
        assert slow > fast

    def test_coalescing_correctness_unchanged(self):
        system = System(
            config=small_machine(),
            coalescing=CoalescingConfig(window_ns=20_000, max_batch=4),
        )
        system.kernel.fs.create_file("/tmp/f", bytes(range(256)))
        bufs = [system.memsystem.alloc_buffer(8) for _ in range(8)]

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", granularity=Granularity.WORK_GROUP)
            yield from ctx.sys.pread(fd, bufs[ctx.global_id], 8, 8 * ctx.global_id)

        run_kernel(system, kern, 8, 8)
        for i in range(8):
            assert bytes(bufs[i].data) == bytes(range(8 * i, 8 * i + 8))


class TestInterruptDelivery:
    @pytest.mark.parametrize("window_ns", [None, 5_000.0, 50_000.0])
    def test_every_raised_interrupt_runs_its_top_half(self, window_ns):
        """No mode absorbs a top half: each interrupt GENESYS sends is
        raised, serviced and handed to the coalescer."""
        coalescing = (
            None if window_ns is None else CoalescingConfig(window_ns=window_ns, max_batch=8)
        )
        system = System(config=small_machine(), coalescing=coalescing)
        interrupts = system.kernel.interrupts

        def kern(ctx):
            yield from ctx.sys.getrusage(granularity=Granularity.WORK_GROUP)

        run_kernel(system, kern, 32, 8)
        stats = system.genesys.stats()
        assert stats["syscalls_completed"] == 4
        assert interrupts.raised == interrupts.serviced == stats["interrupts_sent"]
        assert interrupts.unhandled == 0
        # Kept at 0 for readers of the stats document.
        assert stats["polled_scans"] == 0


class TestDrain:
    def test_drain_waits_for_nonblocking_calls(self):
        system = System(config=small_machine())
        system.kernel.fs.create_file("/tmp/f", b"")
        buf = system.memsystem.alloc_buffer(4)
        buf.data[:] = b"late"

        def kern(ctx):
            fd = yield from ctx.sys.open("/tmp/f", O_RDWR)
            yield from ctx.sys.pwrite(fd, buf, 4, 0, blocking=False)

        def body():
            yield system.launch(kern, 1, 1)
            # Kernel is done, but the pwrite may still be in flight:
            # drain must wait for it (the paper's Section IX host call).
            yield from system.genesys.drain()
            return system.kernel.fs.read_whole("/tmp/f")

        assert system.sim.run_process(body()) == b"late"

    def test_drain_idle_returns_immediately(self):
        system = System(config=small_machine())

        def body():
            yield from system.genesys.drain()
            return system.now

        assert system.sim.run_process(body()) == 0


class TestPackedSlotAblation:
    def test_packed_slots_cause_more_dram_traffic(self):
        """The one-slot-per-cacheline design (Section VI) avoids the
        false-sharing ping-pong that a packed layout suffers."""

        def run(stride):
            system = System(config=small_machine(), slot_stride_bytes=stride)
            system.kernel.fs.create_file("/tmp/f", b"d" * 512)
            bufs = [system.memsystem.alloc_buffer(8) for _ in range(16)]

            def kern(ctx):
                fd = yield from ctx.sys.open(
                    "/tmp/f", granularity=Granularity.WORK_GROUP
                )
                for r in range(4):
                    yield from ctx.sys.pread(fd, bufs[ctx.global_id], 8, r * 8)

            run_kernel(system, kern, 16, 8)
            return system.memsystem.dram.gpu_accesses, system.now

        linear_traffic, linear_time = run(64)
        packed_traffic, packed_time = run(16)
        assert packed_traffic > linear_traffic
        assert packed_time >= linear_time


def completion_calls(node):
    """The ``.finish(`` / ``.reclaim(`` calls anywhere under ``node``."""
    return [
        sub.func.attr
        for sub in ast.walk(node)
        if isinstance(sub, ast.Call)
        and isinstance(sub.func, ast.Attribute)
        and sub.func.attr in ("finish", "reclaim")
    ]


class TestRetirePath:
    def test_slot_completion_only_inside_retire(self):
        """Every ``.finish(`` / ``.reclaim(`` call in the core lives in
        ``Genesys.retire``: one place owns the exactly-once slot write
        and the chaos-invariant counters."""
        sites = []
        for path in sorted(Path(repro.core.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text())
            in_methods = 0
            for klass in ast.walk(tree):
                if not isinstance(klass, ast.ClassDef):
                    continue
                for method in klass.body:
                    calls = completion_calls(method)
                    in_methods += len(calls)
                    sites += [(f"{klass.name}.{getattr(method, 'name', '?')}", c) for c in calls]
            assert len(completion_calls(tree)) == in_methods, path.name
        assert sorted(sites) == [
            ("Genesys.retire", "finish"),
            ("Genesys.retire", "reclaim"),
        ]

    def test_finish_after_reclaim_is_refused_and_uncounted(self):
        """The watchdog reclaims a slot mid-service (a cold 64 KiB pread
        runs ~1.2 ms, past a 100 us slot timeout); the worker's late
        finish is refused and counts nothing, so the call settles once."""
        system = System(config=small_machine())
        gsan = GSan().install(system.probes)
        genesys = system.genesys
        genesys.watchdog_period_ns = 20_000.0
        genesys.slot_timeout_ns = 100_000.0
        system.kernel.fs.create_file("/data/f", b"t" * 65536, on_disk=True)
        system.kernel.fs.resolve("/data/f").cached_pages.clear()
        buf = system.memsystem.alloc_buffer(65536)
        completed = []
        system.probes.attach(
            "syscall.complete",
            lambda name, hw_id, service_ns, invocation_id, blocking: completed.append(
                name
            ),
        )
        results = []

        def kern(ctx):
            fd = yield from ctx.sys.open("/data/f")
            results.append((yield from ctx.sys.pread(fd, buf, 65536, 0)))

        run_kernel(system, kern, 1, 1)
        assert results == [-int(Errno.ETIMEDOUT)]
        assert completed == ["open"]
        assert genesys.syscalls_completed == 1
        assert genesys.slots_reclaimed == 1
        assert genesys.area.protocol_errors == 1  # the refused finish
        assert check_invariants(system) == []
        assert gsan.finish() == []
        assert gsan.defended_races == 1



class TestRetryDecision:
    """A blocking call retries exactly the transient errnos, under the
    attempt cap."""

    @pytest.mark.parametrize(
        "result, attempt, retried",
        [
            (-int(Errno.EINTR), 0, True),
            (-int(Errno.EAGAIN), 5, True),
            (-int(Errno.EAGAIN), 6, False),  # the cap: max_syscall_retries
            (-int(Errno.ENOMEM), 0, False),
            (-int(Errno.EIO), 0, False),
            (-int(Errno.ETIMEDOUT), 0, False),
            (0, 0, False),
            (int(Errno.EINTR), 0, False),  # a byte count, not an errno
            ((b"reply", ("localhost", 1)), 0, False),
        ],
    )
    def test_retries_only_transient_errnos(self, result, attempt, retried):
        genesys = System(config=small_machine()).genesys
        assert genesys.max_syscall_retries == 6
        assert genesys.retry_decision(result, attempt) is retried
