"""Deadline propagation and shedding across the syscall stack: minting
at submission, the per-stage shed points (coalesce admit, workqueue
pickup, dispatch), the priority floor, and the watchdog x deadline
exactly-once reclaim.  The /sys/genesys/qos knobs are covered by
test_sysfs_knobs.py."""

from repro.core.coalescing import CoalescingConfig
from repro.faults.chaos import check_invariants
from repro.machine import small_machine
from repro.oskernel.errors import Errno
from repro.probes import policy
from repro.qos import DeadlinePolicy, EDEADLINE
from repro.sanitizers.gsan import GSan
from repro.system import System


class TestMinting:
    def test_no_policy_mints_no_deadline(self):
        system = System(config=small_machine())
        assert system.genesys.mint_deadline("pread") is None

    def test_knob_mints_absolute_deadline(self):
        system = System(config=small_machine())
        system.genesys.qos_deadline_ns = 5_000.0
        assert system.genesys.mint_deadline("pread") == system.now + 5_000.0

    def test_policy_overrides_per_name(self):
        system = System(config=small_machine())
        system.genesys.qos_deadline_ns = 5_000.0
        system.probes.attach_policy(
            "qos.deadline", DeadlinePolicy(by_name=[("recvfrom", 0.0)])
        )
        # recvfrom is exempted (0 delta -> None), everything else keeps
        # the knob default.
        assert system.genesys.mint_deadline("recvfrom") is None
        assert system.genesys.mint_deadline("pread") == system.now + 5_000.0

    def test_requests_carry_deadline_and_priority(self):
        system = System(config=small_machine())
        system.genesys.qos_deadline_ns = 1e9  # far future: never sheds
        seen = []

        def on_dispatch(name, hw_id, invocation_id):
            seen.append(invocation_id)

        system.probes.attach("syscall.dispatch", on_dispatch)

        def kern(ctx):
            yield from ctx.sys.getrusage()

        system.run_kernel(kern, 1, 1, name="carry")
        assert seen  # serviced normally, not shed
        assert system.genesys.syscalls_shed == 0
        assert system.genesys.syscalls_completed == 1


class TestShedding:
    def test_expired_request_shed_with_etime(self):
        """A 1 ns deadline is long past by interrupt time: the request
        is shed at coalesce admit and the blocking caller sees -ETIME."""
        system = System(config=small_machine())
        system.genesys.qos_deadline_ns = 1.0
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage()

        system.run_kernel(kern, 1, 1, name="shed-coalesce")
        assert results[0] == -int(EDEADLINE) == -int(Errno.ETIME)
        stats = system.genesys.stats()
        assert stats["syscalls_shed"] == 1
        assert stats["sheds_by_stage"] == {"coalesce": 1}
        assert check_invariants(system) == []

    def test_deadline_expiring_in_coalesce_window_sheds_at_pickup(self):
        """A deadline that outlives the interrupt but not the coalescing
        window is shed by the scan's pickup pre-pass."""
        system = System(
            config=small_machine(),
            coalescing=CoalescingConfig(window_ns=50_000.0, max_batch=8),
        )
        system.genesys.qos_deadline_ns = 10_000.0
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage()

        system.run_kernel(kern, 1, 1, name="shed-pickup")
        assert results[0] == -int(Errno.ETIME)
        assert system.genesys.stats()["sheds_by_stage"] == {"pickup": 1}
        assert check_invariants(system) == []

    def test_priority_floor_sheds_at_dispatch(self):
        system = System(config=small_machine())
        system.genesys.qos_priority_floor = 1
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage()

        system.run_kernel(kern, 1, 1, name="shed-priority")
        assert results[0] == -int(Errno.ETIME)
        stats = system.genesys.stats()
        assert stats["sheds_by_stage"] == {"dispatch": 1}
        assert check_invariants(system) == []

    def test_bundle_service_sheds_the_next_call_at_dispatch(self):
        """Two calls share one scan: both are live at coalesce admit and
        at pickup, but servicing the first advances the clock past the
        second's deadline, so the second is shed at dispatch.

        Both claim at 20 us; the scan picks up at ~30.4 us, dispatches
        the first at ~31.6 us and reaches the second at ~33.2 us.  A
        12.5 us budget lands both deadlines at 32.5 us, in between.
        """
        system = System(config=small_machine())
        system.genesys.qos_deadline_ns = 12_500.0
        sheds = []
        system.probes.attach(
            "qos.shed",
            lambda stage, reason, invocation_id, name, slot_index: sheds.append(
                (stage, reason, invocation_id)
            ),
        )
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage()

        system.run_kernel(kern, 2, 2, name="shed-dispatch-deadline")
        stats = system.genesys.stats()
        assert stats["bundles"] == 1
        assert results[0] != -int(Errno.ETIME)  # served
        assert results[1] == -int(Errno.ETIME)
        assert sheds == [("dispatch", "deadline", 2)]
        assert stats["sheds_by_stage"] == {"dispatch": 1}
        assert stats["syscalls_completed"] == 1
        assert check_invariants(system) == []

    def test_high_priority_survives_the_floor(self):
        system = System(config=small_machine())
        system.genesys.qos_priority_floor = 1
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage(priority=1)

        system.run_kernel(kern, 1, 1, name="priority-pass")
        assert results[0] != -int(Errno.ETIME)  # served, got a real Rusage
        assert system.genesys.syscalls_shed == 0

    def test_shed_fires_qos_shed_tracepoint(self):
        system = System(config=small_machine())
        system.genesys.qos_deadline_ns = 1.0
        sheds = []

        def on_shed(stage, reason, invocation_id, name, slot_index):
            sheds.append((stage, reason, name))

        system.probes.attach("qos.shed", on_shed)

        def kern(ctx):
            yield from ctx.sys.getrusage()

        system.run_kernel(kern, 1, 1, name="shed-tp")
        assert sheds == [("coalesce", "deadline", "getrusage")]

    def test_sheds_are_gsan_clean(self):
        system = System(config=small_machine())
        gsan = GSan().install(system.probes)
        system.genesys.qos_deadline_ns = 1.0

        def kern(ctx):
            yield from ctx.sys.getrusage()

        system.run_kernel(kern, 4, 4, name="shed-gsan")
        assert gsan.finish() == []
        assert system.genesys.syscalls_shed == 4


class TestWatchdogDeadline:
    """The satellite: a wedged slot whose deadline expires is reclaimed
    exactly once, with -ETIME (not -ETIMEDOUT), under GSan."""

    def _wedged_system(self):
        system = System(config=small_machine())
        system.probes.attach_policy("fault.slot", policy.fixed("wedge"))
        system.probes.attach_policy("genesys.watchdog", policy.fixed(50_000.0))
        system.drain_timeout_ns = 5_000_000.0
        return system

    def test_deadline_reclaim_without_slot_timeout(self):
        """slot_timeout stays disabled (0): only the request's own QoS
        deadline triggers the reclaim, and the status is -ETIME."""
        system = self._wedged_system()
        gsan = GSan().install(system.probes)
        system.genesys.qos_deadline_ns = 100_000.0
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage(blocking=True)

        system.run_kernel(kern, 1, 1, name="deadline-reclaim")
        assert results[0] == -int(Errno.ETIME)
        assert system.genesys.slots_reclaimed == 1
        assert system.genesys.syscalls_shed == 0  # reclaim, not shed
        assert check_invariants(system) == []
        assert gsan.finish() == []

    def test_reclaimed_exactly_once_with_both_limits_armed(self):
        """Deadline and age timeout both cover the same wedged slot; the
        completion still lands exactly once (no double -ETIMEDOUT /
        -ETIME), which check_invariants' accounting would catch."""
        system = self._wedged_system()
        gsan = GSan().install(system.probes)
        system.probes.attach_policy("genesys.slot_timeout", policy.fixed(100_000.0))
        system.genesys.qos_deadline_ns = 100_000.0
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage(blocking=True)

        system.run_kernel(kern, 1, 1, name="double-limit")
        # Deadline expiry wins the tie (checked before age), so -ETIME.
        assert results[0] == -int(Errno.ETIME)
        assert system.genesys.slots_reclaimed == 1
        assert check_invariants(system) == []
        assert gsan.finish() == []


class TestDormancy:
    def test_no_plan_leaves_stats_zero(self):
        system = System(config=small_machine())

        def kern(ctx):
            yield from ctx.sys.getrusage()

        system.run_kernel(kern, 4, 4, name="dormant")
        stats = system.genesys.stats()
        assert stats["syscalls_shed"] == 0
        assert stats["sheds_by_stage"] == {}
        assert stats["qos_fast_fails"] == 0
        assert stats["polled_scans"] == 0
