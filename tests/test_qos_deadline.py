"""Deadline propagation and shedding across the syscall stack: minting
at submission, the per-stage shed points (coalesce admit, workqueue
pickup, dispatch), and the watchdog x deadline exactly-once reclaim.
The /sys/genesys/qos knobs are covered by test_sysfs_knobs.py."""

import pytest

from repro.core.coalescing import CoalescingConfig
from repro.core.invocation import Granularity, Ordering, SyscallRequest
from repro.faults import FaultInjector, FaultPlan, check_invariants
from repro.machine import small_machine
from repro.oskernel.errors import Errno
from repro.sanitizers.gsan import GSan
from repro.system import System


class TestMinting:
    def test_no_policy_mints_no_deadline(self):
        system = System(config=small_machine())
        assert system.genesys.mint_deadline() is None

    @pytest.mark.parametrize("delta_ns", [1.0, 5_000.0, 1e9])
    @pytest.mark.parametrize("now_ns", [0.0, 12_345.0])
    def test_knob_mints_absolute_deadline(self, delta_ns, now_ns):
        """The deadline is absolute: the clock at minting plus the knob."""
        system = System(config=small_machine())
        system.sim.run(until=now_ns)
        system.genesys.qos_deadline_ns = delta_ns
        assert system.now == now_ns
        assert system.genesys.mint_deadline() == now_ns + delta_ns

    def test_knob_back_at_zero_mints_none(self):
        system = System(config=small_machine())
        system.genesys.qos_deadline_ns = 5_000.0
        system.genesys.qos_deadline_ns = 0.0
        assert system.genesys.mint_deadline() is None

    @pytest.mark.parametrize(
        "granularity, ordering",
        [
            (Granularity.WORK_ITEM, Ordering.STRONG),
            (Granularity.WORK_GROUP, Ordering.STRONG),
            (Granularity.KERNEL, Ordering.RELAXED),
        ],
        ids=["work-item", "work-group", "kernel"],
    )
    def test_requests_carry_deadline(self, granularity, ordering):
        """Each request reaches dispatch carrying the deadline minted
        when its invocation began, whatever the granularity."""
        system = System(config=small_machine())
        genesys = system.genesys
        genesys.qos_deadline_ns = 1e9  # far future: never sheds
        minted, carried = [], []
        mint, dispatch = genesys.mint_deadline, genesys._dispatch

        def spy_mint():
            deadline = mint()
            minted.append((system.now, deadline))
            return deadline

        def spy_dispatch(slot):
            request = dispatch(slot)
            carried.append(request.deadline_ns)
            return request

        genesys.mint_deadline = spy_mint
        genesys._dispatch = spy_dispatch

        def kern(ctx):
            yield from ctx.sys.getrusage(granularity=granularity, ordering=ordering)

        system.run_kernel(kern, 1, 1, name="carry")
        assert [deadline for _t, deadline in minted] == carried
        assert [t + 1e9 for t, _deadline in minted] == carried
        assert genesys.syscalls_shed == 0
        assert genesys.syscalls_completed == 1


class TestExpiry:
    @pytest.mark.parametrize(
        "deadline_ns, now_ns, expired",
        [
            (None, 1e18, False),
            (1_000.0, 999.0, False),
            (1_000.0, 1_000.0, False),
            (1_000.0, 1_000.5, True),
        ],
        ids=["no-deadline", "before", "at", "after"],
    )
    def test_expired_only_strictly_past_the_deadline(self, deadline_ns, now_ns, expired):
        """A call served exactly at its deadline is still on time."""
        request = SyscallRequest("getrusage", (), True, None, deadline_ns=deadline_ns)
        assert request.expired(now_ns) is expired


class TestShedding:
    @pytest.mark.parametrize(
        "granularity, ordering",
        [
            (Granularity.WORK_ITEM, Ordering.STRONG),
            (Granularity.WORK_GROUP, Ordering.STRONG),
            (Granularity.KERNEL, Ordering.RELAXED),
        ],
        ids=["work-item", "work-group", "kernel"],
    )
    def test_expired_request_shed_with_etime(self, granularity, ordering):
        """A 1 ns deadline is long past by interrupt time: the request
        is shed at coalesce admit and the blocking caller sees -ETIME,
        whichever granularity issued it."""
        system = System(config=small_machine())
        system.genesys.qos_deadline_ns = 1.0
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage(
                granularity=granularity, ordering=ordering
            )

        system.run_kernel(kern, 1, 1, name="shed-coalesce")
        assert results[0] == -int(Errno.ETIME)
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
        FaultInjector(
            FaultPlan(slot_wedge=1.0, watchdog_period_ns=50_000.0), system
        )
        system.drain_timeout_ns = 5_000_000.0
        return system

    def test_deadline_reclaim_without_slot_timeout(self):
        """slot_timeout stays at its 2 ms default, past the 100 us
        deadline: only the request's own QoS deadline triggers the
        reclaim, and the status is -ETIME."""
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
        system.genesys.slot_timeout_ns = 100_000.0
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
