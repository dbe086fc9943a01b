"""Chaos: seeded fault plans vs the recovery machinery.

Four layers of assertion:

* the chaos matrix — every profile x seed run ends with the
  liveness/safety invariants intact (nothing outstanding, no slot
  leaks, exact completion accounting),
* determinism — the same plan seed replays the identical fault/recovery
  tracepoint stream and identical outputs, twice,
* bounded failure — when recovery is *disabled*, a wedged slot surfaces
  as a diagnostic ``DrainTimeout`` naming the stuck work, never a hang,
* recovery unit paths — watchdog slot reclaim, worker respawn/requeue,
  and the workqueue quiesce deadline, each in isolation.
"""

import pytest

from repro.core.syscall_area import SlotState
from repro.faults import (
    EXPERIMENTS,
    PROFILES,
    DrainTimeout,
    FaultPlan,
    check_invariants,
    install_plan,
    recovery_stats,
    run_one,
    run_scenario,
)
from repro.machine import small_machine
from repro.oskernel.workqueue import WorkQueue
from repro.probes import policy
from repro.probes.tracepoints import StreamRecorder
from repro.sim.engine import Simulator
from repro.system import System

SEEDS = (1, 2, 3)


# -- the matrix ---------------------------------------------------------------


class TestChaosMatrix:
    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_invariants_hold_under_faults(self, experiment, seed):
        report = run_one(experiment, seed)
        assert report.ok, f"{experiment}/seed={seed}: {report.violations}"
        assert report.injected > 0, "profile injected nothing — not a chaos run"

    def test_matrix_exercises_recovery_paths(self):
        """Across the GPU-syscall profiles and seeds, every recovery
        mechanism fires at least once — otherwise the invariants pass
        vacuously."""
        totals = {}
        for experiment in ("fig2", "grep", "memcached"):
            for seed in SEEDS:
                report = run_one(experiment, seed)
                for key, value in report.recovery.items():
                    totals[key] = totals.get(key, 0) + value
        assert totals["syscall_retries"] > 0
        assert totals["slots_reclaimed"] > 0
        assert totals["degraded_rescans"] > 0
        assert totals["tasks_requeued"] > 0
        assert totals["workers_respawned"] > 0

    def test_udp_echo_survives_loss_and_duplication(self):
        report = run_one("udp-echo", 7)
        assert report.ok, report.violations
        assert report.detail["retransmits"] > 0 or report.detail["dup_replies"] > 0


# -- determinism --------------------------------------------------------------


def _traced_run(experiment, seed):
    plan = PROFILES[experiment].with_seed(seed)
    system = System()
    system.drain_timeout_ns = 2_000_000_000.0
    install_plan(plan, system.probes)
    stream = StreamRecorder(system.probes).attach(
        "fault.*", "recover.*", "slot.protocol_error", "syscall.retry"
    )
    detail = run_scenario(experiment, system)
    return stream.events, detail, system.now, recovery_stats(system)


class TestDeterminism:
    @pytest.mark.parametrize("experiment", ("fig2", "grep", "memcached"))
    def test_same_seed_replays_identically(self, experiment):
        first = _traced_run(experiment, seed=5)
        second = _traced_run(experiment, seed=5)
        stream_a, detail_a, end_a, stats_a = first
        stream_b, detail_b, end_b, stats_b = second
        assert stream_a, "no fault/recovery events recorded"
        assert stream_a == stream_b
        assert detail_a == detail_b
        assert end_a == end_b
        assert stats_a == stats_b

    def test_different_seeds_diverge(self):
        stream_a, *_ = _traced_run("fig2", seed=5)
        stream_b, *_ = _traced_run("fig2", seed=6)
        assert stream_a != stream_b


# -- bounded failure (recovery off) ------------------------------------------


def _wedge_all_slots(system):
    system.probes.attach_policy("fault.slot", policy.fixed("wedge"))


class TestDrainTimeout:
    def test_wedged_slot_without_watchdog_raises_diagnostic(self):
        system = System(config=small_machine())
        _wedge_all_slots(system)  # watchdog stays at its disabled default
        system.drain_timeout_ns = 300_000.0

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=False)

        with pytest.raises(DrainTimeout) as excinfo:
            system.run_kernel(kern, 1, 1, name="wedge")
        message = str(excinfo.value)
        assert "1 invocation(s)" in message
        assert excinfo.value.stuck, "DrainTimeout must list the stuck work"
        assert any("processing" in line for line in excinfo.value.stuck)

    def test_watchdog_reclaims_wedged_slot_and_drain_completes(self):
        system = System(config=small_machine())
        _wedge_all_slots(system)
        system.probes.attach_policy("genesys.watchdog", policy.fixed(50_000.0))
        system.probes.attach_policy("genesys.slot_timeout", policy.fixed(100_000.0))
        system.drain_timeout_ns = 5_000_000.0

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=False)

        system.run_kernel(kern, 1, 1, name="wedge-reclaim")
        assert system.genesys.slots_reclaimed == 1
        assert check_invariants(system) == []

    def test_blocking_caller_sees_etimedout_status(self):
        from repro.oskernel.errors import Errno

        system = System(config=small_machine())
        _wedge_all_slots(system)
        system.probes.attach_policy("genesys.watchdog", policy.fixed(50_000.0))
        system.probes.attach_policy("genesys.slot_timeout", policy.fixed(100_000.0))
        system.drain_timeout_ns = 5_000_000.0
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage(blocking=True)

        system.run_kernel(kern, 1, 1, name="wedge-blocking")
        assert results[0] == -int(Errno.ETIMEDOUT)
        assert check_invariants(system) == []

    def test_workqueue_quiesce_deadline_names_stuck_task(self):
        sim = Simulator()
        wq = WorkQueue(sim, small_machine(), num_workers=1, name="kworker-test")
        wq.probes.attach_policy("fault.worker", policy.fixed("kill"))

        def task():
            yield 10.0

        wq.submit(task)

        def drive():
            yield from wq.quiesce(timeout=200_000.0)

        with pytest.raises(DrainTimeout) as excinfo:
            sim.run_process(drive(), name="quiesce")
        assert "task(s) unfinished" in str(excinfo.value)
        assert any("task#" in line for line in excinfo.value.stuck)

    def test_check_stalled_requeues_and_respawns_after_kill(self):
        sim = Simulator()
        wq = WorkQueue(sim, small_machine(), num_workers=1, name="kworker-test")
        killed = {"armed": True}

        def kill_once(current, worker_id, task_index):
            if killed["armed"]:
                killed["armed"] = False
                return "kill"
            return None

        wq.probes.attach_policy("fault.worker", kill_once)
        done = []

        def task():
            yield 10.0
            done.append(True)

        wq.submit(task)

        def drive():
            # Let the kill land, then play watchdog by hand.
            yield 1_000.0
            assert wq.workers_killed == 1
            requeued = wq.check_stalled(timeout_ns=500.0)
            assert requeued == 1
            assert wq.workers_respawned == 1
            yield from wq.quiesce(timeout=1_000_000.0)

        sim.run_process(drive(), name="drive")
        assert done == [True]
        assert wq.outstanding == 0
        assert wq.tasks_requeued == 1


# -- plan hygiene -------------------------------------------------------------


class TestFaultPlan:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            FaultPlan(irq_drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(irq_drop=0.7, irq_delay=0.6)
        with pytest.raises(ValueError):
            FaultPlan(irq_delay=0.1, irq_delay_ns=(5.0, 1.0))
        with pytest.raises(ValueError):
            FaultPlan(errno_rate=0.1, errnos=())

    def test_scaled_clamps(self):
        plan = FaultPlan(irq_drop=0.4).scaled(10.0)
        assert plan.irq_drop == 1.0

    def test_injector_respects_budget(self):
        plan = FaultPlan(
            seed=3,
            errno_rate=1.0,
            max_faults=2,
            watchdog_period_ns=50_000.0,
        )
        system = System(config=small_machine())
        system.drain_timeout_ns = 2_000_000_000.0
        injector = install_plan(plan, system.probes)

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=True)

        system.run_kernel(kern, 4, 4, name="budget")
        assert injector.injected == 2
        assert check_invariants(system) == []

    def test_no_plan_is_inert(self):
        """A machine with no plan installed runs exactly the stock
        pipeline: no faults, no retries, no watchdog activity."""
        system = System(config=small_machine())

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=True)

        system.run_kernel(kern, 2, 2, name="inert")
        stats = recovery_stats(system)
        assert all(value == 0 for value in stats.values()), stats
