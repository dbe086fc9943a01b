"""Chaos: seeded fault plans vs the recovery machinery.

Five layers of assertion:

* the chaos matrix — every profile x seed run ends with the
  liveness/safety invariants intact (nothing outstanding, no slot
  leaks, exact completion accounting),
* determinism — the same plan seed replays the identical fault/recovery
  tracepoint stream and identical outputs, twice,
* pinned streams — every profile's fault/recovery stream at seeds 1-3
  matches a committed digest, from one version to the next,
* bounded failure — when recovery is *disabled* or cannot keep up, a
  wedged slot or scenario surfaces as a diagnostic ``DrainTimeout``
  naming the stuck work, never a hang,
* recovery unit paths — watchdog slot reclaim and worker
  respawn/requeue, each in isolation.
"""

import dataclasses
import hashlib
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import (
    EXPERIMENTS,
    FAULT_TABLE,
    PROFILES,
    DrainTimeout,
    FaultInjector,
    FaultPlan,
    check_invariants,
    recovery_stats,
    run_one,
)
from repro.machine import small_machine
from repro.modelcheck import Bounds, explore, run_schedule
from repro.modelcheck.scenarios import build_workload
from repro.oskernel.errors import Errno
from repro.oskernel.workqueue import WorkQueue
from repro.probes.tracepoints import StreamRecorder
from repro.sim.engine import Simulator
from repro.system import System
from repro.workloads.base import DeterministicRandom

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
    built, system, _injector = build_workload(
        experiment, PROFILES[experiment].with_seed(seed)
    )
    stream = StreamRecorder(built.registry).attach(
        "fault.*", "recover.*", "slot.protocol_error", "syscall.retry"
    )
    detail = built.body()
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


# -- pinned fault streams -----------------------------------------------------

#: Per (profile, seed): faults injected, by action, and the sha256 of the
#: ``repr`` of the recorded ``fault.*`` / ``recover.*`` stream.  A change
#: to a site's decision order or to the injector's random draws moves
#: these, and with them every chaos cell and model-checked schedule.
FAULT_STREAM_PINS = {
    ("fig2", 1): (
        21,
        {
            "errno": 6, "irq.delay": 3, "irq.drop": 3, "slot.corrupt": 2,
            "slot.wedge": 2, "worker.kill": 2, "worker.stall": 3,
        },
        "7278f679ca5826e34ead348bf9f484a0"
        "ff1f5dab7887da2708b27f8196896e44",
    ),
    ("fig2", 2): (
        16,
        {
            "errno": 7, "irq.delay": 2, "irq.drop": 2, "slot.corrupt": 2,
            "slot.wedge": 2, "worker.kill": 1,
        },
        "580b3102c1a5a0048510b8fadfe17192"
        "294713fcdd30a41f551956ba900ff45a",
    ),
    ("fig2", 3): (
        27,
        {
            "errno": 15, "irq.delay": 1, "irq.drop": 3, "slot.corrupt": 5,
            "slot.wedge": 1, "worker.stall": 2,
        },
        "3e28b6061524ea0f28e81c9f7957cad8"
        "8975c5e6d7434648c718e192b9c64ade",
    ),
    ("grep", 1): (
        20,
        {
            "errno": 9, "irq.delay": 3, "irq.drop": 2, "slot.corrupt": 4,
            "worker.kill": 1, "worker.stall": 1,
        },
        "bb067cec137febe28823f6540078e1cb"
        "3e9f0f845a14276cccad2174318ca1ef",
    ),
    ("grep", 2): (
        14,
        {
            "errno": 2, "irq.delay": 1, "irq.drop": 2, "slot.corrupt": 4,
            "slot.wedge": 3, "worker.stall": 2,
        },
        "3d4dd1a82eb330b1ee31cf9aa19c62eb"
        "a42d9c1e85de0e725763af495a990e44",
    ),
    ("grep", 3): (
        15,
        {
            "errno": 4, "irq.delay": 2, "irq.drop": 2, "slot.corrupt": 3,
            "slot.wedge": 1, "worker.stall": 3,
        },
        "4bf64132a08b64d6e720c0396e5c90f0"
        "1abaa4e14e494c5220b6f79d51e35ebc",
    ),
    ("memcached", 1): (
        35,
        {
            "errno": 3, "irq.delay": 6, "irq.drop": 3, "net.delay": 16,
            "worker.stall": 7,
        },
        "3326c1d4487e71729d753baabb2b424d"
        "b65cc50827cb80c547ee7247e0b0ca4f",
    ),
    ("memcached", 2): (
        31,
        {
            "errno": 8, "irq.delay": 7, "irq.drop": 5, "net.delay": 8,
            "worker.stall": 3,
        },
        "6986f53b68942653c8dc73f94d1d64a4"
        "0e7de3b5e57e6299652acc3ab84f613e",
    ),
    ("memcached", 3): (
        31,
        {
            "errno": 6, "irq.delay": 8, "irq.drop": 1, "net.delay": 11,
            "worker.stall": 5,
        },
        "522a8dc09ad7b21de0620effc85c8230"
        "aa08d8de2665f2564b484478d0e2be74",
    ),
    ("udp-echo", 1): (
        41,
        {"net.delay": 16, "net.drop": 20, "net.dup": 5},
        "0bebf882a2dbd91fe7c790110fe9bcd0"
        "06083c67e18b28fad0cf8885cba13e2a",
    ),
    ("udp-echo", 2): (
        56,
        {"net.delay": 17, "net.drop": 27, "net.dup": 12},
        "38450c4c8525fe0d613d53103693fc59"
        "2aaa94989828db48d16af276252d9475",
    ),
    ("udp-echo", 3): (
        41,
        {"net.delay": 15, "net.drop": 19, "net.dup": 7},
        "08f43d1a96af17c958d484981115fd6a"
        "2f1e1a63761ffc232d5a9eb8153f3363",
    ),
    ("serving", 1): (
        13,
        {"irq.drop": 8, "worker.kill": 5},
        "007268945ca051363753f3723544c111"
        "6ce0e0cb5bac011c5d0c2ef28efcdb2a",
    ),
    ("serving", 2): (
        9,
        {"irq.drop": 5, "worker.kill": 4},
        "b50ec661eaf2b786cfdd2d13e3098c8c"
        "4e1fd9c6946344cbeec48440a6f77010",
    ),
    ("serving", 3): (
        11,
        {"irq.drop": 9, "worker.kill": 2},
        "92effdb86223abb1dad5b1251c7eef3b"
        "66718c9b8b3f907665526326ea7f1a56",
    ),
    ("qos", 1): (
        8,
        {"irq.drop": 5, "worker.kill": 3},
        "fc76e7513aecd09d8a07e30b8ef464c7"
        "e2226a8054342f72a0996d0bcb9b8f2b",
    ),
    ("qos", 2): (
        7,
        {"irq.drop": 4, "worker.kill": 3},
        "b82e68d50a06b5f51eb8fb350a7e2715"
        "6e5a5accbb2f33d633e13f2c8b0ea926",
    ),
    ("qos", 3): (
        10,
        {"irq.drop": 9, "worker.kill": 1},
        "f1161b57e221abe75560279c948cf9dc"
        "8964715a9910dfca6b17aad6cd31262c",
    ),
}


@pytest.mark.parametrize("experiment", EXPERIMENTS)
@pytest.mark.parametrize("seed", SEEDS)
def test_fault_stream_is_pinned(experiment, seed):
    built, _system, injector = build_workload(
        experiment, PROFILES[experiment].with_seed(seed)
    )
    stream = StreamRecorder(built.registry).attach("fault.*", "recover.*")
    built.body()
    summary = injector.summary()
    digest = hashlib.sha256(repr(stream.events).encode()).hexdigest()
    assert (summary["injected"], summary["by_action"], digest) == (
        FAULT_STREAM_PINS[experiment, seed]
    )


# -- bounded failure (recovery off) ------------------------------------------


def _wedge_all_slots(system, **recovery):
    """Wedge every slot; the watchdog stays off unless ``recovery``
    arms it."""
    recovery.setdefault("watchdog_period_ns", 0.0)
    FaultInjector(FaultPlan(slot_wedge=1.0, **recovery), system)


class TestDrainTimeout:
    def test_wedged_slot_without_watchdog_raises_diagnostic(self):
        system = System(config=small_machine())
        _wedge_all_slots(system)
        system.drain_timeout_ns = 300_000.0

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=False)

        with pytest.raises(DrainTimeout) as excinfo:
            system.run_kernel(kern, 1, 1, name="wedge")
        message = str(excinfo.value)
        assert "1 invocation(s)" in message
        assert excinfo.value.stuck, "DrainTimeout must list the stuck work"
        assert any("processing" in line for line in excinfo.value.stuck)

    def test_killed_worker_without_watchdog_names_stuck_task(self):
        system = System(config=small_machine())
        # Every worker dies at its first pickup; the watchdog that would
        # requeue the task and respawn the worker stays disabled.
        FaultInjector(FaultPlan(worker_kill=1.0, watchdog_period_ns=0.0), system)
        system.drain_timeout_ns = 300_000.0

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=False)

        with pytest.raises(DrainTimeout) as excinfo:
            system.run_kernel(kern, 1, 1, name="dead-worker")
        assert "1 workqueue task(s)" in str(excinfo.value)
        assert system.kernel.workqueue.workers_killed == 1
        assert any(line.startswith("task#") for line in excinfo.value.stuck)

    def test_watchdog_reclaims_wedged_slot_and_drain_completes(self):
        system = System(config=small_machine())
        _wedge_all_slots(
            system, watchdog_period_ns=50_000.0, slot_timeout_ns=100_000.0
        )
        system.drain_timeout_ns = 5_000_000.0

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=False)

        system.run_kernel(kern, 1, 1, name="wedge-reclaim")
        assert system.genesys.slots_reclaimed == 1
        assert check_invariants(system) == []

    def test_blocking_caller_sees_etimedout_status(self):
        system = System(config=small_machine())
        _wedge_all_slots(
            system, watchdog_period_ns=50_000.0, slot_timeout_ns=100_000.0
        )
        system.drain_timeout_ns = 5_000_000.0
        results = {}

        def kern(ctx):
            results[ctx.global_id] = yield from ctx.sys.getrusage(blocking=True)

        system.run_kernel(kern, 1, 1, name="wedge-blocking")
        assert results[0] == -int(Errno.ETIMEDOUT)
        assert check_invariants(system) == []

    def test_check_stalled_requeues_and_respawns_after_kill(self):
        sim = Simulator()
        wq = WorkQueue(sim, small_machine(), num_workers=1, name="kworker-test")
        # A FaultInjector stand-in whose first verdict kills the worker.
        verdicts = iter([("kill", 0.0)])
        wq.faults = SimpleNamespace(decide=lambda site: next(verdicts, None))
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
            assert wq.outstanding == 1
            yield wq.when_idle()

        sim.run_process(drive(), name="drive")
        assert done == [True]
        assert wq.outstanding == 0
        assert wq.tasks_requeued == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_qos_cell_polices_and_answers_the_stale_backlog(seed):
    """The overload cell's one defence fires under faults: past its
    knee the server head-drops stale requests, and every sender is
    still bound, so each drop comes back as a reject frame."""
    report = run_one("qos", seed)
    assert report.ok, report.violations
    qos = report.detail["qos"]
    assert qos["net_drops"]["expired"] > 0
    assert report.detail["rejected"] == qos["net_drops"]["expired"]
    assert qos["reject_frames"] == qos["net_drops"]["expired"]


class TestScenarioBound:
    """``drain_timeout_ns`` bounds the scenario body, not only the drain."""

    BOUND_NS = 5_000_000.0

    @pytest.mark.parametrize("experiment", ("serving", "qos"))
    def test_every_pickup_killed_ends_as_liveness(self, experiment):
        # At intensity 20 every workqueue pickup kills its worker, so the
        # serving kernel's recvfroms never complete and the scenario's
        # main process never returns.
        report = run_one(experiment, 1, 20.0, drain_timeout_ns=self.BOUND_NS)
        assert report.violations[0].startswith(
            "liveness: mc-serve: still running at the 5000000ns bound"
        )
        assert "stuck: slot#" in report.violations[0]
        assert report.elapsed_ns <= self.BOUND_NS

    def test_run_inside_the_bound_ends_where_unbounded(self):
        def end(bound):
            system = System(config=small_machine())
            system.drain_timeout_ns = bound

            def kern(ctx):
                yield from ctx.sys.getrusage(blocking=False)

            system.run_kernel(kern, 4, 2, name="bounded")
            return system.now

        assert end(self.BOUND_NS) == end(None)

    def test_cancelled_timer_past_the_bound_is_not_live_work(self):
        # A cancelled timer's tombstone falls after the bound; the run
        # itself ends well inside it.
        system = System(config=small_machine())
        system.drain_timeout_ns = 50_000.0
        system.sim.call_at(60_000.0, lambda: None).fn = None

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=False)

        system.run_kernel(kern, 4, 2, name="bounded")
        assert system.now < 50_000.0

    def test_fig15_kernel_reissues_a_recvfrom_that_gave_up(self):
        # This cell's injected errnos outlast a recvfrom's GPU-side
        # retries; the kernel must re-issue the call, not unpack an errno.
        plan = PROFILES["memcached"].with_seed(48).scaled(4.3)
        built, _system, _injector = build_workload("memcached", plan)
        stream = StreamRecorder(built.registry).attach("syscall.claim", "syscall.retry")
        detail = built.body()
        assert detail["replies"] == detail["requests"] == 24
        assert built.audit() == []
        recvfroms = [name for _t, name, args in stream.events if args[1] == "recvfrom"]
        # One claim per request and one per GPU-side retry, and more.
        claims = recvfroms.count("syscall.claim")
        assert claims - recvfroms.count("syscall.retry") > 24

    def test_fig15_kernel_at_errno_rate_one_ends_as_liveness(self):
        plan = dataclasses.replace(PROFILES["memcached"], errno_rate=1.0)
        report = run_one(
            "memcached", 1, drain_timeout_ns=self.BOUND_NS, plan=plan.with_seed(1)
        )
        assert report.violations[0].startswith(
            "liveness: memcached-genesys: still running at the 5000000ns bound"
        )


# -- one oracle -----------------------------------------------------------------


class TestOneCell:
    """``chaos`` and ``explore`` judge a run through the same cell, so
    the same run gets the same verdict from both."""

    def test_invented_grep_match_is_safety_under_chaos_and_explore(self, monkeypatch):
        from repro.workloads.grepwl import GrepWorkload

        original = GrepWorkload.__init__

        def forget_first_match(self, *args, **kwargs):
            original(self, *args, **kwargs)
            del self.expected_matches[0]

        monkeypatch.setattr(GrepWorkload, "__init__", forget_first_match)
        invented = "safety: invented matches ['/data/grep/file0000.txt']"
        assert invented in run_one("grep", 1).violations
        result = run_schedule("grep", (), profile="grep", seed=1)
        assert not result["ok"]
        assert invented in result["violations"]

    def test_scenario_crash_is_a_violating_schedule(self, monkeypatch):
        from repro.workloads.grepwl import GrepWorkload

        def broken(self, *args, **kwargs):
            raise TypeError("broken kernel")

        monkeypatch.setattr(GrepWorkload, "run_genesys", broken)
        report = explore("grep", profile="grep", seed=1, bounds=Bounds(max_schedules=4))
        assert report.violating
        first = report.violating[0]["violations"][0]
        assert first.startswith("crash: TypeError: broken kernel (at test_chaos.py:")
        assert run_one("grep", 1).violations[0] == first


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

    # The first intensities whose per-field products pass 1 on some
    # site, and one whose division alone leaves a sum of 1 + 2**-52.
    @example(profile="udp-echo", factor=2.1)
    @example(profile="udp-echo", factor=2.511)
    @example(profile="fig2", factor=3.4)
    @example(profile="grep", factor=4.1)
    @example(profile="memcached", factor=4.4)
    @settings(max_examples=200, deadline=None)
    @given(
        profile=st.sampled_from(sorted(PROFILES)),
        factor=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_scaled_plan_is_valid(self, profile, factor):
        plan = PROFILES[profile]
        scaled = plan.scaled(factor)  # the constructor validates it
        for rows in FAULT_TABLE.values():
            fields = [row[1] for row in rows]
            products = [getattr(plan, field) * factor for field in fields]
            rates = [getattr(scaled, field) for field in fields]
            if sum(products) <= 1.0:
                assert rates == products
            else:
                assert sum(rates) <= 1.0
                assert rates == pytest.approx(
                    [product / sum(products) for product in products]
                )

    def test_injector_is_every_fault_sites_faults(self):
        system = System(config=small_machine())
        kernel = system.kernel
        owners = (kernel.interrupts, kernel.workqueue, kernel.net, system.genesys)
        assert all(owner.faults is None for owner in owners)
        injector = FaultInjector(FaultPlan(), system)
        assert all(owner.faults is injector for owner in owners)

    @pytest.mark.parametrize("site", sorted(FAULT_TABLE))
    def test_each_class_at_rate_one_answers_one_verdict_shape(self, site):
        """``(verdict, value)``: the drawn delay, the drawn errno, or 0.0."""
        ranges = {
            "irq_delay_ns": (5.0, 5.0),
            "worker_stall_ns": (6.0, 6.0),
            "net_delay_ns": (7.0, 7.0),
        }
        for action, field, verdict, delay_field in FAULT_TABLE[site]:
            plan = FaultPlan(errnos=(int(Errno.EAGAIN),), **{field: 1.0}, **ranges)
            injector = FaultInjector(plan, System(config=small_machine()))
            value = (
                int(Errno.EAGAIN) if verdict == "errno"
                else ranges[delay_field][0] if delay_field else 0.0
            )
            assert injector.decide(site) == (verdict, value)
            assert injector.summary()["by_action"] == {action: 1}

    def test_a_site_the_plan_leaves_at_zero_draws_nothing(self):
        """Asking an unarmed site neither draws nor counts a decision,
        so adding a fault class elsewhere leaves a stream's draws alone."""
        injector = FaultInjector(
            FaultPlan(seed=5, irq_drop=0.5), System(config=small_machine())
        )
        for site in ("worker", "slot", "errno", "net"):
            assert injector.decide(site) is None
        assert injector.decisions == 0
        injector.decide("irq")
        assert injector.decisions == 1
        reference = DeterministicRandom(5)
        reference.random()  # the one irq roll
        assert injector.rng.random() == reference.random()

    def test_injector_respects_budget(self):
        plan = FaultPlan(
            seed=3,
            errno_rate=1.0,
            max_faults=2,
            watchdog_period_ns=50_000.0,
        )
        system = System(config=small_machine())
        system.drain_timeout_ns = 2_000_000_000.0
        injector = FaultInjector(plan, system)

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=True)

        system.run_kernel(kern, 4, 4, name="budget")
        assert injector.injected == 2
        assert check_invariants(system) == []

    def test_injector_writes_the_recovery_knobs(self):
        """A plan's recovery settings land in the /sys/genesys knobs,
        and a plan with every rate at 0 consults no site."""
        system = System(config=small_machine())
        injector = FaultInjector(
            FaultPlan(
                watchdog_period_ns=40_000.0,
                slot_timeout_ns=300_000.0,
                worker_timeout_ns=120_000.0,
            ),
            system,
        )
        read = system.kernel.fs.read_whole
        assert read("/sys/genesys/watchdog_period_ns") == b"40000\n"
        assert read("/sys/genesys/slot_timeout_ns") == b"300000\n"
        assert read("/sys/genesys/worker_timeout_ns") == b"120000\n"
        assert all(injector.decide(site) is None for site in FAULT_TABLE)
        assert injector.summary()["decisions"] == 0

    def test_zero_watchdog_leaves_the_knob(self):
        """A plan with the watchdog off writes no period: whatever the
        knob held stays, while both timeouts are always written."""
        system = System(config=small_machine())
        system.genesys.watchdog_period_ns = 25_000.0
        FaultInjector(FaultPlan(watchdog_period_ns=0.0, slot_timeout_ns=0.0), system)
        assert system.genesys.watchdog_period_ns == 25_000.0
        assert system.genesys.slot_timeout_ns == 0.0
        assert system.genesys.worker_timeout_ns == FaultPlan().worker_timeout_ns

    def test_no_plan_is_inert(self):
        """A machine with no plan installed runs exactly the stock
        pipeline: no faults, no retries, no watchdog activity."""
        system = System(config=small_machine())

        def kern(ctx):
            yield from ctx.sys.getrusage(blocking=True)

        system.run_kernel(kern, 2, 2, name="inert")
        stats = recovery_stats(system)
        assert all(value == 0 for value in stats.values()), stats
