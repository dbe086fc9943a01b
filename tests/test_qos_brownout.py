"""The brownout controller: staged escalation on windowed sensors,
hysteresis, the level-2 polling handoff, the sysfs enable gate, and
clean unwind on stop."""

import pytest

from repro.machine import small_machine
from repro.metrics import MetricsHub
from repro.qos.brownout import BrownoutController, _ScaleWindow
from repro.qos.plan import SENSORS
from repro.system import System


class _FakeHub:
    """Settable sensors standing in for a MetricsHub."""

    def __init__(self):
        self.p99 = 0.0
        self.depth = 0.0

    def finalize(self, t_ns=None):
        pass

    def read(self, name, window=1, mode=None):
        if name == "syscall.latency":
            assert mode == "p99"
            return self.p99
        assert name == "wq.depth"
        return self.depth


def make_controller(**overrides):
    system = System(config=small_machine())
    hub = _FakeHub()
    kwargs = dict(
        period_ns=1_000.0,
        hi_p99_ns=100.0,
        lo_p99_ns=10.0,
        hi_depth=8.0,
        lo_depth=2.0,
        max_level=3,
    )
    kwargs.update(overrides)
    controller = BrownoutController(system, hub, **kwargs)
    controller._running = True  # drive _tick directly, no timer needed
    return system, hub, controller


class TestValidation:
    def test_rejects_bad_parameters(self):
        system = System(config=small_machine())
        hub = _FakeHub()
        with pytest.raises(ValueError):
            BrownoutController(system, hub, period_ns=0.0)
        with pytest.raises(ValueError):
            BrownoutController(system, hub, max_level=4)
        with pytest.raises(ValueError):
            BrownoutController(system, hub, hi_p99_ns=10.0, lo_p99_ns=20.0)
        with pytest.raises(ValueError):
            BrownoutController(system, hub, hi_depth=1.0, lo_depth=2.0)


class TestEscalation:
    def test_walks_the_ladder_one_level_per_tick(self):
        system, hub, controller = make_controller()
        hub.p99 = 500.0  # above hi
        controller._tick()
        assert controller.level == 1
        assert system.probes.get_hook("coalesce.window").active
        controller._tick()
        assert controller.level == 2
        assert system.kernel.interrupts.polling
        controller._tick()
        assert controller.level == 3
        assert system.genesys.qos_priority_floor == 1
        assert controller.summary()["peak_level"] == 3
        assert controller.escalations == 3

    def test_either_sensor_escalates(self):
        system, hub, controller = make_controller()
        hub.depth = 100.0  # p99 fine, queue deep
        controller._tick()
        assert controller.level == 1

    def test_max_level_caps_the_ladder(self):
        system, hub, controller = make_controller(max_level=1)
        hub.p99 = 500.0
        for _ in range(4):
            controller._tick()
        assert controller.level == 1
        assert not system.kernel.interrupts.polling

    def test_level_one_scales_the_coalescing_window(self):
        system, hub, controller = make_controller(window_scale=0.5)
        hub.p99 = 500.0
        controller._tick()
        hook = system.probes.get_hook("coalesce.window")
        assert hook.decide(8_000.0) == 4_000.0

    def test_scale_window_tolerates_non_numeric_default(self):
        assert _ScaleWindow(0.5)(None) is None


class TestHysteresis:
    def test_in_band_pressure_holds_the_level(self):
        system, hub, controller = make_controller()
        hub.p99 = 500.0
        controller._tick()
        assert controller.level == 1
        # Between the low and high water marks: no move either way.
        hub.p99 = 50.0
        for _ in range(3):
            controller._tick()
        assert controller.level == 1
        assert controller.deescalations == 0

    def test_deescalates_only_when_both_sensors_clear(self):
        system, hub, controller = make_controller(max_level=2)
        hub.p99 = 500.0
        hub.depth = 100.0
        controller._tick()
        controller._tick()
        assert controller.level == 2
        hub.p99 = 0.0  # latency recovered, queue still deep
        controller._tick()
        assert controller.level == 2
        hub.depth = 0.0  # both clear: walk back down
        controller._tick()
        assert controller.level == 1
        controller._tick()
        assert controller.level == 0
        assert controller.deescalations == 2


class TestLevelTwoExit:
    def test_clears_suppression_and_leaves_polling_mode(self):
        system, hub, controller = make_controller()
        hub.p99 = 500.0
        controller._tick()
        controller._tick()
        assert controller.level == 2
        # Interrupts absorbed while polling leave suppression marks.
        system.genesys._scan_suppressed.add(0)
        hub.p99 = 0.0
        controller._tick()
        assert controller.level == 1
        assert not system.kernel.interrupts.polling
        assert system.genesys._scan_suppressed == set()


class TestPollingFlag:
    def test_level_two_services_calls_by_polling(self):
        """At level 2 an interrupt runs no top half; the controller's
        tick scans the READY slot instead, and the call completes."""
        system, hub, controller = make_controller(max_level=2, period_ns=5_000.0)
        hub.p99 = 500.0
        controller._tick()
        controller._tick()
        assert controller.level == 2
        controller._running = False
        controller.start()
        polled = []
        system.probes.attach("irq.polled", polled.append)
        results = []

        def kern(ctx):
            results.append((yield from ctx.sys.getrusage()))

        system.run_kernel(kern, 1, 1, name="brownout-poll")
        interrupts = system.kernel.interrupts
        assert len(polled) == interrupts.raised == 1
        assert interrupts.serviced == 0
        assert system.genesys.polled_scans >= 1
        assert system.genesys.syscalls_completed == 1
        assert not isinstance(results[0], int)  # a Rusage, not an errno
        controller.stop()
        assert not interrupts.polling


class TestGateAndStop:
    def test_sysfs_gate_forces_full_unwind(self):
        system, hub, controller = make_controller()
        hub.p99 = 500.0
        for _ in range(3):
            controller._tick()
        assert controller.level == 3
        system.genesys.qos_brownout_enabled = 0
        controller._tick()  # pressure unchanged, but the gate is off
        assert controller.level == 0
        assert system.genesys.qos_priority_floor == 0
        assert not system.probes.get_hook("coalesce.window").active
        assert not system.kernel.interrupts.polling

    def test_stop_unwinds_every_level(self):
        system, hub, controller = make_controller()
        hub.p99 = 500.0
        for _ in range(3):
            controller._tick()
        controller.stop()
        assert controller.level == 0
        assert system.genesys.qos_priority_floor == 0
        assert not system.probes.get_hook("coalesce.window").active
        assert not system.kernel.interrupts.polling
        # A stale armed timer firing after stop is a no-op.
        ticks = controller.ticks
        controller._tick()
        assert controller.ticks == ticks


class TestTimerIntegration:
    def test_weak_tick_rides_the_simulation(self):
        """start() arms a weak periodic tick that fires while real work
        keeps the simulation alive, and never holds it open itself."""
        system = System(config=small_machine())
        hub = _FakeHub()
        controller = BrownoutController(system, hub, period_ns=500.0).start()

        def kern(ctx):
            for _ in range(4):
                yield from ctx.sys.getrusage()

        system.run_kernel(kern, 1, 1, name="brownout-tick")
        assert controller.ticks > 0
        assert controller.level == 0  # sensors quiet throughout
        controller.stop()


def run_one_slow_call():
    """A controller on a real sensor hub, one slow call at 500 ns, and
    live work until 2500 ns."""
    system = System(config=small_machine())
    hub = MetricsHub(1_000.0, "qos", catalog=SENSORS).install(system.probes)
    controller = BrownoutController(system, hub, period_ns=1_000.0).start()
    complete = system.probes.get("syscall.complete")
    system.sim.call_at(500.0, lambda: complete.fire("pread", 0, 500_000.0, 1, True))
    system.sim.call_at(2_500.0, lambda: None)  # live work until then
    system.sim.run()
    return system, controller


class TestSensorWindows:
    def test_tick_reads_the_window_its_boundary_closed(self):
        """Inside the weak tick at 1000 ns ``sim.now`` still reads the
        last live event's 500 ns; the controller closes the sensor
        windows at its own boundary, so it sees the slow call of window
        [0, 1000) at once and the empty window [1000, 2000) next."""
        _system, controller = run_one_slow_call()
        assert controller.ticks == 2
        assert (controller.escalations, controller.deescalations) == (1, 1)
        assert controller.peak_level == 1

    def test_the_controller_tick_is_the_only_weak_event(self):
        """The hub schedules nothing: every weak event is a controller
        tick, and the one armed past the last live event never runs."""
        system, controller = run_one_slow_call()
        assert system.sim.weak_scheduled == controller.ticks + 1
