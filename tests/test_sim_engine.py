"""Unit tests for the discrete-event simulation engine."""

import pytest

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Delay,
    Interrupted,
    Simulator,
    SimulationError,
)


@pytest.fixture
def sim():
    return Simulator()


class TestDelay:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Delay(-1)

    def test_zero_allowed(self):
        assert Delay(0).duration == 0

    def test_numeric_yield_advances_clock(self, sim):
        def body():
            yield 25
            yield 75

        sim.run_process(body())
        assert sim.now == 100

    def test_explicit_delay_object(self, sim):
        def body():
            yield Delay(10)

        sim.run_process(body())
        assert sim.now == 10

    def test_float_delays(self, sim):
        def body():
            yield 0.5
            yield 0.25

        sim.run_process(body())
        assert sim.now == pytest.approx(0.75)


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        event = sim.event()

        def waiter():
            value = yield event
            return value

        def trigger():
            yield 10
            event.succeed("payload")

        proc = sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert proc.result == "payload"
        assert sim.now == 10

    def test_multiple_waiters_all_wake(self, sim):
        event = sim.event()
        results = []

        def waiter(idx):
            value = yield event
            results.append((idx, value))

        for i in range(5):
            sim.process(waiter(i))

        def trigger():
            yield 1
            event.succeed(42)

        sim.process(trigger())
        sim.run()
        assert sorted(results) == [(i, 42) for i in range(5)]

    def test_yield_already_triggered_event_resumes_immediately(self, sim):
        event = sim.event()
        event.succeed("早")

        def body():
            value = yield event
            return value

        assert sim.run_process(body()) == "早"
        assert sim.now == 0

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_raises_into_waiter(self, sim):
        event = sim.event()

        def body():
            try:
                yield event
            except RuntimeError as err:
                return str(err)

        def trigger():
            yield 1
            event.fail(RuntimeError("boom"))

        proc = sim.process(body())
        sim.process(trigger())
        sim.run()
        assert proc.result == "boom"

    def test_value_property(self, sim):
        event = sim.event()
        event.succeed(7)
        assert event.value == 7


class TestProcess:
    def test_return_value(self, sim):
        def body():
            yield 1
            return "done"

        assert sim.run_process(body()) == "done"

    def test_join_another_process(self, sim):
        def child():
            yield 50
            return "child-result"

        def parent():
            proc = sim.process(child())
            value = yield proc
            return value

        assert sim.run_process(parent()) == "child-result"
        assert sim.now == 50

    def test_join_finished_process(self, sim):
        def child():
            yield 5
            return 99

        def parent():
            proc = sim.process(child())
            yield 20
            value = yield proc
            return value

        assert sim.run_process(parent()) == 99
        assert sim.now == 20

    def test_completion_event(self, sim):
        def child():
            yield 3
            return "x"

        proc = sim.process(child())
        sim.run()
        assert proc.completion.triggered
        assert proc.completion.value == "x"

    def test_interrupt_raises_in_process(self, sim):
        def sleeper():
            try:
                yield 1000
            except Interrupted as intr:
                return ("interrupted", intr.cause)
            return "slept"

        def killer(target):
            yield 10
            target.interrupt("wake")

        proc = sim.process(sleeper())
        sim.process(killer(proc))
        sim.run()
        assert proc.result == ("interrupted", "wake")
        assert sim.now == 10

    def test_interrupt_finished_process_is_noop(self, sim):
        def body():
            yield 1

        proc = sim.process(body())
        sim.run()
        proc.interrupt()
        sim.run()
        assert proc.finished

    def test_uncaught_interrupt_terminates_cleanly(self, sim):
        def sleeper():
            yield 1000

        def killer(target):
            yield 5
            target.interrupt()

        proc = sim.process(sleeper())
        sim.process(killer(proc))
        sim.run()
        assert proc.finished
        assert proc.result is None

    def test_invalid_yield_raises(self, sim):
        def body():
            yield "not-a-thing"

        with pytest.raises(SimulationError):
            sim.run_process(body())

    def test_deadlock_detected_by_run_process(self, sim):
        event = sim.event()

        def body():
            yield event  # nobody will trigger it

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(body())


class TestCombinators:
    def test_allof_collects_values_in_order(self, sim):
        def child(duration, value):
            yield duration
            return value

        def parent():
            procs = [sim.process(child(30, "a")), sim.process(child(10, "b"))]
            values = yield AllOf(procs)
            return values

        assert sim.run_process(parent()) == ["a", "b"]
        assert sim.now == 30

    def test_anyof_returns_first(self, sim):
        def child(duration, value):
            yield duration
            return value

        def parent():
            procs = [sim.process(child(30, "slow")), sim.process(child(10, "fast"))]
            idx, value = yield AnyOf(procs)
            return idx, value, sim.now

        # The slow child still drains afterwards; capture the wake time inside.
        assert sim.run_process(parent()) == (1, "fast", 10)

    def test_allof_mixed_events_and_processes(self, sim):
        event = sim.event()

        def child():
            yield 5
            return "proc"

        def trigger():
            yield 2
            event.succeed("evt")

        def parent():
            proc = sim.process(child())
            sim.process(trigger())
            values = yield AllOf([event, proc])
            return values

        assert sim.run_process(parent()) == ["evt", "proc"]

    def test_allof_with_already_triggered(self, sim):
        event = sim.event()
        event.succeed("pre")

        def parent():
            values = yield AllOf([event])
            return values

        assert sim.run_process(parent()) == ["pre"]


class TestRun:
    def test_run_until_stops_clock(self, sim):
        def body():
            yield 100

        sim.process(body())
        assert sim.run(until=40) == 40
        assert sim.now == 40
        assert sim.run() == 100

    def test_run_until_beyond_all_events(self, sim):
        def body():
            yield 10

        sim.process(body())
        assert sim.run(until=500) == 500

    def test_empty_run(self, sim):
        assert sim.run() == 0

    def test_event_ordering_is_fifo_at_same_time(self, sim):
        order = []

        def body(tag):
            yield 10
            order.append(tag)

        for tag in ("a", "b", "c"):
            sim.process(body(tag))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_nested_spawn(self, sim):
        results = []

        def grandchild():
            yield 1
            results.append("gc")

        def child():
            yield sim.process(grandchild())
            results.append("c")

        def parent():
            yield sim.process(child())
            results.append("p")

        sim.run_process(parent())
        assert results == ["gc", "c", "p"]
