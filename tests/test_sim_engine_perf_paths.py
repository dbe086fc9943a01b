"""Regression tests for the event-driven engine hot paths.

Covers the refactor's edge cases: O(1)-amortised waiter discard under
wide ``AnyOf`` fan-out, ``Event.fail`` propagation through combinators,
re-yielding already-triggered events, cancelled ``call_later`` handles
interacting with ``run(until=...)``, and the absolute-time wakeup
primitive."""

import pytest

from repro.modelcheck.schedule import GuidedTieBreak
from repro.sim.engine import (
    AllOf,
    AnyOf,
    Interrupted,
    Simulator,
    is_live,
)


@pytest.fixture
def sim():
    return Simulator()


class TestWideFanoutInterrupt:
    def test_interrupt_inside_large_anyof(self, sim):
        """Interrupting a process parked in a 5000-wide AnyOf must cleanly
        detach it from every child event (the old list.remove path was
        O(n) per child and could resurrect the waiter)."""
        width = 5000
        events = [sim.event() for _ in range(width)]
        observed = []

        def victim():
            try:
                yield AnyOf(events)
            except Interrupted as intr:
                observed.append(("interrupted", intr.cause))
            # Life continues after the interrupt.
            yield 5
            observed.append(("resumed", sim.now))

        proc = sim.process(victim())

        def interrupter():
            yield 10
            proc.interrupt("wide-cancel")

        sim.process(interrupter())
        sim.run()
        assert observed == [("interrupted", "wide-cancel"), ("resumed", 15)]
        # Firing the abandoned events later must not resurrect the victim.
        for event in events:
            event.succeed("late")
        sim.run()
        assert observed == [("interrupted", "wide-cancel"), ("resumed", 15)]

    def test_repeated_interrupts_in_fanout_stay_consistent(self, sim):
        """Round after round of arm/interrupt against the same events:
        tombstone compaction must never drop or double-wake a waiter."""
        events = [sim.event() for _ in range(512)]
        interrupts_seen = [0]

        def victim():
            while True:
                try:
                    yield AnyOf(events)
                    return "woken"
                except Interrupted:
                    interrupts_seen[0] += 1

        proc = sim.process(victim())

        def driver():
            for _ in range(40):
                yield 1
                proc.interrupt()
            yield 1
            events[137].succeed("payload")

        sim.process(driver())
        sim.run()
        assert interrupts_seen[0] == 40
        assert proc.result == "woken"


class TestFailPropagation:
    def test_fail_propagates_through_allof(self, sim):
        good, bad = sim.event(), sim.event()

        def body():
            try:
                yield AllOf([good, bad])
            except RuntimeError as exc:
                return f"caught: {exc}"

        def driver():
            yield 5
            good.succeed(1)
            yield 5
            bad.fail(RuntimeError("child broke"))

        proc = sim.process(body())
        sim.process(driver())
        sim.run()
        assert proc.result == "caught: child broke"

    def test_fail_propagates_through_anyof(self, sim):
        slow, bad = sim.event(), sim.event()

        def body():
            try:
                yield AnyOf([slow, bad])
            except ValueError as exc:
                return f"caught: {exc}"

        def driver():
            yield 3
            bad.fail(ValueError("first failure wins"))

        proc = sim.process(body())
        sim.process(driver())
        sim.run()
        assert proc.result == "caught: first failure wins"

    def test_fail_through_nested_combinators(self, sim):
        inner_bad = sim.event()

        def body():
            try:
                yield AllOf([sim.event(), AnyOf([inner_bad, sim.event()])])
            except KeyError as exc:
                return "nested-caught"

        def driver():
            yield 2
            inner_bad.fail(KeyError("deep"))

        proc = sim.process(body())
        sim.process(driver())
        sim.run()
        assert proc.result == "nested-caught"


class TestTriggeredEventReyield:
    def test_yielding_triggered_event_resumes_immediately(self, sim):
        event = sim.event()
        event.succeed("already-done")
        times = []

        def body():
            value = yield event
            times.append(sim.now)
            value_again = yield event
            times.append(sim.now)
            return (value, value_again)

        proc = sim.process(body())
        sim.run()
        assert proc.result == ("already-done", "already-done")
        assert times == [0, 0]

    def test_triggered_event_inside_combinators(self, sim):
        done = sim.event()
        done.succeed("d")
        pending = sim.event()

        def body():
            values = yield AllOf([done])
            idx, value = yield AnyOf([pending, done])
            return values, (idx, value)

        def trigger():
            yield 100
            pending.succeed("p")  # must not be needed: done already won

        proc = sim.process(body())
        sim.process(trigger())
        sim.run()
        assert proc.result == (["d"], (1, "d"))
        assert proc.finished


class TestCancelledCallbacks:
    """A ``call_later`` handle cancels by clearing its ``fn`` slot; the
    heap entry stays behind as a tombstone."""

    def test_cancelled_callback_never_runs(self, sim):
        fired = []
        handle = sim.call_later(50, lambda: fired.append(sim.now))
        handle.fn = None
        end = sim.run()
        assert fired == []
        # A cancelled callback's tombstone must not stretch the clock.
        assert end == 0

    def test_run_until_with_cancelled_callback_before_horizon(self, sim):
        fired = []
        sim.call_later(30, lambda: fired.append(("keeper", sim.now)))
        victim = sim.call_later(40, lambda: fired.append(("victim", sim.now)))
        victim.fn = None
        end = sim.run(until=100)
        assert fired == [("keeper", 30)]
        assert end == 100

    def test_live_callback_extends_run_like_a_sleeper(self, sim):
        sim.call_later(75, lambda: None)
        end = sim.run()
        assert end == 75

    def test_poller_pattern_event_beats_tick(self, sim):
        """Wait on state-change OR next tick, and cancel the losing tick
        so abandoned ticks don't accumulate."""
        state_change = sim.event()
        wakeups = []

        def poller():
            while not state_change.triggered:
                tick = sim.event()
                handle = sim.call_later(1000, tick.succeed)
                yield AnyOf([state_change, tick])
                handle.fn = None
                wakeups.append(sim.now)
            return sim.now

        def mutator():
            yield 2500
            state_change.succeed()

        proc = sim.process(poller())
        sim.process(mutator())
        end = sim.run()
        assert proc.result == 2500
        assert wakeups == [1000, 2000, 2500]
        # The abandoned 3000ns tick was cancelled: it must not stretch
        # the simulation end time.
        assert end == 2500


class TestLiveness:
    """``is_live`` answers "can popping this heap entry change the
    simulation?" for ``run_within`` and the model checker alike."""

    def test_a_callback_is_live_until_cancelled(self, sim):
        handle = sim.call_later(10, lambda: None)
        (entry,) = sim._heap
        assert is_live(entry)
        handle.fn = None
        assert not is_live(entry)

    def test_a_finished_process_leaves_a_dead_resume(self, sim):
        def sleeper():
            yield 100

        proc = sim.process(sleeper())
        sim.run(until=1)
        (resume,) = sim._heap
        assert is_live(resume)
        proc.interrupt()  # uncaught: the process ends at t=1
        sim.run(until=2)
        assert proc.finished and sim._heap == [resume]
        assert not is_live(resume)

    def _leave_entry(self, sim, kind, when):
        """Leave one heap entry of ``kind`` due at ``when``; return
        whether popping it could change the simulation."""
        if kind == "callback":
            sim.call_at(when, lambda: None)
            return True
        if kind == "cancelled":
            sim.call_at(when, lambda: None).fn = None
            return False

        def sleeper():
            yield when

        proc = sim.process(sleeper())
        sim.run(until=1)
        if kind == "finished":
            proc.interrupt()  # uncaught: the process ends, its resume stays
            sim.run(until=2)
        assert [entry[0] for entry in sim._heap] == [when]
        return kind == "sleeping"

    KINDS = ["callback", "cancelled", "sleeping", "finished"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_run_within_waits_past_the_bound_only_for_live_work(self, sim, kind):
        live = self._leave_entry(sim, kind, 100)
        assert sim.run_within(50) is (not live)

    @pytest.mark.parametrize("kind", KINDS)
    def test_a_tie_is_a_decision_only_between_live_entries(self, sim, kind):
        """The model checker branches where ``run_within`` would wait."""
        live = self._leave_entry(sim, kind, 100)
        policy = GuidedTieBreak()
        sim.tie_break = policy
        sim.call_at(100, lambda: None)
        sim.run()
        assert len(policy.decisions) == (1 if live else 0)

    def test_run_within_stops_only_at_live_work(self, sim):
        sim.call_later(10, lambda: None)
        sim.call_later(100, lambda: None).fn = None
        assert sim.run_within(50) is True  # a tombstone past the bound
        assert sim.now == 10
        sim.call_later(100, lambda: None)
        assert sim.run_within(50) is False
        assert sim.now == 10


class TestAbsoluteWakeups:
    def test_wake_at_exact_instant(self, sim):
        def body():
            yield sim.wake_at(1234.5)
            return sim.now

        assert sim.run_process(body()) == 1234.5

    def test_wake_at_past_clamps_to_now(self, sim):
        def body():
            yield 10
            yield sim.wake_at(3)  # already in the past
            return sim.now

        assert sim.run_process(body()) == 10

    def test_call_at_matches_repeated_addition_grid(self, sim):
        """The poll-grid contract: wake_at(anchor + k*1000.0 iterated)
        lands bit-exactly on the instant a ticking loop would reach."""
        anchor = 1337.25
        grid = anchor
        for _ in range(3):
            grid += 1000.0
        seen = []

        def ticker():
            yield anchor
            for _ in range(3):
                yield 1000.0
            seen.append(("ticker", sim.now))

        def waiter():
            yield anchor
            yield sim.wake_at(grid)
            seen.append(("waiter", sim.now))

        sim.process(ticker())
        sim.process(waiter())
        sim.run()
        assert seen[0][1] == seen[1][1]
