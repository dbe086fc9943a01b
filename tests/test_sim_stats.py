"""Unit tests for utilisation tracking."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.stats import UtilizationTracker


@pytest.fixture
def sim():
    return Simulator()


class TestUtilizationTracker:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            UtilizationTracker(sim, 0)

    def test_fully_busy(self, sim):
        tracker = UtilizationTracker(sim, 1)

        def body():
            tracker.busy()
            yield 100
            tracker.idle()

        sim.run_process(body())
        assert tracker.average() == pytest.approx(1.0)

    def test_half_busy(self, sim):
        tracker = UtilizationTracker(sim, 2)

        def body():
            tracker.busy()
            yield 100
            tracker.idle()

        sim.run_process(body())
        assert tracker.average() == pytest.approx(0.5)

    def test_busy_idle_sequence(self, sim):
        tracker = UtilizationTracker(sim, 1)

        def body():
            tracker.busy()
            yield 50
            tracker.idle()
            yield 50

        sim.run_process(body())
        assert tracker.average() == pytest.approx(0.5)

    def test_over_busy_raises(self, sim):
        tracker = UtilizationTracker(sim, 1)
        tracker.busy()
        with pytest.raises(RuntimeError):
            tracker.busy()

    def test_idle_without_busy_raises(self, sim):
        tracker = UtilizationTracker(sim, 1)
        with pytest.raises(RuntimeError):
            tracker.idle()

    def test_average_since(self, sim):
        tracker = UtilizationTracker(sim, 1)

        def body():
            yield 100
            tracker.busy()
            yield 100
            tracker.idle()

        sim.run_process(body())
        assert tracker.average(since=100) == pytest.approx(1.0)
        assert tracker.average() == pytest.approx(0.5)

    def test_empty_average_is_zero(self, sim):
        tracker = UtilizationTracker(sim, 4)
        assert tracker.average() == 0.0
