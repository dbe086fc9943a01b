"""Unit tests for Resource, Store, and BandwidthResource."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.resources import BandwidthResource, Resource, Store


@pytest.fixture
def sim():
    return Simulator()


class TestResource:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Resource(sim, 0)

    def test_immediate_grant_when_free(self, sim):
        res = Resource(sim, 2)

        def body():
            yield res.acquire()
            return sim.now

        assert sim.run_process(body()) == 0

    def test_serialises_beyond_capacity(self, sim):
        res = Resource(sim, 1)
        log = []

        def worker(tag, hold):
            yield res.acquire()
            log.append((sim.now, tag, "in"))
            yield hold
            res.release()
            log.append((sim.now, tag, "out"))

        sim.process(worker("a", 10))
        sim.process(worker("b", 5))
        sim.run()
        assert log == [(0, "a", "in"), (10, "a", "out"), (10, "b", "in"), (15, "b", "out")]

    def test_fifo_ordering(self, sim):
        res = Resource(sim, 1)
        order = []

        def worker(tag):
            yield res.acquire()
            order.append(tag)
            yield 1
            res.release()

        for tag in range(6):
            sim.process(worker(tag))
        sim.run()
        assert order == list(range(6))

    def test_release_idle_raises(self, sim):
        res = Resource(sim, 1)
        with pytest.raises(RuntimeError):
            res.release()

    def test_available_tracks_usage(self, sim):
        res = Resource(sim, 3)

        def body():
            yield res.acquire()
            yield res.acquire()
            assert res.available == 1
            res.release()
            assert res.available == 2
            res.release()

        sim.run_process(body())
        assert res.available == 3

    def test_using_helper(self, sim):
        res = Resource(sim, 1)

        def body():
            yield from res.using(42)

        sim.run_process(body())
        assert sim.now == 42
        assert res.available == 1

    def test_handoff_to_waiter_keeps_capacity_accounting(self, sim):
        res = Resource(sim, 1)
        grants = []

        def worker(tag):
            yield res.acquire()
            grants.append(tag)
            yield 5
            res.release()

        sim.process(worker(1))
        sim.process(worker(2))
        sim.process(worker(3))
        sim.run()
        assert grants == [1, 2, 3]
        assert res.in_use == 0


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("x")

        def body():
            value = yield store.get()
            return value

        assert sim.run_process(body()) == "x"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def getter():
            value = yield store.get()
            return (sim.now, value)

        def putter():
            yield 30
            store.put("late")

        proc = sim.process(getter())
        sim.process(putter())
        sim.run()
        assert proc.result == (30, "late")

    def test_fifo_item_order(self, sim):
        store = Store(sim)
        for i in range(4):
            store.put(i)

        def body():
            out = []
            for _ in range(4):
                out.append((yield store.get()))
            return out

        assert sim.run_process(body()) == [0, 1, 2, 3]

    def test_fifo_getter_order(self, sim):
        store = Store(sim)
        results = []

        def getter(tag):
            value = yield store.get()
            results.append((tag, value))

        for tag in range(3):
            sim.process(getter(tag))

        def putter():
            yield 1
            for i in range(3):
                store.put(i)

        sim.process(putter())
        sim.run()
        assert results == [(0, 0), (1, 1), (2, 2)]

    def test_len(self, sim):
        store = Store(sim)
        store.put("a")
        store.put("b")
        assert len(store) == 2


class TestBandwidthResource:
    def test_rate_validation(self, sim):
        with pytest.raises(ValueError):
            BandwidthResource(sim, 0)

    def test_transfer_time(self, sim):
        bw = BandwidthResource(sim, rate_bytes_per_ns=2.0, fixed_latency=10.0)
        assert bw.transfer_time(100) == pytest.approx(60.0)

    def test_transfers_serialise(self, sim):
        bw = BandwidthResource(sim, rate_bytes_per_ns=1.0)
        done = []

        def mover(tag, nbytes):
            yield from bw.transfer(nbytes)
            done.append((sim.now, tag))

        sim.process(mover("a", 100))
        sim.process(mover("b", 50))
        sim.run()
        assert done == [(100, "a"), (150, "b")]

    def test_negative_size_rejected(self, sim):
        bw = BandwidthResource(sim, 1.0)

        def body():
            yield from bw.transfer(-1)

        with pytest.raises(ValueError):
            sim.run_process(body())
