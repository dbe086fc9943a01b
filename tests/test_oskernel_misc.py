"""Unit tests for CPU complex, block device, workqueue, interrupts, devices."""

import pytest

from repro.machine import MachineConfig
from repro.oskernel.blockdev import BlockDevice
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.devices import TerminalDevice
from repro.oskernel.interrupts import InterruptController
from repro.oskernel.workqueue import WorkQueue
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def config():
    return MachineConfig()


class TestCpuComplex:
    def test_run_occupies_core(self, sim, config):
        cpu = CpuComplex(sim, config)

        def body():
            yield from cpu.run(100)

        sim.run_process(body())
        assert sim.now == 100
        assert cpu.utilization.average() == pytest.approx(1 / config.cpu_cores)

    def test_contention_beyond_cores(self, sim, config):
        cpu = CpuComplex(sim, config)
        finish = []

        def worker():
            yield from cpu.run(100)
            finish.append(sim.now)

        for _ in range(config.cpu_cores * 2):
            sim.process(worker())
        sim.run()
        assert max(finish) == 200  # two waves of work

    def test_zero_duration_is_free(self, sim, config):
        cpu = CpuComplex(sim, config)

        def body():
            yield from cpu.run(0)

        sim.run_process(body())
        assert sim.now == 0

    def test_negative_rejected(self, sim, config):
        cpu = CpuComplex(sim, config)

        def body():
            yield from cpu.run(-1)

        with pytest.raises(ValueError):
            sim.run_process(body())

    def test_run_cycles(self, sim, config):
        cpu = CpuComplex(sim, config)

        def body():
            yield from cpu.run_cycles(2700)

        sim.run_process(body())
        assert sim.now == pytest.approx(1000.0)  # 2700 cycles @ 2.7 GHz


class TestBlockDevice:
    def test_single_request_time(self, sim, config):
        disk = BlockDevice(sim, config)

        def body():
            yield from disk.read(4096)

        sim.run_process(body())
        per_channel = config.ssd_bw_bytes_per_ns / config.ssd_channels
        assert sim.now == pytest.approx(config.ssd_request_latency_ns + 4096 / per_channel)

    def test_queue_depth_scales_throughput(self, config):
        def run_with_queue_depth(depth):
            sim = Simulator()
            disk = BlockDevice(sim, config)

            def reader():
                yield from disk.read(65536)

            for _ in range(depth):
                sim.process(reader())
            sim.run()
            return disk.bytes_read / sim.now

        shallow = run_with_queue_depth(1)
        deep = run_with_queue_depth(config.ssd_channels)
        assert deep > shallow * (config.ssd_channels * 0.8)

    def test_max_queue_depth_tracked(self, sim, config):
        disk = BlockDevice(sim, config)

        def reader():
            yield from disk.read(4096)

        for _ in range(20):
            sim.process(reader())
        sim.run()
        assert disk.max_queue_depth == 20

    def test_counters(self, sim, config):
        disk = BlockDevice(sim, config)

        def body():
            yield from disk.read(100)
            yield from disk.write(50)

        sim.run_process(body())
        assert (disk.bytes_read, disk.bytes_written, disk.requests) == (100, 50, 2)

    def test_throughput_series_totals(self, sim, config):
        disk = BlockDevice(sim, config)

        def body():
            yield from disk.read(8192)

        sim.run_process(body())
        series = disk.throughput_series(bin_ns=sim.now + 1)
        assert series[0][1] * (sim.now + 1) == pytest.approx(8192)


class TestWorkQueue:
    def test_tasks_execute(self, sim, config):
        cpu = CpuComplex(sim, config)
        wq = WorkQueue(sim, config)
        done = []

        def task():
            yield from cpu.run(10)
            done.append(sim.now)

        wq.submit(lambda: task())
        wq.submit(lambda: task())
        sim.run()
        assert len(done) == 2
        assert wq.completed == 2

    def test_dispatch_delay_charged(self, sim, config):
        wq = WorkQueue(sim, config)
        stamps = []

        def task():
            stamps.append(sim.now)
            yield 0

        wq.submit(lambda: task())
        sim.run()
        assert stamps[0] >= config.workqueue_dispatch_ns

    def test_outstanding_and_when_idle(self, sim, config):
        wq = WorkQueue(sim, config)

        def slow_task():
            yield 5000

        wq.submit(lambda: slow_task())
        assert wq.outstanding == 1

        def body():
            yield wq.when_idle()
            return sim.now

        idle_at = sim.run_process(body())
        assert wq.outstanding == 0
        assert idle_at == config.workqueue_dispatch_ns + 5000

    def test_parallelism_bounded_by_workers(self, sim, config):
        config2 = MachineConfig(workqueue_workers=2)
        wq = WorkQueue(sim, config2)
        running = {"now": 0, "max": 0}

        def task():
            running["now"] += 1
            running["max"] = max(running["max"], running["now"])
            yield 100
            running["now"] -= 1

        for _ in range(8):
            wq.submit(lambda: task())
        sim.run()
        assert running["max"] == 2


class TestInterrupts:
    def test_handler_called_with_payload(self, sim, config):
        cpu = CpuComplex(sim, config)
        ic = InterruptController(sim, config, cpu)
        got = []
        ic.register_handler(got.append)
        ic.raise_irq("wf-7")
        sim.run()
        assert got == ["wf-7"]
        assert sim.now >= config.interrupt_handler_ns

    def test_unregistered_handler_drops_and_counts(self, sim, config):
        # raise_irq runs at GPU time inside Do-ops, where an exception
        # would tear down the wavefront executor: a handler-less IRQ is
        # dropped and counted instead of raising.
        ic = InterruptController(sim, config, CpuComplex(sim, config))
        assert ic.raise_irq(1) is False
        assert ic.unhandled == 1
        assert ic.raised == 1
        assert ic.serviced == 0
        sim.run()
        assert sim.now == 0.0  # no top half was scheduled

    def test_counts(self, sim, config):
        ic = InterruptController(sim, config, CpuComplex(sim, config))
        ic.register_handler(lambda payload: None)
        for i in range(3):
            assert ic.raise_irq(i) is True
        sim.run()
        assert ic.raised == 3
        assert ic.serviced == 3
        assert ic.unhandled == 0


class TestTerminal:
    def test_lines_split(self, sim, config):
        term = TerminalDevice(sim, config)

        def body():
            yield from term.write(b"hello\nwor", 0)
            yield from term.write(b"ld\n", 0)

        sim.run_process(body())
        assert term.lines == ["hello", "world"]

    def test_output_property(self, sim, config):
        term = TerminalDevice(sim, config)

        def body():
            yield from term.write(b"a\nb\n", 0)

        sim.run_process(body())
        assert term.output == "a\nb"

    def test_bytes_counted(self, sim, config):
        term = TerminalDevice(sim, config)

        def body():
            yield from term.write(b"xyz", 0)

        sim.run_process(body())
        assert term.bytes_written == 3
