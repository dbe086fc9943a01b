"""Tests for the bounded page cache, NIC loss model, and SIMD
efficiency accounting."""

import pytest

from repro.gpu.device import Gpu, KernelLaunch
from repro.gpu.ops import Compute
from repro.machine import MachineConfig, small_machine
from repro.memory.system import MemorySystem
from repro.oskernel.fs import O_RDONLY, OpenFile
from repro.oskernel.linux import LinuxKernel
from repro.sim.engine import Simulator

PAGE = 4096


def make_kernel(config):
    sim = Simulator()
    mem = MemorySystem(sim, config)
    kernel = LinuxKernel(sim, config, mem)
    return sim, mem, kernel


class TestBoundedPageCache:
    def test_unbounded_by_default(self):
        sim, mem, kernel = make_kernel(MachineConfig())
        inode = kernel.fs.create_file("/data/f", b"x" * (16 * PAGE), on_disk=True)
        inode.cached_pages.clear()
        open_file = OpenFile(inode, O_RDONLY, "/data/f")

        def body():
            yield from kernel.fs.read_timed(open_file, 0, 16 * PAGE)

        sim.run_process(body())
        assert kernel.fs.page_cache_evictions == 0
        assert len(inode.cached_pages) == 16

    def test_capacity_bounds_residency(self):
        config = MachineConfig(page_cache_pages=4)
        sim, mem, kernel = make_kernel(config)
        inode = kernel.fs.create_file("/data/f", b"x" * (16 * PAGE), on_disk=True)
        inode.cached_pages.clear()
        kernel.fs._page_lru.clear()
        open_file = OpenFile(inode, O_RDONLY, "/data/f")

        def body():
            yield from kernel.fs.read_timed(open_file, 0, 16 * PAGE)

        sim.run_process(body())
        assert len(kernel.fs._page_lru) <= 4
        assert kernel.fs.page_cache_evictions >= 12

    def test_evicted_pages_reread_from_disk(self):
        config = MachineConfig(page_cache_pages=2)
        sim, mem, kernel = make_kernel(config)
        inode = kernel.fs.create_file("/data/f", b"x" * (8 * PAGE), on_disk=True)
        inode.cached_pages.clear()
        kernel.fs._page_lru.clear()
        open_file = OpenFile(inode, O_RDONLY, "/data/f")

        def body():
            yield from kernel.fs.read_timed(open_file, 0, 8 * PAGE)
            before = kernel.disk.bytes_read
            yield from kernel.fs.read_timed(open_file, 0, 8 * PAGE)
            return kernel.disk.bytes_read - before

        reread = sim.run_process(body())
        assert reread > 0  # the cache was too small to hold the file

    def test_lru_keeps_hot_pages(self):
        config = MachineConfig(page_cache_pages=3)
        sim, mem, kernel = make_kernel(config)
        inode = kernel.fs.create_file("/data/f", b"x" * (8 * PAGE), on_disk=True)
        inode.cached_pages.clear()
        kernel.fs._page_lru.clear()
        open_file = OpenFile(inode, O_RDONLY, "/data/f")

        def body():
            yield from kernel.fs.read_timed(open_file, 0, PAGE)     # page 0
            yield from kernel.fs.read_timed(open_file, PAGE, PAGE)  # page 1
            yield from kernel.fs.read_timed(open_file, 0, PAGE)     # touch 0
            yield from kernel.fs.read_timed(open_file, 2 * PAGE, 2 * PAGE)

        sim.run_process(body())
        # Page 0 was touched most recently before the eviction pressure;
        # page 1 is the LRU victim.
        assert 0 in inode.cached_pages
        assert 1 not in inode.cached_pages

    def test_each_contiguous_run_of_missing_pages_is_one_disk_request(self):
        sim, mem, kernel = make_kernel(MachineConfig())
        inode = kernel.fs.create_file("/data/f", b"x" * (5 * PAGE), on_disk=True)
        inode.cached_pages.clear()
        kernel.fs._page_lru.clear()
        open_file = OpenFile(inode, O_RDONLY, "/data/f")

        def body():
            yield from kernel.fs.read_timed(open_file, 2 * PAGE, PAGE)
            before = kernel.disk.requests
            yield from kernel.fs.read_timed(open_file, 0, 5 * PAGE)
            return kernel.disk.requests - before

        # Page 2 is cached, so pages 0-1 and 3-4 are two runs.
        assert sim.run_process(body()) == 2
        assert inode.cached_pages == {0, 1, 2, 3, 4}


class TestNicLoss:
    def test_no_loss_by_default(self):
        sim, mem, kernel = make_kernel(MachineConfig())
        server = kernel.net.socket()
        server.bind(4000)
        client = kernel.net.socket()

        def body():
            for _ in range(10):
                yield from kernel.net.sendto(client, b"x", ("localhost", 4000))

        sim.run_process(body())
        assert kernel.net.packets_dropped == 0
        assert len(server.queue) == 10

    def test_drop_every_n(self):
        sim, mem, kernel = make_kernel(MachineConfig(nic_drop_every=4))
        server = kernel.net.socket()
        server.bind(4001)
        client = kernel.net.socket()

        def body():
            for _ in range(12):
                yield from kernel.net.sendto(client, b"x", ("localhost", 4001))

        sim.run_process(body())
        assert kernel.net.packets_dropped == 3
        assert len(server.queue) == 9


class TestSimdEfficiency:
    def test_uniform_kernel_is_fully_efficient(self):
        sim = Simulator()
        config = small_machine()
        gpu = Gpu(sim, config, MemorySystem(sim, config))

        def kern(ctx):
            yield Compute(10)
            yield Compute(10)

        def body():
            yield gpu.launch(KernelLaunch(kern, 8, 8))

        sim.run_process(body())
        assert gpu.simd_efficiency == pytest.approx(1.0)
        assert gpu.wavefront_stats["divergent_steps"] == 0

    def test_early_exit_lowers_efficiency(self):
        sim = Simulator()
        config = small_machine()
        gpu = Gpu(sim, config, MemorySystem(sim, config))

        def kern(ctx):
            yield Compute(10)
            if ctx.local_id >= 4:
                return  # half the lanes retire early
            yield Compute(10)
            yield Compute(10)

        def body():
            yield gpu.launch(KernelLaunch(kern, 8, 8))

        sim.run_process(body())
        assert gpu.simd_efficiency < 1.0
        assert gpu.wavefront_stats["wavefronts"] == 1

    def test_efficiency_defaults_to_one(self):
        sim = Simulator()
        config = small_machine()
        gpu = Gpu(sim, config, MemorySystem(sim, config))
        assert gpu.simd_efficiency == 1.0
