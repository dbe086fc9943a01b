"""Workload tests: miniAMR (Fig 11), signal-search (Fig 12),
memcached (Fig 15), bmp-display (Fig 16)."""

import struct

from repro.machine import MachineConfig
from repro.system import System
from repro.workloads.bmp_display import BmpDisplayWorkload, make_test_image
from repro.workloads.memcachedwl import HashTable, MemcachedWorkload
from repro.workloads.miniamr import MiniAmrWorkload
from repro.workloads.signal_search import SignalSearchWorkload

AMR_PHYS = int(2.5 * 1024 * 1024)


def amr_workload():
    config = MachineConfig(phys_mem_bytes=AMR_PHYS, gpu_timeout_faults=48)
    return MiniAmrWorkload(System(config=config))


class TestMiniAmr:
    def test_dataset_exceeds_physical_memory(self):
        workload = amr_workload()
        assert workload.dataset_bytes > AMR_PHYS

    def test_baseline_killed_by_watchdog(self):
        result = amr_workload().run(use_madvise=False)
        assert not result.metrics["completed"]
        assert "watchdog" in result.metrics["timeout"]
        assert result.metrics["major_faults"] > 0

    def test_madvise_version_completes(self):
        result = amr_workload().run(rss_watermark_bytes=int(2.2 * 1024 * 1024))
        assert result.metrics["completed"]

    def test_lower_watermark_lower_footprint_slower(self):
        high = amr_workload().run(rss_watermark_bytes=int(2.2 * 1024 * 1024))
        low = amr_workload().run(rss_watermark_bytes=int(1.6 * 1024 * 1024))
        assert low.metrics["peak_rss_bytes"] <= high.metrics["peak_rss_bytes"]
        assert low.runtime_ns > high.runtime_ns

    def test_rss_series_recorded(self):
        result = amr_workload().run(rss_watermark_bytes=int(2.0 * 1024 * 1024))
        series = result.metrics["rss_series"]
        assert len(series) > 10
        assert max(v for _, v in series) == result.metrics["peak_rss_bytes"]

    def test_madvise_actually_invoked_from_gpu(self):
        workload = amr_workload()
        workload.run(rss_watermark_bytes=int(1.6 * 1024 * 1024))
        counts = workload.system.kernel.syscall_counts
        assert counts.get("madvise", 0) > 0
        assert counts.get("getrusage", 0) > 0

    def test_active_schedule_oscillates(self):
        workload = amr_workload()
        sizes = {len(workload.active_blocks(step)) for step in range(12)}
        assert len(sizes) > 1
        assert max(sizes) < workload.num_blocks


class TestSignalSearch:
    def test_digests_correct_baseline(self):
        workload = SignalSearchWorkload(System(), num_blocks=8, block_bytes=8192)
        result = workload.run_baseline()
        assert result.metrics["digests"] == workload.expected

    def test_digests_correct_genesys(self):
        workload = SignalSearchWorkload(System(), num_blocks=8, block_bytes=8192)
        result = workload.run_genesys()
        assert result.metrics["digests"] == workload.expected

    def test_signals_used(self):
        workload = SignalSearchWorkload(System(), num_blocks=8, block_bytes=8192)
        workload.run_genesys()
        counts = workload.system.kernel.syscall_counts
        assert counts.get("rt_sigqueueinfo", 0) == 8

    def test_overlap_speedup_near_paper(self):
        """Figure 12: ~14% over the phase-serial baseline."""
        baseline = SignalSearchWorkload(System()).run_baseline()
        genesys = SignalSearchWorkload(System()).run_genesys()
        speedup = baseline.runtime_ns / genesys.runtime_ns - 1
        assert 0.05 <= speedup <= 0.35


class TestHashTable:
    def test_uniform_bucket_occupancy(self):
        table = HashTable(num_buckets=4, elems_per_bucket=32, value_bytes=16, seed=1)
        assert all(len(bucket) == 32 for bucket in table.buckets)

    def test_get_returns_stored_value(self):
        table = HashTable(4, 8, 16, seed=1)
        key = table.keys[3]
        assert table.get(key) is not None

    def test_get_missing_returns_none(self):
        table = HashTable(4, 8, 16, seed=1)
        assert table.get(b"missing") is None

    def test_set_updates_existing(self):
        table = HashTable(4, 8, 16, seed=1)
        key = table.keys[0]
        assert table.set(key, b"new-value") is True
        assert table.get(key) == b"new-value"

    def test_set_inserts_new(self):
        table = HashTable(4, 8, 16, seed=1)
        assert table.set(b"fresh", b"v") is False
        assert table.get(b"fresh") == b"v"


class TestMemcached:
    @staticmethod
    def make(**kwargs):
        defaults = dict(
            num_buckets=4, elems_per_bucket=256, value_bytes=256, num_requests=16,
            concurrency=4,
        )
        defaults.update(kwargs)
        return MemcachedWorkload(System(), **defaults)

    def test_cpu_serves_correct_values(self):
        workload = self.make()
        result = workload.run_cpu()
        assert workload.verify(result.metrics["replies"])

    def test_genesys_serves_correct_values(self):
        workload = self.make()
        result = workload.run_genesys(num_workgroups=4)
        assert workload.verify(result.metrics["replies"])

    def test_gpu_nosyscall_serves_correct_values(self):
        workload = self.make()
        result = workload.run_gpu_nosyscall()
        assert workload.verify(result.metrics["replies"])

    def test_latency_metrics_populated(self):
        result = self.make().run_cpu()
        assert result.metrics["mean_latency_ns"] > 0
        assert result.metrics["p99_latency_ns"] >= result.metrics["mean_latency_ns"]
        assert result.metrics["throughput_rps"] > 0

    def test_genesys_beats_cpu_on_big_buckets(self):
        """Figure 15 at 1024 elements/bucket with 1KB values."""
        cpu = MemcachedWorkload(System()).run_cpu()
        genesys = MemcachedWorkload(System()).run_genesys()
        assert genesys.metrics["mean_latency_ns"] < cpu.metrics["mean_latency_ns"]
        assert genesys.metrics["throughput_rps"] > cpu.metrics["throughput_rps"]

    def test_gpu_without_syscalls_loses(self):
        cpu = MemcachedWorkload(System()).run_cpu()
        nosys = MemcachedWorkload(System()).run_gpu_nosyscall()
        assert nosys.metrics["mean_latency_ns"] > cpu.metrics["mean_latency_ns"]


class TestBmpDisplay:
    def test_image_layout(self):
        data, pixels = make_test_image(16, 8)
        assert data[:12] == b"BMPR" + struct.pack("<II", 16, 8)
        assert len(data) == 12 + 16 * 8 * 4

    def test_gpu_displays_image(self):
        workload = BmpDisplayWorkload(System(), width=64, height=64)
        result = workload.run()
        assert result.metrics["displayed_correctly"]
        assert result.metrics["mode"] == (64, 64)

    def test_mode_switch_happened_via_ioctl(self):
        system = System()
        assert system.kernel.framebuffer.var.xres == 1024
        workload = BmpDisplayWorkload(system, width=64, height=64)
        result = workload.run()
        assert system.kernel.framebuffer.var.xres == 64
        assert result.metrics["ioctls"] >= 2
        assert result.metrics["pans"] == 1

    def test_syscall_mix_matches_table1(self):
        system = System()
        BmpDisplayWorkload(system, width=64, height=64).run()
        counts = system.kernel.syscall_counts
        # Table I lists bmp-display under ioctl + mmap: the framebuffer
        # AND the raster image are both mmaped (Section VIII-E).
        assert counts.get("ioctl", 0) >= 2
        assert counts.get("mmap", 0) == 2
        assert "pread" not in counts
