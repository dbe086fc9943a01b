"""Unit tests for the GPU execution hierarchy and barriers."""

import pytest

from repro.gpu.device import Gpu
from repro.gpu.hierarchy import KernelInstance
from repro.machine import small_machine
from repro.memory.system import MemorySystem
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def gpu(sim):
    config = small_machine()
    return Gpu(sim, config, MemorySystem(sim, config))


def make_kernel(sim, gpu, global_size=16, workgroup_size=8):
    def noop(ctx):
        yield 0  # pragma: no cover - never executed in these tests

    return KernelInstance(sim, gpu, noop, global_size, workgroup_size, ())


class TestKernelInstance:
    def test_group_partitioning(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=20, workgroup_size=8)
        assert kernel.num_groups == 3
        assert [g.size for g in kernel.make_groups()] == [8, 8, 4]

    def test_exact_partitioning(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=16, workgroup_size=8)
        assert [g.size for g in kernel.make_groups()] == [8, 8]

    def test_invalid_sizes_rejected(self, sim, gpu):
        def noop(ctx):
            yield 0

        with pytest.raises(ValueError):
            KernelInstance(sim, gpu, noop, 0, 8, ())
        with pytest.raises(ValueError):
            KernelInstance(sim, gpu, noop, 8, 0, ())

    def test_ctx_ids(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=20, workgroup_size=8)
        ctx = kernel.make_ctx(kernel.make_groups()[1], 3)
        assert ctx.global_id == 11
        assert ctx.local_id == 3
        assert ctx.group_id == 1
        assert not ctx.is_group_leader
        assert not ctx.is_kernel_leader

    def test_leaders(self, sim, gpu):
        kernel = make_kernel(sim, gpu)
        groups = kernel.make_groups()
        leader = kernel.make_ctx(groups[0], 0)
        assert leader.is_group_leader and leader.is_kernel_leader
        other_group_leader = kernel.make_ctx(groups[1], 0)
        assert other_group_leader.is_group_leader
        assert not other_group_leader.is_kernel_leader

    def test_lane_within_wavefront(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=20, workgroup_size=16)
        width = gpu.config.wavefront_width
        ctx = kernel.make_ctx(kernel.make_groups()[0], width + 3)
        assert ctx.lane == 3

    def test_kernel_completion_after_all_groups(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=16, workgroup_size=8)
        kernel.group_finished()
        assert not kernel.completion.triggered
        kernel.group_finished()
        assert kernel.completion.triggered


class TestWorkGroupBarrier:
    def test_releases_when_all_arrive(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=4, workgroup_size=4)
        (group,) = kernel.make_groups()
        events = [group.arrive_barrier() for _ in range(3)]
        assert not any(e.triggered for e in events)
        last = group.arrive_barrier()
        assert last.triggered
        assert all(e.triggered for e in events)

    def test_generational_reuse(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=2, workgroup_size=2)
        (group,) = kernel.make_groups()
        first_a = group.arrive_barrier()
        first_b = group.arrive_barrier()
        assert first_a is first_b and first_a.triggered
        second = group.arrive_barrier()
        assert not second.triggered
        assert second is not first_a

    def test_finished_items_satisfy_barrier(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=4, workgroup_size=4)
        (group,) = kernel.make_groups()
        group.work_item_finished()
        group.work_item_finished()
        event = group.arrive_barrier()
        assert not event.triggered
        event2 = group.arrive_barrier()
        assert event2.triggered

    def test_finish_after_partial_arrival_releases(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=3, workgroup_size=3)
        (group,) = kernel.make_groups()
        event = group.arrive_barrier()
        group.work_item_finished()
        assert not event.triggered
        group.work_item_finished()
        assert event.triggered

    def test_over_finish_raises(self, sim, gpu):
        kernel = make_kernel(sim, gpu, global_size=2, workgroup_size=2)
        (group,) = kernel.make_groups()
        group.work_item_finished()
        group.work_item_finished()
        with pytest.raises(RuntimeError):
            group.work_item_finished()
