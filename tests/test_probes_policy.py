"""Tests for policy hooks: the chain contract and the three decision
points (coalescing, workqueue, page cache).  Includes the Figure 10
sensitivity-point reproduction through the hook path.  The sysfs knobs
that feed the hook defaults are covered by test_sysfs_knobs.py."""

import pytest

from repro.experiments.fig10_coalescing import COALESCE, latency_per_byte
from repro.machine import MachineConfig, small_machine
from repro.oskernel.workqueue import WorkQueue
from repro.probes.policy import PolicyHook, fixed
from repro.sim.engine import Simulator
from repro.system import System


class TestPolicyHook:
    def test_inactive_by_default(self):
        hook = PolicyHook("h")
        assert hook.active is False

    def test_none_keeps_default(self):
        hook = PolicyHook("h")
        hook.attach(lambda current: None)
        assert hook.decide(42) == 42
        assert hook.decisions == 1
        assert hook.overrides == 0

    def test_fixed_overrides_and_counts(self):
        hook = PolicyHook("h")
        hook.attach(fixed(7))
        assert hook.decide(42) == 7
        assert hook.overrides == 1

    def test_chain_later_program_sees_earlier_choice(self):
        hook = PolicyHook("h")
        seen = []
        hook.attach(fixed(10))
        hook.attach(lambda current: seen.append(current) or current * 2)
        assert hook.decide(1) == 20
        assert seen == [10]

    def test_override_to_same_value_not_counted(self):
        hook = PolicyHook("h")
        hook.attach(fixed(42))
        assert hook.decide(42) == 42
        assert hook.overrides == 0

    def test_detach_last_deactivates(self):
        hook = PolicyHook("h")
        program = hook.attach(fixed(1))
        hook.detach(program)
        assert hook.active is False

    def test_non_callable_rejected(self):
        with pytest.raises(TypeError):
            PolicyHook("h").attach(123)

    def test_fixed_is_introspectable(self):
        assert fixed(99).policy_value == 99


# -- wq.worker: pin tasks to one worker -----------------------------------


class TestWorkerSelectionHook:
    def test_pinning_serialises_tasks(self):
        sim = Simulator()
        config = MachineConfig(workqueue_workers=4)
        wq = WorkQueue(sim, config)
        wq.hook_worker.attach(fixed(0))
        running = {"now": 0, "max": 0}

        def task():
            running["now"] += 1
            running["max"] = max(running["max"], running["now"])
            yield 100
            running["now"] -= 1

        for _ in range(8):
            wq.submit(lambda: task())
        sim.run()
        assert wq.completed == 8
        assert running["max"] == 1  # all pinned to worker 0
        assert wq.hook_worker.decisions == 8

    def test_invalid_choice_falls_back_to_shared_queue(self):
        sim = Simulator()
        config = MachineConfig(workqueue_workers=2)
        wq = WorkQueue(sim, config)
        wq.hook_worker.attach(fixed(99))  # out of range -> shared FIFO
        done = []

        def task():
            yield 10
            done.append(sim.now)

        for _ in range(4):
            wq.submit(lambda: task())
        sim.run()
        assert len(done) == 4

    def test_round_robin_policy_spreads_load(self):
        sim = Simulator()
        config = MachineConfig(workqueue_workers=2)
        wq = WorkQueue(sim, config)
        wq.hook_worker.attach(lambda current, index, n: index % n)
        workers = []
        wq.tp_complete.attach(
            lambda worker_id, service_ns, task_index: workers.append(worker_id)
        )

        def task():
            yield 50

        for _ in range(4):
            wq.submit(lambda: task())
        sim.run()
        assert sorted(workers) == [0, 0, 1, 1]

    def test_shared_path_unchanged_when_inactive(self):
        sim = Simulator()
        wq = WorkQueue(sim, MachineConfig())
        stamps = []

        def task():
            stamps.append(sim.now)
            yield 0

        wq.submit(lambda: task())
        sim.run()
        assert stamps[0] >= wq.config.workqueue_dispatch_ns
        assert wq.hook_worker.decisions == 0


# -- fs.pagecache.victim: choose the eviction victim ----------------------


class TestPageCacheVictimHook:
    def make_fs_system(self, capacity=4):
        config = small_machine()
        config.page_cache_pages = capacity
        return System(config=config)

    def test_default_evicts_lru_head(self):
        system = self.make_fs_system(capacity=2)
        fs = system.kernel.fs
        fs.create_file("/data/f", b"x" * 100, on_disk=True)
        inode = fs.resolve("/data/f")
        inode.cached_pages.clear()
        fs._page_lru.clear()
        fs._cache_insert(inode, [0, 1, 2])
        assert 0 not in inode.cached_pages  # oldest page evicted
        assert inode.cached_pages == {1, 2}

    def test_hook_picks_mru_victim_instead(self):
        system = self.make_fs_system(capacity=2)
        fs = system.kernel.fs
        fs.hook_pc_victim.attach(lambda current, candidates: candidates[-1])
        fs.create_file("/data/f", b"x" * 100, on_disk=True)
        inode = fs.resolve("/data/f")
        inode.cached_pages.clear()
        fs._page_lru.clear()
        fs._cache_insert(inode, [0, 1, 2])
        assert 2 not in inode.cached_pages  # newest page evicted (MRU policy)
        assert inode.cached_pages == {0, 1}
        assert fs.hook_pc_victim.decisions == 1

    def test_invalid_victim_falls_back_to_lru(self):
        system = self.make_fs_system(capacity=2)
        fs = system.kernel.fs
        fs.hook_pc_victim.attach(fixed(("bogus", 42)))
        fs.create_file("/data/f", b"x" * 100, on_disk=True)
        inode = fs.resolve("/data/f")
        inode.cached_pages.clear()
        fs._page_lru.clear()
        fs._cache_insert(inode, [0, 1, 2])
        assert inode.cached_pages == {1, 2}


# -- Figure 10 sensitivity point through the hook path --------------------


class TestCoalescingHookReproducesFig10:
    def test_hook_equals_config_at_sensitivity_point(self):
        """Attaching fixed(window)/fixed(batch) to the coalescing hooks
        reproduces the Fig. 10 coalesce<=8 point exactly: the hook path
        and the config/sysfs path meet at the same decision."""

        def attach_policies(system):
            system.probes.attach_policy("coalesce.window", fixed(COALESCE.window_ns))
            system.probes.attach_policy("coalesce.batch", fixed(COALESCE.max_batch))

        via_config = latency_per_byte(64, COALESCE)
        via_hooks = latency_per_byte(64, None, setup=attach_policies)
        assert via_hooks == via_config

    def test_hook_point_differs_from_uncoalesced(self):
        def attach_policies(system):
            system.probes.attach_policy("coalesce.window", fixed(COALESCE.window_ns))
            system.probes.attach_policy("coalesce.batch", fixed(COALESCE.max_batch))

        uncoalesced = latency_per_byte(64, None)
        via_hooks = latency_per_byte(64, None, setup=attach_policies)
        assert via_hooks != uncoalesced  # the hook really steered the run

    def test_hook_can_disable_coalescing(self):
        def disable(system):
            system.probes.attach_policy("coalesce.window", fixed(0.0))

        plain = latency_per_byte(64, None)
        disabled = latency_per_byte(64, COALESCE, setup=disable)
        assert disabled == plain
