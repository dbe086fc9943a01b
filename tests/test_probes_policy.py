"""Decisions that take no program: the shared-FIFO worker choice and
LRU eviction, and the Figure 10 sensitivity-point reproduction through
the coalescing knobs written after the machine is built.  The knob
table itself is covered by test_sysfs_knobs.py."""

import pytest

from repro.experiments.fig10_coalescing import COALESCE, READ_SIZES, latency_per_byte
from repro.machine import MachineConfig, small_machine
from repro.oskernel.workqueue import WorkQueue
from repro.sim.engine import Simulator
from repro.system import System


# -- the fixed decisions -------------------------------------------------


class TestFixedDecisions:
    """Worker choice and page-cache eviction take no program: a task
    goes to the shared FIFO, and eviction takes the LRU head."""

    def test_free_workers_share_one_fifo(self):
        """The backlog is the one queue's length, and free workers take
        tasks from it in turn."""
        sim = Simulator()
        wq = WorkQueue(sim, MachineConfig(workqueue_workers=2))
        workers = []
        wq.tp_complete.attach(
            lambda worker_id, service_ns, task_index: workers.append(worker_id)
        )

        def task():
            yield 50

        for _ in range(4):
            wq.submit(lambda: task())
        assert wq.backlog == 4
        sim.run()
        assert sorted(workers) == [0, 0, 1, 1]
        assert wq.backlog == 0

    def test_eviction_takes_the_lru_head(self):
        config = small_machine()
        config.page_cache_pages = 2
        fs = System(config=config).kernel.fs
        fs.create_file("/data/f", b"x" * 100, on_disk=True)
        inode = fs.resolve("/data/f")
        inode.cached_pages.clear()
        fs._page_lru.clear()
        fs._cache_insert(inode, [0, 1])
        fs._cache_touch(inode, [0])  # page 1 is now the LRU head
        fs._cache_insert(inode, [2])
        assert inode.cached_pages == {0, 2}
        assert fs.page_cache_evictions == 1


# -- Figure 10 sensitivity point through the knob path --------------------


def write_knobs(window_ns, max_batch=COALESCE.max_batch):
    """A ``setup`` that stores both coalescing knobs through their sysfs
    files, as a write(2) of each would."""

    def setup(system):
        fs = system.kernel.fs
        fs.resolve("/sys/genesys/coalescing_max_batch").write_fn(b"%d" % max_batch)
        fs.resolve("/sys/genesys/coalescing_window_ns").write_fn(b"%d" % window_ns)

    return setup


@pytest.mark.parametrize("read_bytes", READ_SIZES)
class TestCoalescingKnobsReproduceFig10:
    """Every read size of the Fig. 10 sweep, through the knob path."""

    def test_knob_writes_equal_config_at_sensitivity_point(self, read_bytes):
        """Writing the knobs on a built machine reproduces the Fig. 10
        coalesce<=8 point exactly: the sysfs path and the config path
        set the same state."""
        via_config = latency_per_byte(read_bytes, COALESCE)
        via_knobs = latency_per_byte(
            read_bytes, None, setup=write_knobs(COALESCE.window_ns)
        )
        assert via_knobs == via_config

    def test_knob_point_differs_from_uncoalesced(self, read_bytes):
        uncoalesced = latency_per_byte(read_bytes, None)
        via_knobs = latency_per_byte(
            read_bytes, None, setup=write_knobs(COALESCE.window_ns)
        )
        assert via_knobs != uncoalesced  # the knobs really steered the run

    def test_zero_window_disables_coalescing(self, read_bytes):
        plain = latency_per_byte(read_bytes, None)
        disabled = latency_per_byte(read_bytes, COALESCE, setup=write_knobs(0))
        assert disabled == plain
