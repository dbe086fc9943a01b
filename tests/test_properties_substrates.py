"""Property-based tests on the OS substrates: the virtual-memory model
against a reference, datagram conservation, and workqueue ordering."""

from hypothesis import given, settings, strategies as st

from repro.machine import MachineConfig
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.mm import AddressSpace, MADV_DONTNEED, PhysicalMemory
from repro.oskernel.net import Network
from repro.oskernel.workqueue import WorkQueue
from repro.sim.engine import Simulator

PAGE = 4096


class TestMmAgainstReference:
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["touch", "madvise"]),
                st.integers(0, 7),   # block index
            ),
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_residency_matches_reference_when_memory_is_ample(self, ops):
        """With no memory pressure, residency must exactly track the
        touch/madvise history (a simple set-based reference model)."""
        sim = Simulator()
        config = MachineConfig(phys_mem_bytes=1024 * PAGE)
        physmem = PhysicalMemory(sim, config, config.phys_mem_bytes)
        aspace = AddressSpace(sim, config, physmem, CpuComplex(sim, config))
        base = aspace.mmap(8 * PAGE)
        reference = set()
        for op, block in ops:
            addr = base + block * PAGE
            if op == "touch":
                sim.run_process(aspace.touch(addr, PAGE))
                reference.add(block)
            else:
                aspace.madvise(addr, PAGE, MADV_DONTNEED)
                reference.discard(block)
            assert aspace.rss_pages == len(reference)

    @given(
        phys_pages=st.integers(2, 6),
        touches=st.lists(st.integers(0, 9), min_size=1, max_size=40),
    )
    @settings(max_examples=40, deadline=None)
    def test_rss_never_exceeds_physical_memory(self, phys_pages, touches):
        sim = Simulator()
        config = MachineConfig(
            phys_mem_bytes=phys_pages * PAGE, gpu_timeout_faults=10**9
        )
        physmem = PhysicalMemory(sim, config, config.phys_mem_bytes)
        aspace = AddressSpace(sim, config, physmem, CpuComplex(sim, config))
        base = aspace.mmap(10 * PAGE)
        for block in touches:
            sim.run_process(aspace.touch(base + block * PAGE, PAGE))
            assert aspace.rss_pages <= phys_pages
        # Conservation: every page is resident, swapped, or untouched.
        assert physmem.used_pages == aspace.rss_pages

    @given(touches=st.lists(st.integers(0, 9), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_faults_partition_into_minor_and_major(self, touches):
        sim = Simulator()
        config = MachineConfig(phys_mem_bytes=3 * PAGE, gpu_timeout_faults=10**9)
        physmem = PhysicalMemory(sim, config, config.phys_mem_bytes)
        aspace = AddressSpace(sim, config, physmem, CpuComplex(sim, config))
        base = aspace.mmap(10 * PAGE)
        for block in touches:
            sim.run_process(aspace.touch(base + block * PAGE, PAGE))
        distinct = len(set(touches))
        # First-ever touches are minor; swap-ins are major; evicted-and-
        # never-retouched pages fault neither way.
        assert aspace.minor_faults == distinct
        assert aspace.major_faults <= max(0, len(touches) - distinct)


class TestDatagramConservation:
    @given(
        sends=st.lists(st.booleans(), min_size=1, max_size=30),  # to bound port?
        drop_every=st.sampled_from([0, 2, 3, 7]),
    )
    @settings(max_examples=40, deadline=None)
    def test_sent_equals_delivered_plus_dropped(self, sends, drop_every):
        sim = Simulator()
        config = MachineConfig(nic_drop_every=drop_every)
        net = Network(sim, config)
        bound = net.socket()
        bound.bind(5500)
        client = net.socket()

        def body():
            for to_bound in sends:
                port = 5500 if to_bound else 5999  # 5999: nobody listens
                yield from net.sendto(client, b"d", ("localhost", port))

        sim.run_process(body())
        delivered = len(bound.queue)
        assert net.packets_sent == len(sends)
        assert delivered + net.packets_dropped == len(sends)


class TestWorkqueueOrdering:
    @given(count=st.integers(1, 25), workers=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_all_tasks_complete_start_order_fifo(self, count, workers):
        sim = Simulator()
        config = MachineConfig(workqueue_workers=workers)
        wq = WorkQueue(sim, config, num_workers=workers)
        started = []

        def task(tag):
            started.append(tag)
            yield 100

        for tag in range(count):
            wq.submit(lambda tag=tag: task(tag))
        sim.run()
        assert wq.completed == count
        assert started == list(range(count))  # FIFO start order
