"""Property-based tests (hypothesis) on core data structures and
invariants: cache-vs-reference-model equivalence, slot state machine
random walks, barrier soundness, filesystem read/write consistency,
allocator non-overlap, and coalescer conservation."""

from collections import OrderedDict

from hypothesis import given, settings, strategies as st

from repro.core.coalescing import CoalescingConfig, Coalescer
from repro.core.invocation import SyscallRequest
from repro.core.syscall_area import Slot, SlotState, SlotStateError
from repro.machine import MachineConfig
from repro.memory.buffers import AddressAllocator
from repro.memory.cache import Cache, lines_covering
from repro.memory.system import MemorySystem
from repro.oskernel.cpu import CpuComplex
from repro.oskernel.fs import FileSystem, O_RDWR, OpenFile
from repro.oskernel.process import OsProcess
from repro.sim.engine import Simulator


class TestCacheMatchesReferenceModel:
    @given(
        accesses=st.lists(st.integers(min_value=0, max_value=63), max_size=200),
        ways_pow=st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_fully_matches_lru_reference(self, accesses, ways_pow):
        ways = 1 << ways_pow
        total = 16 * ways if ways < 16 else 16
        total = max(total, ways)
        if total % ways:
            total = ways
        cache = Cache(total, associativity=ways)
        num_sets = total // ways
        reference = {s: OrderedDict() for s in range(num_sets)}
        for line in accesses:
            ref_set = reference[line % num_sets]
            expected_hit = line in ref_set
            if expected_hit:
                ref_set.move_to_end(line)
            else:
                if len(ref_set) >= ways:
                    ref_set.popitem(last=False)
                ref_set[line] = True
            assert cache.access(line) == expected_hit

    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=100))
    @settings(max_examples=40, deadline=None)
    def test_resident_never_exceeds_capacity(self, accesses):
        cache = Cache(32, associativity=4)
        for line in accesses:
            cache.access(line)
            assert cache.resident_lines <= 32

    @given(
        addr=st.integers(min_value=0, max_value=1 << 20),
        size=st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=60, deadline=None)
    def test_lines_covering_is_contiguous_and_covers(self, addr, size):
        lines = lines_covering(addr, size)
        assert lines == list(range(lines[0], lines[-1] + 1))
        assert lines[0] * 64 <= addr < (lines[0] + 1) * 64
        last_byte = addr + size - 1
        assert lines[-1] * 64 <= last_byte < (lines[-1] + 1) * 64


class TestSlotStateMachineProperties:
    """Random walks over slot operations: legal sequences always keep the
    slot in a defined state; illegal transitions always raise and leave
    state unchanged."""

    GPU_OPS = ("try_claim", "populate", "set_ready", "consume")
    CPU_OPS = ("start_processing", "finish")

    @given(st.lists(st.sampled_from(GPU_OPS + CPU_OPS), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_random_walk_never_corrupts(self, ops):
        sim = Simulator()
        slot = Slot(sim, 0, 0x1000)
        proc = OsProcess(sim, "p")
        for op in ops:
            before = slot.state
            try:
                if op == "try_claim":
                    slot.try_claim()
                elif op == "populate":
                    slot.populate(SyscallRequest("x", (), True, proc))
                elif op == "set_ready":
                    slot.set_ready()
                elif op == "start_processing":
                    slot.start_processing()
                elif op == "finish":
                    slot.finish(0)
                elif op == "consume":
                    slot.consume()
            except SlotStateError:
                assert slot.state is before  # failed ops are no-ops
            assert isinstance(slot.state, SlotState)

    @given(st.booleans())
    @settings(max_examples=10, deadline=None)
    def test_full_legal_cycle_always_returns_to_free(self, blocking):
        sim = Simulator()
        slot = Slot(sim, 0, 0x1000)
        proc = OsProcess(sim, "p")
        for _ in range(3):
            assert slot.try_claim()
            slot.populate(SyscallRequest("x", (), blocking, proc))
            slot.set_ready()
            slot.start_processing()
            slot.finish(7)
            if blocking:
                assert slot.consume() == 7
            assert slot.state is SlotState.FREE


class TestAllocatorProperties:
    @given(st.lists(st.integers(min_value=1, max_value=10_000), max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_allocations_never_overlap(self, sizes):
        alloc = AddressAllocator()
        regions = []
        for size in sizes:
            addr = alloc.alloc(size)
            for other_addr, other_size in regions:
                assert addr >= other_addr + other_size or addr + size <= other_addr
            regions.append((addr, size))

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=1000),
                st.sampled_from([1, 2, 4, 8, 64, 256]),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_alignment_always_honoured(self, requests):
        alloc = AddressAllocator()
        for size, align in requests:
            addr = alloc.alloc(size, align=align)
            assert addr % align == 0


class TestFilesystemProperties:
    @staticmethod
    def make_fs():
        sim = Simulator()
        config = MachineConfig()
        cpu = CpuComplex(sim, config)
        mem = MemorySystem(sim, config)
        return sim, FileSystem(sim, config, cpu, mem, disk=None)

    @given(
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=512),
                st.binary(min_size=1, max_size=64),
            ),
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_writes_match_reference_bytearray(self, writes):
        sim, fs = self.make_fs()
        inode = fs.create_file("/tmp/f")
        open_file = OpenFile(inode, O_RDWR, "/tmp/f")
        reference = bytearray()

        def body():
            for offset, data in writes:
                if offset + len(data) > len(reference):
                    reference.extend(b"\0" * (offset + len(data) - len(reference)))
                reference[offset : offset + len(data)] = data
                yield from fs.write_timed(open_file, offset, data)

        sim.run_process(body())
        assert bytes(inode.data) == bytes(reference)

    @given(
        content=st.binary(min_size=0, max_size=256),
        offset=st.integers(min_value=0, max_value=300),
        count=st.integers(min_value=0, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_read_equals_slice(self, content, offset, count):
        sim, fs = self.make_fs()
        inode = fs.create_file("/tmp/f", content)
        open_file = OpenFile(inode, O_RDWR, "/tmp/f")

        def body():
            data = yield from fs.read_timed(open_file, offset, count)
            return data

        assert sim.run_process(body()) == content[offset : offset + count]


class TestCoalescerProperties:
    @given(
        count=st.integers(min_value=0, max_value=50),
        window=st.floats(min_value=0, max_value=10_000),
        max_batch=st.integers(min_value=1, max_value=16),
        gap=st.floats(min_value=0, max_value=2_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_payload_flushed_exactly_once(self, count, window, max_batch, gap):
        sim = Simulator()
        flushed = []
        coalescer = Coalescer(
            sim,
            CoalescingConfig(window_ns=window, max_batch=max_batch),
            lambda bundle: flushed.extend(bundle),
        )

        def body():
            for i in range(count):
                coalescer.add(i)
                yield gap
            yield window + 1

        sim.run_process(body())
        assert sorted(flushed) == list(range(count))

    @given(
        count=st.integers(min_value=1, max_value=50),
        max_batch=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_bundles_never_exceed_max_batch(self, count, max_batch):
        sim = Simulator()
        sizes = []
        coalescer = Coalescer(
            sim,
            CoalescingConfig(window_ns=1e9, max_batch=max_batch),
            lambda bundle: sizes.append(len(bundle)),
        )

        def body():
            for i in range(count):
                coalescer.add(i)
            yield 2e9

        sim.run_process(body())
        assert all(size <= max_batch for size in sizes)
        assert sum(sizes) == count


class TestBarrierProperties:
    @given(
        wg_size=st.integers(min_value=1, max_value=24),
        rounds=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_barrier_rounds_never_interleave(self, wg_size, rounds):
        """No work-item may enter round r+1 before all entered round r."""
        from repro.gpu.device import Gpu, KernelLaunch
        from repro.gpu.ops import Barrier, Compute
        from repro.machine import small_machine
        from repro.memory.system import MemorySystem

        sim = Simulator()
        config = small_machine()
        gpu = Gpu(sim, config, MemorySystem(sim, config))
        log = []

        def kern(ctx):
            for round_no in range(rounds):
                yield Compute((ctx.local_id + 1) * 10)
                log.append(("arrive", round_no, ctx.local_id))
                yield Barrier()
                log.append(("depart", round_no, ctx.local_id))

        def body():
            yield gpu.launch(KernelLaunch(kern, wg_size, wg_size))

        sim.run_process(body())
        for round_no in range(rounds):
            arrives = [i for i, e in enumerate(log) if e[0] == "arrive" and e[1] == round_no]
            departs = [i for i, e in enumerate(log) if e[0] == "depart" and e[1] == round_no]
            assert len(arrives) == len(departs) == wg_size
            assert max(arrives) < min(departs)
