"""Unit tests for the syscall area and its slot state machine (Fig 5/6)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.invocation import SyscallRequest
from repro.core.syscall_area import Slot, SlotState, SlotStateError, SyscallArea
from repro.machine import small_machine
from repro.memory.system import MemorySystem
from repro.oskernel.process import OsProcess
from repro.sim.engine import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def area(sim):
    config = small_machine()
    return SyscallArea(sim, config, MemorySystem(sim, config))


def make_request(sim, blocking=True):
    proc = OsProcess(sim, "p")
    return SyscallRequest("getrusage", (), blocking, proc)


def drive_to_ready(sim, slot, blocking=True):
    assert slot.try_claim()
    slot.populate(make_request(sim, blocking))
    slot.set_ready()


class TestHappyPaths:
    def test_blocking_lifecycle(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        assert slot.state is SlotState.READY
        request = slot.start_processing()
        assert request.name == "getrusage"
        slot.finish(123)
        assert slot.state is SlotState.FINISHED
        assert slot.completion.triggered
        assert slot.consume() == 123
        assert slot.state is SlotState.FREE

    def test_non_blocking_lifecycle_skips_finished(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot, blocking=False)
        slot.start_processing()
        slot.finish(0)
        assert slot.state is SlotState.FREE
        assert slot.completion.triggered

    def test_slot_reusable_after_free(self, sim, area):
        slot = area.slot_for(0, 0)
        for _ in range(3):
            drive_to_ready(sim, slot)
            slot.start_processing()
            slot.finish(1)
            slot.consume()
        assert slot.state is SlotState.FREE


class TestIllegalTransitions:
    def test_claim_busy_slot_fails_softly(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        assert slot.try_claim() is False
        assert slot.state is SlotState.READY

    def test_ready_without_populate(self, sim, area):
        slot = area.slot_for(0, 0)
        slot.try_claim()
        with pytest.raises(SlotStateError):
            slot.set_ready()

    def test_populate_without_claim(self, sim, area):
        slot = area.slot_for(0, 0)
        with pytest.raises(SlotStateError):
            slot.populate(make_request(sim))

    def test_process_free_slot(self, sim, area):
        slot = area.slot_for(0, 0)
        with pytest.raises(SlotStateError):
            slot.start_processing()

    def test_process_twice(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        slot.start_processing()
        with pytest.raises(SlotStateError):
            slot.start_processing()

    def test_finish_without_processing(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        with pytest.raises(SlotStateError):
            slot.finish(0)

    def test_consume_before_finished(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        slot.start_processing()
        with pytest.raises(SlotStateError):
            slot.consume()

    def test_gpu_cannot_do_cpu_transition(self, sim, area):
        """READY->PROCESSING is the CPU's edge (Figure 6 colours)."""
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        # start_processing is the CPU path and works; but finishing from
        # the GPU side (consume) must fail until the CPU is done.
        with pytest.raises(SlotStateError):
            slot.consume()


class TestAddressing:
    def test_one_slot_per_cacheline_by_default(self, sim, area):
        first = area.slot_for(0, 0)
        second = area.slot_for(0, 1)
        assert second.addr - first.addr == 64
        assert not area.shares_cacheline(first)

    def test_slot_count_matches_active_workitems(self, sim):
        config = small_machine()
        area = SyscallArea(sim, config, MemorySystem(sim, config))
        assert area.num_slots == config.max_active_workitems

    def test_ready_slots_walk_one_row_in_lane_order(self, sim, area):
        for hw_id, lane in ((2, 5), (2, 1), (3, 0)):
            drive_to_ready(sim, area.slot_for(hw_id, lane))
        area.slot_for(2, 3)  # claimed, never READY
        assert list(area.ready_slots(2)) == [area.slot_for(2, 1), area.slot_for(2, 5)]
        assert area.ready_masks[2] == 0b100010
        assert area.ready_wavefronts() == [2, 3]

    def test_out_of_range_rejected(self, area):
        with pytest.raises(IndexError):
            area.slot_for(area.num_wavefronts, 0)
        with pytest.raises(IndexError):
            area.slot_for(0, area.width)

    def test_packed_layout_shares_lines(self, sim):
        config = small_machine()
        packed = SyscallArea(sim, config, MemorySystem(sim, config), slot_stride_bytes=16)
        slot = packed.slot_for(0, 0)
        neighbour = packed.slot_for(0, 1)
        assert packed.shares_cacheline(slot)
        assert neighbour.addr - slot.addr == 16

    def test_invalid_stride_rejected(self, sim):
        config = small_machine()
        mem = MemorySystem(sim, config)
        with pytest.raises(ValueError):
            SyscallArea(sim, config, mem, slot_stride_bytes=48)

    def test_materialized_in_index_order(self, area):
        area.slot_for(5, 3)
        for lane in reversed(range(area.width)):
            area.slot_for(0, lane)
        area.slot_for(2, 1)
        got = area.materialized()
        assert got == [slot for slot in area._slots if slot is not None]
        assert [slot.index for slot in got] == sorted(slot.index for slot in got)
        assert len(got) == area.width + 2


class TestSyscallRequest:
    def test_arg_limit_is_six(self, sim):
        proc = OsProcess(sim, "p")
        SyscallRequest("x", (1, 2, 3, 4, 5, 6), True, proc)
        with pytest.raises(ValueError):
            SyscallRequest("x", (1, 2, 3, 4, 5, 6, 7), True, proc)

    def test_repr_mentions_blocking(self, sim):
        proc = OsProcess(sim, "p")
        assert "non-blocking" in repr(SyscallRequest("x", (), False, proc))


class TestProtocolErrorAccounting:
    """Satellite: illegal transitions are not just raised — they are
    counted per slot and per area, and fire ``slot.protocol_error`` so
    chaos runs can see double-releases and stale finishes."""

    def test_illegal_transition_counts(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        slot.start_processing()
        slot.finish(0)
        before = slot.protocol_errors
        with pytest.raises(SlotStateError):
            slot.finish(0)  # double release
        assert slot.protocol_errors == before + 1

    def test_area_aggregates_protocol_errors_and_fires_tracepoint(self, sim):
        from repro.probes.tracepoints import ProbeRegistry

        config = small_machine()
        registry = ProbeRegistry(sim)
        area = SyscallArea(sim, config, MemorySystem(sim, config), probes=registry)
        fired = []
        registry.attach(
            "slot.protocol_error",
            lambda slot_index, op, actor, detail: fired.append(
                (slot_index, op, actor)
            ),
        )
        slot = area.slot_for(0, 0)
        with pytest.raises(SlotStateError):
            slot.start_processing()  # out-of-order: FREE -> PROCESSING
        assert area.protocol_errors == 1
        assert fired == [(slot.index, "start_processing", "cpu")]

    def test_stale_finish_rejected_without_raising(self, sim, area):
        """A worker finishing a slot the watchdog already reclaimed (and
        a new request re-claimed) must be refused: no duplicate
        completion, no exception on the worker path."""
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        stale = slot.start_processing()
        # Watchdog reclaims the stuck slot, waking the waiter...
        assert slot.reclaim(-110) is stale
        slot.consume()
        # ...and the slot is re-used by a fresh invocation.
        drive_to_ready(sim, slot)
        fresh = slot.start_processing()
        before = slot.protocol_errors
        assert slot.finish(0, expected=stale) is False
        assert slot.protocol_errors == before + 1
        assert slot.state is SlotState.PROCESSING  # fresh request untouched
        assert slot.finish(1, expected=fresh) is True
        assert slot.consume() == 1

    def test_reclaim_of_non_stuck_slot_refused(self, sim, area):
        slot = area.slot_for(0, 0)
        before = slot.protocol_errors
        assert slot.reclaim(-110) is None
        assert slot.protocol_errors == before + 1
        assert slot.state is SlotState.FREE

    def test_reclaim_blocking_lands_finished_with_status(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot)
        request = slot.reclaim(-110)
        assert request is not None
        assert slot.state is SlotState.FINISHED
        assert slot.completion.triggered
        assert slot.consume() == -110
        assert slot.state is SlotState.FREE

    def test_reclaim_non_blocking_lands_free(self, sim, area):
        slot = area.slot_for(0, 0)
        drive_to_ready(sim, slot, blocking=False)
        slot.start_processing()
        assert slot.reclaim(-110) is not None
        assert slot.state is SlotState.FREE


def make_area():
    sim = Simulator()
    config = small_machine()
    return sim, SyscallArea(sim, config, MemorySystem(sim, config))


def advance(sim, slot, choice):
    """Walk ``slot`` one legal edge on from its state; ``choice`` picks
    between the edges open to it."""
    state = slot.state
    if state is SlotState.FREE:
        assert slot.try_claim()
    elif state is SlotState.POPULATING:
        slot.populate(make_request(sim, blocking=bool(choice % 2)))
        slot.set_ready()
    elif state is SlotState.READY:
        if choice % 3:
            slot.start_processing()
        else:
            slot.reclaim(-110)
    elif state is SlotState.PROCESSING:
        if choice % 3:
            slot.finish(0)
        else:
            slot.reclaim(-110)
    else:
        slot.consume()


def row_walk(area, hw_id):
    """The READY slots of one row found by checking every lane's state."""
    slots = [area._slots[hw_id * area.width + lane] for lane in range(area.width)]
    return [slot for slot in slots if slot is not None and slot.state is SlotState.READY]


#: Moves across four rows: (hardware wavefront id, lane, edge choice).
moves = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 7), st.integers(0, 5)), max_size=80
)
#: Moves within row 0: (lane, edge choice).
row_moves = st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5)), max_size=40)


class TestReadyMasks:
    """The per-row READY bitmasks the CPU scans walk in place of rows
    of slots: they must name exactly the READY slots, in lane order, and
    a walk must read them live as the row walk it replaced did."""

    @settings(max_examples=60, deadline=None)
    @given(moves)
    def test_ready_slots_match_a_full_row_walk(self, steps):
        sim, area = make_area()
        assert area.width == 8
        for hw_id, lane, choice in steps:
            advance(sim, area.slot_for(hw_id, lane), choice)
            for row in range(4):
                assert list(area.ready_slots(row)) == row_walk(area, row)

    @settings(max_examples=60, deadline=None)
    @given(moves)
    def test_ready_wavefronts_match_the_materialized_sweep(self, steps):
        sim, area = make_area()
        for hw_id, lane, choice in steps:
            advance(sim, area.slot_for(hw_id, lane), choice)
            assert area.ready_wavefronts() == sorted(
                {
                    slot.index // area.width
                    for slot in area.materialized()
                    if slot.state is SlotState.READY
                }
            )

    @settings(max_examples=80, deadline=None)
    @given(row_moves, st.lists(row_moves, max_size=8))
    def test_a_walk_reads_the_mask_live(self, setup, per_visit):
        """Servicing each visited slot and then moving other lanes of the
        row visits the same lanes as walking the row lane by lane."""

        def scan(walk_row):
            sim, area = make_area()
            for lane, choice in setup:
                advance(sim, area.slot_for(0, lane), choice)
            visited = []

            def visit(slot):
                slot.start_processing()
                slot.finish(0)
                later = per_visit[len(visited)] if len(visited) < len(per_visit) else []
                visited.append(slot.index)
                for lane, choice in later:
                    advance(sim, area.slot_for(0, lane), choice)

            if walk_row:
                for lane in range(area.width):
                    slot = area._slots[lane]
                    if slot is not None and slot.state is SlotState.READY:
                        visit(slot)
            else:
                for slot in area.ready_slots(0):
                    visit(slot)
            return visited

        assert scan(walk_row=False) == scan(walk_row=True)

    def test_walk_takes_higher_lanes_that_turn_ready_but_not_lower(self, sim, area):
        for lane in (2, 5):
            drive_to_ready(sim, area.slot_for(0, lane))
        visited = []
        for slot in area.ready_slots(0):
            visited.append(slot.index)
            slot.start_processing()
            if slot.index == 2:
                drive_to_ready(sim, area.slot_for(0, 1))  # lower: missed
                drive_to_ready(sim, area.slot_for(0, 7))  # higher: taken
                area.slot_for(0, 5).reclaim(-110)  # left READY: skipped
        assert visited == [2, 7]
        assert list(area.ready_slots(0)) == [area.slot_for(0, 1)]

    def test_scan_ready_covers_the_wavefronts_with_ready_slots(self):
        from repro.system import System

        system = System(config=small_machine())
        genesys = system.genesys
        area = genesys.area
        for hw_id, lane in ((3, 4), (1, 0), (3, 1)):
            drive_to_ready(system.sim, area.slot_for(hw_id, lane))
        area.slot_for(2, 0).try_claim()  # POPULATING is not READY
        enqueued = []
        genesys._enqueue_scan = enqueued.append
        genesys._scan_ready()
        assert enqueued == [[1, 3]]
        assert genesys.degraded == 1

    def test_a_slot_outside_an_area_keeps_no_mask(self, sim):
        slot = Slot(sim, 0, 0x1000)
        drive_to_ready(sim, slot)
        slot.start_processing()
        slot.finish(7)
        assert slot.ready_masks is None
        assert slot.consume() == 7
