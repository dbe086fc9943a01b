"""Unit tests for the syscall area and its slot state machine (Fig 5/6)."""

import pytest

from repro.core.invocation import SyscallRequest
from repro.core.syscall_area import Slot, SlotState, SlotStateError, SyscallArea
from repro.machine import MachineConfig, small_machine
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

    def test_slots_of_returns_wavefront_width(self, area):
        slots = area.slots_of(2)
        assert len(slots) == area.width
        assert slots[0] is area.slot_for(2, 0)

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
        area.slots_of(0)
        area.slot_for(2, 1)
        got = area.materialized()
        assert got == [slot for slot in area._slots if slot is not None]
        assert [slot.index for slot in got] == sorted(slot.index for slot in got)
        assert len(got) == area.width + 2

    def test_total_bytes_reports_full_slots(self, area):
        assert area.total_bytes == area.num_slots * 64


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
