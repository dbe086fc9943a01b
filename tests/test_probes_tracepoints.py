"""Tests for repro.probes: tracepoints, the registry, and the attach stack."""

import functools

import pytest

from repro.machine import small_machine
from repro.probes.tracepoints import (
    NULL_TRACEPOINT,
    ProbeRegistry,
    StreamRecorder,
    Tracepoint,
    apply_global_plan,
    attached,
    clear_global_plan,
    install_global_plan,
)
from repro.system import System


class TestTracepoint:
    def test_starts_detached(self):
        tp = Tracepoint("t", ("a", "b"))
        assert tp.enabled is False
        assert tp.observers == 0
        assert tp.hits == 0
        assert tp.args == ("a", "b")

    def test_attach_enables_and_fire_delivers(self):
        tp = Tracepoint("t")
        got = []
        tp.attach(lambda *vals: got.append(vals))
        assert tp.enabled is True
        tp.fire(1, "x")
        assert got == [(1, "x")]
        assert tp.hits == 1

    def test_observers_run_in_attach_order(self):
        tp = Tracepoint("t")
        order = []
        tp.attach(lambda: order.append("first"))
        tp.attach(lambda: order.append("second"))
        tp.fire()
        assert order == ["first", "second"]

    def test_detach_last_observer_disables(self):
        tp = Tracepoint("t")
        obs = tp.attach(lambda: None)
        tp.detach(obs)
        assert tp.enabled is False
        assert tp.observers == 0

    def test_detach_unknown_is_ignored(self):
        tp = Tracepoint("t")
        tp.attach(lambda: None)
        tp.detach(lambda: None)  # never attached
        assert tp.enabled is True

    def test_detach_all(self):
        tp = Tracepoint("t")
        tp.attach(lambda: None)
        tp.attach(lambda: None)
        tp.detach_all()
        assert tp.enabled is False
        assert tp.observers == 0

    def test_non_callable_observer_rejected(self):
        tp = Tracepoint("t")
        with pytest.raises(TypeError):
            tp.attach("not callable")

    def test_null_tracepoint_refuses_attach(self):
        assert NULL_TRACEPOINT.enabled is False
        with pytest.raises(RuntimeError):
            NULL_TRACEPOINT.attach(lambda: None)


class TestProbeRegistry:
    def test_declaration_is_idempotent(self):
        reg = ProbeRegistry()
        first = reg.tracepoint("a.b", ("x",), "doc")
        again = reg.tracepoint("a.b")
        assert first is again
        assert again.args == ("x",)  # first declaration wins

    def test_hook_declaration_is_idempotent(self):
        reg = ProbeRegistry()
        assert reg.hook("h") is reg.hook("h")

    def test_get_unknown_names_known_ones(self):
        reg = ProbeRegistry()
        reg.tracepoint("known.tp")
        with pytest.raises(KeyError, match="known.tp"):
            reg.get("nope")
        with pytest.raises(KeyError):
            reg.get_hook("nope")

    def test_match_star_prefix_and_exact(self):
        reg = ProbeRegistry()
        for name in ("irq.raised", "irq.serviced", "wq.enqueue"):
            reg.tracepoint(name)
        assert [t.name for t in reg.match("*")] == [
            "irq.raised",
            "irq.serviced",
            "wq.enqueue",
        ]
        assert [t.name for t in reg.match("irq.*")] == ["irq.raised", "irq.serviced"]
        assert [t.name for t in reg.match("wq.enqueue")] == ["wq.enqueue"]

    def test_attach_records_programs_with_bind(self):
        from repro.probes.programs import CounterProbe

        reg = ProbeRegistry()
        reg.tracepoint("t")
        probe = CounterProbe(reg)
        reg.attach("t", probe)
        assert reg.programs == [probe]
        assert probe.tracepoint is reg.tracepoints["t"]
        # A bare callable is an observer but not an exported program.
        reg.attach("t", lambda *vals: None)
        assert reg.programs == [probe]

    def test_detach_all_clears_everything(self):
        reg = ProbeRegistry()
        tp = reg.tracepoint("t")
        hook = reg.hook("h")
        reg.attach("t", lambda: None)
        reg.attach_policy("h", lambda current: None)
        reg.detach_all()
        assert tp.enabled is False
        assert hook.active is False
        assert reg.programs == []

    def test_now_without_simulator_is_zero(self):
        assert ProbeRegistry().now() == 0.0

    def test_catalogue_lists_kind_args_doc(self):
        reg = ProbeRegistry()
        reg.tracepoint("t", ("v",), "a tracepoint")
        reg.hook("h", ("w",), "a hook")
        cat = reg.catalogue()
        assert cat["t"] == {"kind": "tracepoint", "args": ["v"], "doc": "a tracepoint"}
        assert cat["h"] == {"kind": "hook", "args": ["w"], "doc": "a hook"}


class TestStreamRecorder:
    def _registry(self):
        reg = ProbeRegistry()
        for name in ("fault.irq", "fault.net", "recover.respawn", "wq.depth"):
            reg.tracepoint(name, ("v",))
        return reg

    def test_records_matched_fires_in_firing_order(self):
        reg = self._registry()
        recorder = StreamRecorder(reg).attach("fault.*", "recover.respawn")
        reg.get("recover.respawn").fire(1)
        reg.get("wq.depth").fire(2)
        reg.get("fault.net").fire(3)
        reg.get("fault.irq").fire(4)
        assert recorder.events == [
            (0.0, "recover.respawn", (1,)),
            (0.0, "fault.net", (3,)),
            (0.0, "fault.irq", (4,)),
        ]

    def test_overlapping_patterns_attach_once(self):
        reg = self._registry()
        recorder = StreamRecorder(reg).attach("fault.*", "fault.irq", "*")
        reg.get("fault.irq").fire(7)
        assert recorder.events == [(0.0, "fault.irq", (7,))]
        assert reg.get("fault.irq").observers == 1

    def test_stamps_simulated_time(self):
        system = System(config=small_machine())
        recorder = StreamRecorder(system.probes).attach("slot.transition")

        def kern(ctx):
            yield from ctx.sys.getrusage()

        system.run_kernel(kern, 1, 1)
        times = [when for when, _name, _args in recorder.events]
        assert times and times == sorted(times) and times[0] > 0.0

    def test_unknown_exact_name_raises(self):
        with pytest.raises(KeyError):
            StreamRecorder(self._registry()).attach("fault.nope")


class TestSystemCatalogue:
    """The issue asks for 15-20 tracepoints woven through the stack."""

    EXPECTED_TRACEPOINTS = {
        "syscall.submit",
        "syscall.dispatch",
        "syscall.complete",
        "coalesce.flush",
        "irq.raised",
        "irq.serviced",
        "irq.unhandled",
        "wq.enqueue",
        "wq.dequeue",
        "wq.complete",
        "fs.pagecache.hit",
        "fs.pagecache.miss",
        "fs.pagecache.evict",
        "net.tx",
        "net.rx",
        "net.drop",
        "wavefront.halt",
        "wavefront.resume",
        "gpu.slots.alloc",
        "gpu.slots.release",
        "mem.l1.hit",
        "mem.l1.miss",
        "mem.l2.hit",
        "mem.l2.miss",
        "dram.access",
        "dram.stall",
        # gauge-grade fire sites added for the repro.metrics plane
        "syscall.inflight",
        "gpu.wf.occupancy",
        "gpu.lanes.runnable",
        "wq.depth",
        "wq.busy",
        "slot.occupancy",
        "fs.pagecache.resident",
        "net.backlog",
        "dram.queue",
    }
    EXPECTED_HOOKS = {
        "coalesce.window",
        "coalesce.batch",
        "wq.worker",
        "fs.pagecache.victim",
    }

    def test_every_layer_declares_its_points(self):
        system = System(config=small_machine())
        assert self.EXPECTED_TRACEPOINTS <= set(system.probes.tracepoints)
        assert self.EXPECTED_HOOKS <= set(system.probes.hooks)
        assert len(system.probes.tracepoints) >= 15

    def test_all_start_detached(self):
        system = System(config=small_machine())
        assert not any(tp.enabled for tp in system.probes.tracepoints.values())
        assert not any(h.active for h in system.probes.hooks.values())


class TestGlobalPlan:
    @staticmethod
    def tagger(tag, seen):
        return lambda registry: seen.append((tag, registry))

    def test_plan_applies_to_new_systems_until_popped(self):
        seen = []
        with attached(seen.append):
            system = System(config=small_machine())
            assert seen == [system.probes]
        System(config=small_machine())
        assert len(seen) == 1  # popped plan no longer applies

    def test_plan_can_attach_by_name(self):
        from repro.probes.programs import CounterProbe

        def plan(registry):
            registry.attach("irq.raised", CounterProbe(registry))

        with attached(plan):
            system = System(config=small_machine())
        assert system.probes.get("irq.raised").enabled is True
        assert len(system.probes.programs) == 1

    def test_plans_apply_to_one_registry_in_install_order(self):
        seen = []
        with attached(self.tagger("a", seen), self.tagger("b", seen)):
            system = System(config=small_machine())
        assert seen == [("a", system.probes), ("b", system.probes)]

    def test_nested_blocks_pop_only_their_own_plans(self):
        seen = []
        registry = ProbeRegistry()
        with attached(self.tagger("outer", seen)):
            with attached(self.tagger("inner", seen)) as inner:
                apply_global_plan(registry)
            assert len(inner) == 1
            apply_global_plan(registry)
        apply_global_plan(registry)
        assert [tag for tag, _ in seen] == ["outer", "inner", "outer"]

    def test_exception_inside_block_restores_the_stack(self):
        seen = []
        with attached(self.tagger("outer", seen)):
            with pytest.raises(ZeroDivisionError):
                with attached(self.tagger("inner", seen)):
                    1 / 0
            apply_global_plan(ProbeRegistry())
        apply_global_plan(ProbeRegistry())
        assert [tag for tag, _ in seen] == ["outer"]

    def test_plan_raising_inside_system_leaves_stack_clean(self):
        def broken(registry):
            raise RuntimeError("plan failed")

        with pytest.raises(RuntimeError, match="plan failed"):
            with attached(broken):
                System(config=small_machine())
        seen = []
        with attached(seen.append):
            system = System(config=small_machine())
        assert seen == [system.probes]  # the broken plan is gone

    def test_empty_block_yields_no_plans_and_keeps_the_stack(self):
        seen = []
        with attached(self.tagger("outer", seen)):
            with attached() as plans:
                assert plans == ()
                apply_global_plan(ProbeRegistry())
            apply_global_plan(ProbeRegistry())
        assert [tag for tag, _ in seen] == ["outer", "outer"]

    def test_block_yields_its_plans_in_order(self):
        first, second = (lambda r: None), (lambda r: None)
        with attached(first, second) as plans:
            assert plans == (first, second)

    def test_same_plan_listed_twice_applies_twice_and_pops_both(self):
        seen = []
        with attached(seen.append, seen.append):
            system = System(config=small_machine())
        assert seen == [system.probes, system.probes]
        apply_global_plan(ProbeRegistry())
        assert len(seen) == 2

    def test_block_leaves_plans_installed_below_and_inside_it(self):
        seen = []
        install_global_plan(self.tagger("below", seen))
        try:
            with attached(self.tagger("block", seen)):
                install_global_plan(self.tagger("inside", seen))
            apply_global_plan(ProbeRegistry())
            assert [tag for tag, _ in seen] == ["below", "inside"]
        finally:
            clear_global_plan()

    def test_fault_plan_attaches_through_the_stack(self):
        from repro.faults import FaultInjector, FaultPlan

        plan = FaultPlan(irq_drop=0.5)
        with attached(functools.partial(FaultInjector, plan)):
            faulty = System(config=small_machine())
        clean = System(config=small_machine())
        assert faulty.probes.get_hook("fault.irq").programs == 1
        assert clean.probes.get_hook("fault.irq").programs == 0

    def test_install_returns_plan_and_clear_empties_the_stack(self):
        seen = []
        assert install_global_plan(seen.append) == seen.append
        install_global_plan(seen.append)
        try:
            apply_global_plan(ProbeRegistry())
            assert len(seen) == 2
            clear_global_plan()
            apply_global_plan(ProbeRegistry())
            assert len(seen) == 2
        finally:
            clear_global_plan()
