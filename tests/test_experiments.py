"""Tests for the experiments package: registry, rendering, and a couple
of fast end-to-end experiment runs (the command line is in test_cli.py)."""

import gc

import pytest

from repro.core.syscall_area import Slot
from repro.experiments import (
    ExperimentResult,
    ExperimentTable,
    REGISTRY,
    all_names,
    load,
    run,
)
from tests.test_machine_lifetime import collector_off  # noqa: F401 - a fixture


class TestRegistry:
    def test_every_figure_and_table_registered(self):
        for name in (
            "fig1", "fig2", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
            "fig13a", "fig13b", "fig14", "fig15", "fig16",
            "table1", "table2", "table4",
            "ablation-slots", "ablation-buffers", "ext-sensitivity", "ext-scaling",
        ):
            assert name in REGISTRY

    def test_all_modules_importable_with_metadata(self):
        for name in all_names():
            module = load(name)
            assert module.NAME == name
            assert module.TITLE
            assert callable(module.run)

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            load("fig99")


class TestRendering:
    def test_table_render_aligns_columns(self):
        table = ExperimentTable("T", ["a", "long-header"], [(1, 2), (333, 4)])
        lines = table.render().splitlines()
        assert lines[0] == "=== T ==="
        assert "long-header" in lines[1]
        assert len(lines) == 4

    def test_result_render_joins_tables(self):
        result = ExperimentResult("x")
        result.add_table("One", ["h"], [("v",)])
        result.add_table("Two", ["h"], [("w",)])
        rendered = result.render()
        assert "=== One ===" in rendered and "=== Two ===" in rendered


class TestFastExperiments:
    def test_table2_runs(self):
        result = run("table2")
        assert result.data["total"] >= 300
        assert len(result.tables) == 2

    def test_table4_runs(self):
        result = run("table4")
        assert result.data["cmp-swap"] > result.data["load"]

    def test_fig1_runs(self):
        result = run("fig1")
        assert result.data["speedup"] > 1.5
        assert result.data["genesys_launches"] == 1

    def test_ablation_buffers_runs(self):
        result = run("ablation-buffers")
        assert result.data["flush_ns"] < result.data["atomics_ns"]

    def test_fig2_materializes_only_the_slots_it_uses(self, monkeypatch):
        # fig2 traces one lane through the slot.transition tracepoint,
        # so of the machine's 20,480 slots it builds only the one its
        # work-item claims: the CPU scan walks the row's READY mask, not
        # the row's slots.
        built = []
        original = Slot.__init__

        def counting_init(slot, *args):
            built.append(args[1])
            original(slot, *args)

        monkeypatch.setattr(Slot, "__init__", counting_init)
        result = run("fig2")
        assert built == [0]
        assert result.data["bytes"] == 4096
        assert len(result.data["log"]) == 10

    def test_run_leaves_no_cyclic_garbage(self, collector_off):
        # Each variant closes its machine, so an experiment's machines
        # are freed by reference counting where their runs end.
        run("fig2")
        assert gc.collect() == 0
