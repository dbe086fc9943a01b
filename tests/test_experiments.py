"""Tests for the experiments package: registry, rendering, and a couple
of fast end-to-end experiment runs (the command line is in test_cli.py)."""

import pytest

from repro.experiments import (
    ExperimentResult,
    ExperimentTable,
    REGISTRY,
    all_names,
    load,
    run,
)


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

