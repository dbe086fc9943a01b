"""Tests for the benchmark's layer split, goldens and metric names.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402

HARNESS = str(BENCH_DIR)
GPU = os.path.join("/x", "src", "repro", "gpu", "wavefront.py")
SIM = os.path.join("/x", "src", "repro", "sim", "engine.py")
SYSTEM = os.path.join("/x", "src", "repro", "system.py")
STDLIB = os.path.join("/usr", "lib", "python3", "json", "encoder.py")


def entry(calls, self_s, callers=None):
    """A pstats row: (cc, nc, tt, ct, callers); edges are (cc, nc, tt, ct)."""
    return (calls, calls, self_s, self_s, callers or {})


def test_owner_maps_files_to_buckets():
    assert layers.owner(GPU, HARNESS) == "gpu"
    assert layers.owner(SYSTEM, HARNESS) == "system"
    assert layers.owner(os.path.join(HARNESS, "run.py"), HARNESS) == "other"
    assert layers.owner(STDLIB, HARNESS) is None
    assert layers.owner("~", HARNESS) is None


def test_builtin_time_is_charged_to_callers_by_edge_time():
    gpu_fn, sim_fn = (GPU, 1, "step"), (SIM, 1, "_step")
    builtin = ("~", 0, "<built-in method builtins.len>")
    stats = {
        gpu_fn: entry(1, 1.0),
        sim_fn: entry(1, 1.0),
        builtin: entry(40, 2.0, {gpu_fn: (30, 30, 1.5, 1.5), sim_fn: (10, 10, 0.5, 0.5)}),
    }
    split = layers.split(stats, HARNESS)
    assert split["gpu"]["self_s"] == pytest.approx(2.5)
    assert split["sim"]["self_s"] == pytest.approx(1.5)
    assert split["gpu"]["calls"] == 31
    assert split["sim"]["calls"] == 11
    assert split["other"]["self_s"] == 0.0


def test_stdlib_chain_is_charged_transitively_and_cycles_end():
    caller = (SYSTEM, 1, "export")
    dumps = (STDLIB, 1, "dumps")
    encode = (STDLIB, 2, "encode")
    stats = {
        caller: entry(1, 0.5),
        # dumps and encode call each other: a cycle among foreign frames.
        dumps: entry(2, 1.0, {caller: (1, 1, 0.6, 1.0), encode: (1, 1, 0.4, 0.4)}),
        encode: entry(1, 3.0, {dumps: (1, 1, 3.0, 3.0)}),
    }
    split = layers.split(stats, HARNESS)
    assert split["system"]["self_s"] == pytest.approx(4.5)
    assert sum(b["share"] for b in split.values()) == pytest.approx(1.0)


def test_shares_of_a_real_profile_sum_to_one():
    import repro.experiments

    profile = cProfile.Profile()
    profile.enable()
    repro.experiments.run("fig2").render()
    profile.disable()
    split = layers.split(pstats.Stats(profile).stats, HARNESS)
    assert abs(sum(b["share"] for b in split.values()) - 1.0) <= 0.01
    assert split["sim"]["share"] > 0 and split["gpu"]["share"] > 0
    assert set(split) == set(layers.BUCKETS)


def test_a_perturbed_golden_fails_the_check():
    golden = workloads.load_golden()
    observed = workloads.make("observed", golden)
    observed.load()
    assert observed.run("fig2")[0] == []
    golden["experiments"]["fig2"] = "0" * 64
    failures, _ = observed.run("fig2")
    assert failures and "differs from golden" in failures[0]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_reports_exactly_the_declared_metrics(trace, section):
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "serve-memcached",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert result["metrics"]["sim.events"]["value"] > 0
