"""repro.runfarm: sharding and merge determinism.

The farm's contract is that parallelism is *invisible* in the results:
the merged output is a pure function of the job list, identical for
1/2/4 workers and for any completion order, and a farmed chaos matrix
reproduces the serial ``repro.faults.chaos.run_matrix`` fault streams
exactly.
"""

import os

import pytest

from repro.faults import chaos
from repro.runfarm import (
    Job,
    chaos_matrix_jobs,
    default_workers,
    merge_reports,
    run_chaos_matrix,
    run_frontier,
    run_jobs,
    shard,
)

EXPERIMENTS = ("fig2", "udp-echo")
SEEDS = (1, 2, 3)


def _square_cell(value):
    """Module-level so forked pool workers can pickle the reference."""
    return {"value": value, "square": value * value}


def _jobs(values):
    return [
        Job(key=("square", v), fn=_square_cell, kwargs={"value": v})
        for v in values
    ]


class TestShard:
    def test_round_robin_assignment(self):
        assert shard([0, 1, 2, 3, 4], 2) == [[0, 2, 4], [1, 3]]

    def test_every_item_lands_exactly_once(self):
        items = list(range(17))
        for num_shards in (1, 2, 3, 4, 16, 17, 20):
            shards = shard(items, num_shards)
            flat = [item for piece in shards for item in piece]
            assert sorted(flat) == items
            assert len(shards) == num_shards

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError):
            shard([1], 0)


class TestRunJobs:
    def test_merge_is_worker_count_independent(self):
        expected = [
            (("square", v), {"value": v, "square": v * v}) for v in range(8)
        ]
        for workers in (1, 2, 4):
            assert run_jobs(_jobs(range(8)), workers=workers) == expected

    def test_merge_is_submission_order_independent(self):
        forward = run_jobs(_jobs(range(8)), workers=2)
        backward = run_jobs(list(reversed(_jobs(range(8)))), workers=2)
        assert forward == backward

    def test_duplicate_keys_rejected(self):
        jobs = _jobs([1]) + _jobs([1])
        with pytest.raises(ValueError, match="unique"):
            run_jobs(jobs)

    def test_more_workers_than_jobs_is_fine(self):
        assert run_jobs(_jobs([7]), workers=8) == [
            (("square", 7), {"value": 7, "square": 49})
        ]

    def test_default_workers_positive(self):
        assert default_workers() >= 1

    def test_default_workers_honours_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert default_workers() == 1

    def test_default_workers_without_affinity_uses_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert default_workers() == 3


def _frontier_cell(item):
    """Module-level so forked pool workers can pickle the reference."""
    return item * item


class TestRunFrontier:
    # Binary tree rooted at 0: node n expands to 2n+1, 2n+2, 15 nodes.
    @staticmethod
    def _tree_children(item, result):
        del result
        return [n for n in (2 * item + 1, 2 * item + 2) if n < 15]

    def test_visited_set_is_worker_count_independent(self):
        baseline = None
        for workers in (1, 2, 4):
            results, truncated = run_frontier(
                [0], _frontier_cell, self._tree_children, workers=workers
            )
            assert not truncated
            if baseline is None:
                baseline = results
            assert results == baseline, f"workers={workers} changed coverage"
        assert baseline == [(n, n * n) for n in range(15)]

    def test_budget_truncates_after_sorting(self):
        # Waves are [0], [1, 2], [3..6], [7..14]; a 7-item budget runs
        # the first three waves exactly, for any worker count.
        for workers in (1, 4):
            results, truncated = run_frontier(
                [0],
                _frontier_cell,
                self._tree_children,
                workers=workers,
                max_items=7,
            )
            assert truncated
            assert [item for item, _ in results] == list(range(7))

    def test_duplicate_seed_keys_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            run_frontier([3, 3], _frontier_cell, self._tree_children)

    def test_expansion_dedupes_against_everything_seen(self):
        # Overlapping lattice: n expands to n+1 and n+2, so every node
        # past the seed is proposed twice; each must run exactly once.
        results, truncated = run_frontier(
            [0],
            _frontier_cell,
            lambda item, result: [n for n in (item + 1, item + 2) if n <= 6],
        )
        assert not truncated
        assert [item for item, _ in results] == list(range(7))


class TestChaosFarm:
    def test_farmed_matrix_reproduces_serial_fault_streams(self):
        serial = {
            (report.experiment, report.seed): report.as_dict()
            for report in chaos.run_matrix(list(EXPERIMENTS), list(SEEDS))
        }
        for workers in (1, 2, 4):
            farmed = run_chaos_matrix(EXPERIMENTS, SEEDS, workers=workers)
            assert [key for key, _ in farmed] == sorted(serial)
            for key, report in farmed:
                assert report == serial[key], (key, workers)

    def test_gsan_rides_the_farm_and_stays_green(self):
        farmed = run_chaos_matrix(EXPERIMENTS, (1, 2), workers=2)
        assert len(farmed) == len(EXPERIMENTS) * 2
        for key, report in farmed:
            assert report["ok"], (key, report["violations"])
            # Every experiment but udp-echo drives the slot protocol.
            assert (report["gsan_events"] > 0) == (key[0] != "udp-echo"), key

    def test_seed_assignment_is_part_of_the_job_spec(self):
        jobs = chaos_matrix_jobs(EXPERIMENTS, SEEDS, intensity=0.5)
        assert [job.key for job in jobs] == [
            (experiment, seed)
            for experiment in EXPERIMENTS
            for seed in SEEDS
        ]
        for job in jobs:
            assert job.kwargs["experiment"] == job.key[0]
            assert job.kwargs["seed"] == job.key[1]
            assert job.kwargs["intensity"] == 0.5


class TestMergeReports:
    def test_rollup(self):
        results = [
            (("fig2", 1), {"ok": True, "injected": 3}),
            (("fig2", 2), {"ok": False, "injected": 5}),
            (("grep", 1), {"ok": True, "injected": 2}),
        ]
        summary = merge_reports(results)
        assert summary["cells"] == 3
        assert summary["ok"] == 2
        assert summary["failed"] == 1
        assert summary["by_experiment"]["fig2"] == {
            "cells": 2,
            "ok": 1,
            "injected": 8,
        }
        assert summary["by_experiment"]["grep"] == {
            "cells": 1,
            "ok": 1,
            "injected": 2,
        }
