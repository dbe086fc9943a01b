"""The model checker's replay determinism contract.

(Its other contract — the FIFO tie-break policy leaves every experiment
byte-identical to the bare ``tie_break = None`` fast path — is a row of
the neutrality oracle in ``tests/test_observer_neutrality.py``.)

A schedule certificate is the *entire* schedule input.
Two guided runs of the same certificate — workload scenarios under
their fault profiles included — produce byte-identical tracepoint
streams, oracle verdicts, and decision records.  A guided policy that
steps aside once it has nothing left to do leaves the same stream and
verdict as one that stays installed to the end.
"""

import json

import pytest

from repro.modelcheck.explore import run_schedule
from repro.modelcheck.scenarios import build_scenario, run_cell
from repro.modelcheck.schedule import EffectCollector, GuidedTieBreak
from repro.probes.tracepoints import StreamRecorder

WORKLOADS = ("fig2", "grep", "memcached")


def guided_stream(name, choices, seed, record_limit=256):
    """One guided run with a full tracepoint stream recorded, and an
    effect collector attached after the recorder as ``run_schedule``
    attaches one; returns (stream, canonical result JSON, whether the
    policy was still installed at the end)."""
    built = build_scenario(name, profile=name, seed=seed).build()
    recorder = StreamRecorder(built.registry).attach("*")
    policy = GuidedTieBreak(
        choices=dict(choices),
        collector=EffectCollector().install(built.registry),
        record_limit=record_limit,
    )
    verdict = run_cell(built, tie_break=policy)
    policy.finalize()
    doc = {
        "violations": verdict.violations,
        "rules": verdict.rules,
        "events": verdict.sanitizer.events,
    }
    return recorder.events, json.dumps(doc, sort_keys=True), built.sim.tie_break is policy


class TestCertificateReplayDeterminism:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_same_certificate_same_bytes(self, name):
        # Derive a genuinely non-FIFO certificate from the run itself:
        # swap the first contested pop, keep everything else FIFO.
        probe = run_schedule(name, (), profile=name, seed=3)
        contested = [
            d for d in probe["decisions"] if len(d["candidates"]) > 1
        ]
        assert contested, f"{name}: no contested pops to certify"
        choices = ((contested[0]["index"], 1),)
        first_stream, first_verdict, _ = guided_stream(name, choices, seed=3)
        second_stream, second_verdict, _ = guided_stream(name, choices, seed=3)
        assert first_stream == second_stream
        assert first_verdict == second_verdict
        assert first_stream, f"{name}: recorder saw no events"

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_stepping_aside_leaves_the_run_unchanged(self, name):
        # One non-FIFO choice; past it, one policy records nothing more
        # and steps aside, the other records every contested pop (its
        # limit is above the run's count) and stays to the end.
        choices = ((2, 1),)
        aside_stream, aside_verdict, aside_kept = guided_stream(
            name, choices, seed=3, record_limit=0
        )
        kept_stream, kept_verdict, kept_kept = guided_stream(
            name, choices, seed=3, record_limit=10**9
        )
        assert not aside_kept and kept_kept
        assert aside_stream == kept_stream
        assert aside_verdict == kept_verdict
        assert aside_stream, f"{name}: recorder saw no events"

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_replay_results_identical_through_run_schedule(self, name):
        first = run_schedule(name, ((0, 1),), profile=name, seed=3)
        second = run_schedule(name, ((0, 1),), profile=name, seed=3)
        assert json.dumps(first, sort_keys=True, default=str) == json.dumps(
            second, sort_keys=True, default=str
        )

    def test_corpus_counterexample_replays_byte_identical(self):
        from repro.modelcheck.corpus import ORDERING_BUGS
        from repro.modelcheck.explore import Bounds, explore

        bug = ORDERING_BUGS[0]
        report = explore(bug.name, bounds=Bounds(max_schedules=64))
        choices = tuple(map(tuple, report.violating[0]["choices"]))
        runs = [run_schedule(bug.name, choices) for _ in range(2)]
        assert json.dumps(runs[0], sort_keys=True) == json.dumps(
            runs[1], sort_keys=True
        )
        assert not runs[0]["ok"]
