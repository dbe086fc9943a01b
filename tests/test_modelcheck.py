"""repro.modelcheck: the controllable scheduler and the explorer.

Five contracts: (1) the engine's tie-break hook is neutral by default
and fully controllable when driven; (2) the guided policy counts
decisions only at real choice points, replays choice maps exactly and
refuses one that does not fit its run; (3) it steps aside once it has
nothing left to choose, record or enforce, taking only its own
collector's taps with it; (4) the explorer's DPOR pruning is sound
(same violations as exhaustive, never more runs) and its coverage is
worker-count- and budget-order-independent; (5) certificates
round-trip, replay, and shrink to 1-minimal counterexamples.
"""

import json

import pytest

from repro.modelcheck import certificate
from repro.modelcheck.certificate import (
    densify,
    load_certificate,
    make_certificate,
    replay,
    save_certificate,
    shrink,
)
from repro.modelcheck.explore import Bounds, explore, run_schedule
from repro.modelcheck.scenarios import build_scenario, scenario_names
from repro.modelcheck.schedule import (
    PURE,
    EffectCollector,
    FifoTieBreak,
    GuidedTieBreak,
    ScheduleError,
    effects_from_wire,
    effects_to_wire,
    independent,
)
from repro.probes.tracepoints import StreamRecorder
from repro.sim.engine import SimulationError, Simulator

CORPUS_SCENARIOS = (
    "ready-publish-race",
    "lost-doorbell",
    "watchdog-finish-race",
)


def tied_run(policy):
    """Three callbacks tied at t=10 plus one at t=20; returns the order
    the callbacks ran in and the final clock."""
    sim = Simulator()
    sim.tie_break = policy
    order = []
    for tag in "abc":
        sim.call_later(10, lambda tag=tag: order.append(tag))
    sim.call_later(20, lambda: order.append("late"))
    end = sim.run()
    return order, end


class TestTieBreakHook:
    def test_default_and_fifo_policy_identical(self):
        bare = tied_run(None)
        fifo = tied_run(FifoTieBreak())
        assert bare == fifo == (["a", "b", "c", "late"], 20)

    def test_policy_reorders_only_the_tie(self):
        order, end = tied_run(lambda sim, ready: len(ready) - 1)
        assert order == ["c", "b", "a", "late"]
        assert end == 20

    def test_policy_sees_all_and_only_the_tied_entries(self):
        seen = []

        def spy(sim, ready):
            seen.append([entry[0] for entry in ready])
            return 0

        tied_run(spy)
        for whens in seen:
            assert len(set(whens)) == 1  # every batch shares one timestamp
        assert max(len(whens) for whens in seen) == 3

    def test_out_of_range_choice_is_a_simulation_error(self):
        with pytest.raises(SimulationError, match="tie_break"):
            tied_run(lambda sim, ready: 99)


class TestGuidedPolicy:
    def test_empty_choice_map_replays_fifo(self):
        guided, _ = tied_run(GuidedTieBreak())
        assert guided == ["a", "b", "c", "late"]

    def test_choice_map_picks_ranked_alternative(self):
        order, _ = tied_run(GuidedTieBreak(choices={0: 2}))
        assert order[0] == "c"

    def test_rank_out_of_range_raises_schedule_error(self):
        with pytest.raises(ScheduleError, match="decision 0"):
            tied_run(GuidedTieBreak(choices={0: 7}))

    def test_unreached_choice_raises_schedule_error(self):
        policy = GuidedTieBreak(choices={2: 1})
        tied_run(policy)
        with pytest.raises(
            ScheduleError, match="decision 2 never came: the run had 2 contested pops"
        ):
            policy.finalize()
        with pytest.raises(ScheduleError, match="decision 5000 never came"):
            run_schedule("fig2", ((5000, 1),))

    def test_a_sleep_blocked_run_may_stop_before_its_choices(self):
        policy = GuidedTieBreak(choices={2: 1})
        tied_run(policy)
        policy.finalize(blocked=True)  # pruned, not a misfit

    def test_decisions_counted_only_at_contested_pops(self):
        policy = GuidedTieBreak()
        tied_run(policy)
        # One 3-way tie, then 2-way, then singles: two decisions.
        assert [d.index for d in policy.decisions] == [0, 1]
        assert len(policy.decisions[0].candidates) == 3
        assert len(policy.decisions[1].candidates) == 2

    def test_tombstones_and_finished_procs_are_not_choice_points(self):
        sim = Simulator()
        policy = GuidedTieBreak()
        sim.tie_break = policy
        order = []
        handle = sim.call_later(10, lambda: order.append("cancelled"))
        sim.call_later(10, lambda: order.append("live"))
        handle.fn = None  # cancel: the tie is now uncontested
        sim.run()
        assert order == ["live"]
        assert policy.decisions == []


def installed_at_each_step(policy):
    """``tied_run``'s heap under ``policy``: the order the callbacks ran
    in, whether the policy was installed as each ran, and the final
    ``sim.tie_break``."""
    sim = Simulator()
    sim.tie_break = policy
    order, installed = [], []

    def step(tag):
        order.append(tag)
        installed.append(sim.tie_break is policy)

    for tag in "abc":
        sim.call_later(10, lambda tag=tag: step(tag))
    sim.call_later(20, lambda: step("late"))
    sim.run()
    return order, installed, sim.tie_break


class TestSteppingAside:
    def test_steps_aside_once_nothing_is_left(self):
        order, installed, after = installed_at_each_step(
            GuidedTieBreak(record_limit=0)
        )
        assert order == ["a", "b", "c", "late"]
        assert installed == [False] * 4
        assert after is None

    def test_stays_installed_while_a_choice_lies_ahead(self):
        policy = GuidedTieBreak(choices={1: 1}, record_limit=0)
        order, installed, after = installed_at_each_step(policy)
        # Decisions 0 and 1 are the 3-way and 2-way ties; the rest of
        # the run is FIFO on the engine's own path.
        assert order == ["a", "c", "b", "late"]
        assert installed == [True, True, False, False]
        assert after is None

    def test_stays_installed_while_records_are_wanted(self):
        policy = GuidedTieBreak(record_limit=1)
        _order, installed, after = installed_at_each_step(policy)
        assert installed == [True, False, False, False]
        assert after is None and len(policy.decisions) == 1

    def test_stays_installed_while_the_sleep_set_is_not_empty(self):
        policy = GuidedTieBreak(sleep={999: PURE}, record_limit=0)
        _order, installed, after = installed_at_each_step(policy)
        assert installed == [True] * 4
        assert after is policy

    def test_detach_takes_only_the_collectors_taps(self):
        built = build_scenario("fig2", profile="fig2", seed=3).build()
        recorder = StreamRecorder(built.registry).attach("*")
        tracepoints = built.registry.tracepoints.values()
        alone = [tp.observers for tp in tracepoints]
        collector = EffectCollector().install(built.registry)
        built.sim.tie_break = GuidedTieBreak(collector=collector, record_limit=0)
        built.body()
        assert built.sim.tie_break is None
        assert [tp.observers for tp in tracepoints] == alone
        # The recorder, attached first, kept every event after the
        # collector left (at the first pop): the run is the bare one.
        bare = build_scenario("fig2", profile="fig2", seed=3).build()
        bare_recorder = StreamRecorder(bare.registry).attach("*")
        bare.body()
        assert recorder.events == bare_recorder.events
        assert recorder.events, "the recorder saw nothing"


class TestEffects:
    def test_independence_relation(self):
        a = frozenset({"slot:0"})
        b = frozenset({"slot:1"})
        assert independent(a, b)
        assert independent(a, PURE)
        assert not independent(a, a)
        assert not independent(a, None)  # unknown conflicts with all
        assert not independent(None, None)

    def test_wire_round_trip(self):
        for effects in (None, PURE, frozenset({"slot:3", "inv:1"})):
            assert effects_from_wire(effects_to_wire(effects)) == effects

    def test_collector_attributes_scopes_and_neutral_gauges(self):
        built = build_scenario("slot-commute").build()
        collector = EffectCollector().install(built.registry)
        built.body()
        fired, unscoped, scopes = collector.take()
        assert fired
        # slot.occupancy fired (a neutral gauge) but did not poison the
        # footprint; the slot transitions attributed both slots.
        assert not unscoped
        assert {"slot:0"} <= scopes and len({s for s in scopes if s.startswith("slot:")}) == 2


class TestExplorer:
    def test_fifo_root_is_the_first_schedule(self):
        report = explore("ready-publish-race", bounds=Bounds(max_schedules=8))
        assert () in report.visited

    def test_dpor_prunes_commuting_reorderings(self):
        dpor = explore("slot-commute", bounds=Bounds(max_schedules=64))
        full = explore(
            "slot-commute", bounds=Bounds(max_schedules=64, dpor=False)
        )
        assert dpor.ok and full.ok
        # Both tied pairs commute (disjoint slots): each swap is
        # sleep-blocked before its oracle ever runs.
        assert full.schedules == 4
        assert dpor.schedules == 3
        assert dpor.blocked == 2
        assert dpor.pruned >= 2

    @pytest.mark.parametrize("scenario", CORPUS_SCENARIOS)
    def test_dpor_finds_what_exhaustive_finds(self, scenario):
        bounds = dict(max_schedules=256, max_depth=10, max_preemptions=3)
        dpor = explore(scenario, bounds=Bounds(**bounds))
        full = explore(scenario, bounds=Bounds(dpor=False, **bounds))
        rules = lambda r: sorted(
            {rule for v in r.violating for rule in v["rules"]}
        )
        assert rules(dpor) == rules(full)
        assert dpor.schedules <= full.schedules

    def test_visited_set_is_worker_count_independent(self):
        baseline = None
        for workers in (1, 2, 4):
            report = explore(
                "watchdog-finish-race",
                bounds=Bounds(max_schedules=64),
                workers=workers,
            )
            key = (
                sorted(report.visited),
                sorted(
                    tuple(map(tuple, v["choices"])) for v in report.violating
                ),
            )
            if baseline is None:
                baseline = key
            assert key == baseline, f"workers={workers} changed coverage"

    def test_budget_truncation_is_deterministic(self):
        first = explore(
            "watchdog-finish-race", bounds=Bounds(max_schedules=7)
        )
        second = explore(
            "watchdog-finish-race", bounds=Bounds(max_schedules=7), workers=4
        )
        assert first.truncated and second.truncated
        assert sorted(first.visited) == sorted(second.visited)

    def test_report_shape(self):
        report = explore("ready-publish-race", bounds=Bounds(max_schedules=8))
        doc = report.as_dict()
        assert doc["scenario"] == "ready-publish-race"
        assert doc["ok"] == report.ok == (not report.violating)
        json.dumps(doc)  # picklable and JSON-serializable throughout

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            explore("no-such-scenario")

    def test_corpus_scenarios_reject_fault_plans(self):
        with pytest.raises(ValueError, match="takes no fault plan"):
            build_scenario("lost-doorbell", profile="fig2")

    def test_scenario_names_cover_all_families(self):
        names = scenario_names()
        assert "fig2" in names and "slot-commute" in names
        for scenario in CORPUS_SCENARIOS:
            assert scenario in names


class TestCertificates:
    def violating_choices(self):
        report = explore("ready-publish-race", bounds=Bounds(max_schedules=64))
        hits = [
            v for v in report.violating if "protocol-error" in v["rules"]
        ]
        assert hits
        return hits[0]["choices"]

    def test_densify_drops_fifo_ranks_and_sorts(self):
        assert densify([(3, 0), (1, 2), (0, 1)]) == ((0, 1), (1, 2))

    def test_round_trip_and_replay(self, tmp_path):
        choices = self.violating_choices()
        cert = make_certificate(
            "ready-publish-race", choices, rules={"protocol-error": 1}
        )
        path = tmp_path / "cert.json"
        save_certificate(cert, str(path))
        loaded = load_certificate(str(path))
        assert loaded == cert
        result = replay(str(path))
        assert "protocol-error" in result["rules"]
        assert not result["ok"]

    def test_unknown_format_and_version_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"format": "not-a-cert"}))
        with pytest.raises(ValueError, match="not a gmc-certificate"):
            load_certificate(str(bogus))
        stale = tmp_path / "stale.json"
        cert = make_certificate("ready-publish-race", ())
        cert["version"] = 99
        stale.write_text(json.dumps(cert))
        with pytest.raises(ValueError, match="version 99"):
            load_certificate(str(stale))

    def test_shrink_is_one_minimal(self):
        choices = self.violating_choices()
        shrunk, attempts = shrink(
            "ready-publish-race", choices, {"protocol-error"}
        )
        assert attempts >= 1
        # 1-minimal: dropping any single remaining choice loses the bug.
        for index in range(len(shrunk)):
            trial = shrunk[:index] + shrunk[index + 1 :]
            result = run_schedule("ready-publish-race", trial)
            assert "protocol-error" not in result["rules"], (
                f"shrink left a removable choice at {index}"
            )

    def test_shrink_skips_a_candidate_whose_choices_no_longer_fit(
        self, monkeypatch
    ):
        # Dropping an earlier choice can shift later decisions until a
        # remaining rank no longer fits: that candidate does not
        # reproduce, and shrinking goes on.
        choices = densify(self.violating_choices())
        guided = certificate.run_schedule

        def misfit_without_choices(scenario, candidate, **kwargs):
            if not candidate:
                raise ScheduleError("decision 0: choice map wants rank 1")
            return guided(scenario, candidate, **kwargs)

        monkeypatch.setattr(certificate, "run_schedule", misfit_without_choices)
        shrunk, _attempts = shrink(
            "ready-publish-race", choices, {"protocol-error"}
        )
        assert shrunk

    def test_shrink_refuses_non_reproducing_schedules(self):
        with pytest.raises(ValueError, match="does not reproduce"):
            shrink("ready-publish-race", (), {"protocol-error"})


class TestCLI:
    def test_scenarios_subcommand_lists_everything(self, capsys):
        from repro.cli import main

        assert main(["list", "scenarios"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert set(scenario_names()) <= set(out)

    def test_explore_writes_certificates_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        code = main(
            [
                "explore",
                "--scenario",
                "ready-publish-race",
                "--schedules",
                "64",
                "--workers",
                "1",
                "--cert-dir",
                str(tmp_path),
            ]
        )
        assert code == 1
        certs = sorted(tmp_path.glob("*.json"))
        assert certs
        # Shrinking is on by default: first certificate is minimal.
        cert = load_certificate(str(certs[0]))
        assert len(cert["choices"]) == 1

    def test_replay_exit_codes(self, tmp_path, capsys):
        from repro.cli import main

        buggy = make_certificate(
            "ready-publish-race", self.fifty_fifty(), rules={}
        )
        clean = make_certificate("ready-publish-race", ())
        buggy_path, clean_path = tmp_path / "bug.json", tmp_path / "ok.json"
        save_certificate(buggy, str(buggy_path))
        save_certificate(clean, str(clean_path))
        assert main(["replay", str(buggy_path)]) == 0  # bug reproduced
        assert main(["replay", str(clean_path)]) == 2  # clean run

    def fifty_fifty(self):
        return TestCertificates().violating_choices()
