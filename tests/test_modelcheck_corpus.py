"""The seeded-bug corpus: every planted bug is caught and certified.

This is the checked-run cell's own acceptance test.  A *visible* bug
must hit its rule on the FIFO schedule, the one every deterministic run
takes, with a timeline diagnostic, and the corpus keeps at least six
distinct rules.  An *ordering* bug is a two-half obligation: the FIFO
schedule must be provably clean, and exploration must find a reordering
GSan flags with the expected rule, shrunk to a minimal certificate that
replays.  An ordering bug failing the first half is a visible bug; one
failing the second is not caught by anything and must not ship as
"covered".
"""

import pytest

from repro.modelcheck.certificate import replay
from repro.modelcheck.corpus import CORPUS, ORDERING_BUGS, check_bug, check_corpus
from repro.modelcheck.explore import Bounds, explore, run_schedule
from repro.modelcheck.scenarios import build_scenario, run_cell

BUGS = {bug.name: bug for bug in CORPUS}
VISIBLE = [bug for bug in CORPUS if not bug.ordering]


class TestCorpusShape:
    def test_at_least_six_distinct_visible_rules(self):
        rules = {bug.expected_rule for bug in VISIBLE}
        assert len(rules) >= 6, rules
        assert len(VISIBLE) >= 6

    def test_at_least_three_ordering_bug_classes(self):
        assert len(ORDERING_BUGS) >= 3
        rules = {bug.expected_rule for bug in ORDERING_BUGS}
        # Three distinct failure modes, not one bug three times.
        assert rules >= {
            "protocol-error",
            "lost-wakeup",
            "duplicate-completion",
        }

    def test_names_are_unique(self):
        names = [bug.name for bug in CORPUS]
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("name", sorted(BUGS))
    def test_every_row_resolves_by_name(self, name):
        # ``replay`` and ``explore --scenario`` reach each row by name.
        assert build_scenario(name) is BUGS[name]


class TestVisibleBugs:
    @pytest.mark.parametrize("bug", VISIBLE, ids=[bug.name for bug in VISIBLE])
    def test_every_visible_bug_is_hit_on_fifo(self, bug):
        verdict = run_cell(bug.build())
        assert bug.expected_rule in verdict.rules, (
            f"{bug.name}: expected {bug.expected_rule}, hit {verdict.rules}"
        )
        assert not verdict.ok

    @pytest.mark.parametrize("name", ["dispatch-before-submit", "double-dequeue"])
    def test_replayed_certificate_renders_the_timeline(self, name):
        row = check_bug(BUGS[name])
        assert row["ok"] and row["certificate"]["choices"] == []
        replayed = replay(row["certificate"])
        assert not replayed["ok"]
        assert BUGS[name].expected_rule in replayed["rules"]
        text = "\n".join(replayed["violations"])
        assert "<< VIOLATION" in text  # the annotated offender marker

    def test_fault_plan_bugs_produce_diagnosable_violations(self):
        # The live (non-replayed) rows: a wedge with the watchdog off
        # must yield a violation whose timeline names real events.
        bug = BUGS["wedged-slot"]
        verdict = run_cell(bug.build())
        violation = next(
            v for v in verdict.sanitizer.violations if v.rule == bug.expected_rule
        )
        assert violation.timeline, "violation carries no event timeline"
        assert any("syscall" in name for _, name, _, _, _ in violation.timeline)


class TestOrderingBugs:
    @pytest.mark.parametrize("name", sorted(bug.name for bug in ORDERING_BUGS))
    def test_fifo_schedule_is_gsan_clean(self, name):
        # Half one: single-schedule GSan provably misses this bug — the
        # sanitizer watches the whole FIFO run and reports nothing.
        result = run_schedule(name, ())
        assert result["violations"] == [], "\n".join(result["violations"])
        assert result["ok"]
        assert BUGS[name].expected_rule not in result["rules"]

    @pytest.mark.parametrize("name", sorted(bug.name for bug in ORDERING_BUGS))
    def test_exploration_finds_the_expected_rule(self, name):
        report = explore(name, bounds=Bounds(max_schedules=256))
        rules = {rule for v in report.violating for rule in v["rules"]}
        assert BUGS[name].expected_rule in rules, (
            f"{name}: explored {report.schedules} schedules, hit {rules}"
        )

    @pytest.mark.parametrize("name", sorted(bug.name for bug in ORDERING_BUGS))
    def test_certificate_is_minimal_and_replays(self, name):
        report = check_bug(BUGS[name])
        assert report["fifo_clean"] and report["found"]
        assert report["replay_hits_rule"] and report["ok"]
        cert = report["certificate"]
        # Minimal: each ordering bug is one reordered pop, so the shrunk
        # certificate pins exactly one non-FIFO choice.
        assert len(cert["choices"]) == 1
        replayed = replay(cert)
        assert BUGS[name].expected_rule in replayed["rules"]
        assert not replayed["ok"]


def test_check_corpus_rolls_up_every_bug():
    rows = check_corpus()
    assert [row["bug"] for row in rows] == [bug.name for bug in CORPUS]
    for row in rows:
        assert row["ok"], row["bug"]
        assert row["found"] and row["replay_hits_rule"], row["bug"]
        assert row["fifo_clean"] == row["ordering"], row["bug"]
        choices = row["certificate"]["choices"]
        assert len(choices) == (1 if row["ordering"] else 0), row["bug"]


class TestAuditAttribution:
    def test_leaked_slot_names_the_acting_agent(self):
        # The lost-doorbell counterexample wedges a slot in READY; the
        # end-of-run audit must say who drove it there, not just that
        # it leaked — that attribution is what makes the certificate
        # timeline actionable.
        report = check_bug(BUGS["lost-doorbell"])
        replayed = replay(report["certificate"])
        leaks = [v for v in replayed["violations"] if "slot-leak" in v]
        assert leaks
        assert any("last driven by gpu" in leak for leak in leaks)

    def test_watchdog_race_marks_the_reclaim(self):
        report = check_bug(BUGS["watchdog-finish-race"])
        replayed = replay(report["certificate"])
        assert "duplicate-completion" in replayed["rules"]
        # The watchdog's reclaim is on the violation evidence: the
        # second completion names reclaim/watchdog involvement.
        text = "\n".join(replayed["violations"])
        assert "reclaim" in text or "watchdog" in text
