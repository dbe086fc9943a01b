"""The seeded ordering-bug corpus: the model checker's proof of value.

Each bug is a two-half obligation: the FIFO schedule — the one every
deterministic run and therefore single-schedule GSan sees — must be
provably clean, and exploration must find a reordering GSan flags with
the expected rule, shrunk to a minimal certificate that replays.  A
bug failing the first half belongs in the GSan corpus instead; one
failing the second half is not caught by anything and must not ship as
"covered".
"""

import pytest

from repro.modelcheck.certificate import replay
from repro.modelcheck.corpus import ORDERING_BUGS, check_bug, check_corpus
from repro.modelcheck.explore import Bounds, explore, run_schedule

BUGS = {bug.name: bug for bug in ORDERING_BUGS}


class TestCorpusShape:
    def test_at_least_three_bug_classes(self):
        assert len(ORDERING_BUGS) >= 3
        rules = {bug.expected_rule for bug in ORDERING_BUGS}
        # Three distinct failure modes, not one bug three times.
        assert rules >= {
            "protocol-error",
            "lost-wakeup",
            "duplicate-completion",
        }

    def test_names_are_unique(self):
        names = [bug.name for bug in ORDERING_BUGS]
        assert len(names) == len(set(names))


class TestTwoHalves:
    @pytest.mark.parametrize("name", sorted(BUGS))
    def test_fifo_schedule_is_gsan_clean(self, name):
        # Half one: single-schedule GSan provably misses this bug — the
        # sanitizer watches the whole FIFO run and reports nothing.
        result = run_schedule(name, ())
        assert result["violations"] == [], "\n".join(result["violations"])
        assert result["ok"]
        assert BUGS[name].expected_rule not in result["rules"]

    @pytest.mark.parametrize("name", sorted(BUGS))
    def test_exploration_finds_the_expected_rule(self, name):
        report = explore(name, bounds=Bounds(max_schedules=256))
        rules = {rule for v in report.violating for rule in v["rules"]}
        assert BUGS[name].expected_rule in rules, (
            f"{name}: explored {report.schedules} schedules, hit {rules}"
        )

    @pytest.mark.parametrize("name", sorted(BUGS))
    def test_certificate_is_minimal_and_replays(self, name):
        report = check_bug(BUGS[name])
        assert report["fifo_clean"] and report["found"]
        assert report["replay_hits_rule"]
        cert = report["certificate"]
        # Minimal: each corpus bug is one reordered pop, so the shrunk
        # certificate pins exactly one non-FIFO choice.
        assert len(cert["choices"]) == 1
        replayed = replay(cert)
        assert BUGS[name].expected_rule in replayed["rules"]
        assert not replayed["ok"]

    def test_check_corpus_rolls_up_every_bug(self):
        reports = check_corpus()
        assert [r["bug"] for r in reports] == [b.name for b in ORDERING_BUGS]
        for report in reports:
            assert report["fifo_clean"], report["bug"]
            assert report["found"], report["bug"]
            assert report["replay_hits_rule"], report["bug"]


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
