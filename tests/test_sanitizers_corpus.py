"""The seeded violation corpus: every planted bug must be detected.

This is the sanitizer's own acceptance test — the issue demands at
least six distinct seeded bug classes, each caught with a timeline
diagnostic.
"""

import pytest

from repro.modelcheck.scenarios import run_cell
from repro.sanitizers.corpus import ENTRIES, distinct_rules, run_corpus


class TestCorpusDetection:
    @pytest.mark.parametrize("entry", ENTRIES, ids=[e.name for e in ENTRIES])
    def test_every_seeded_bug_is_detected(self, entry):
        verdict = run_cell(entry.build())
        assert entry.expected_rule in verdict.rules, (
            f"{entry.name}: expected {entry.expected_rule}, hit {verdict.rules}"
        )
        assert not verdict.ok

    def test_at_least_six_distinct_bug_classes(self):
        rules = distinct_rules()
        assert len(rules) >= 6, rules
        assert len(ENTRIES) >= 6

    def test_detected_entries_render_timelines(self):
        results = run_corpus(["dispatch-before-submit", "double-dequeue"])
        for result in results:
            assert result.detected
            text = result.render()
            assert "[DETECTED]" in text
            assert "VIOLATION" in text  # the annotated offender marker

    def test_run_corpus_selects_by_name(self):
        results = run_corpus(["wedged-slot"])
        assert [r.entry.name for r in results] == ["wedged-slot"]

    def test_fault_plan_entries_produce_diagnosable_violations(self):
        # The live (non-replayed) entries: a wedge with the watchdog off
        # must yield a violation whose timeline names real events.
        result = run_corpus(["wedged-slot"])[0]
        assert result.detected
        violation = next(
            v
            for v in result.verdict.sanitizer.violations
            if v.rule == result.entry.expected_rule
        )
        assert violation.timeline, "violation carries no event timeline"
        assert any("syscall" in name for _, name, _, _, _ in violation.timeline)
