"""repro.lint: the determinism/consistency static pass.

Two halves: the shipped tree must be clean, and each hazard class must
actually be caught — a lint rule that never fires on its own fixture
is dead code.
"""

from pathlib import Path

import pytest

from repro.sanitizers.lint import run_lint

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lint"


def codes_for(path: Path):
    return [finding.code for finding in run_lint([path])]


class TestShippedTreeClean:
    def test_src_repro_is_lint_clean(self):
        findings = run_lint([SRC])
        assert findings == [], "\n".join(f.render() for f in findings)


class TestHazardFixtures:
    @pytest.mark.parametrize(
        "fixture, code",
        [
            ("sim/det001_wall_clock.py", "DET001"),
            ("sim/det002_random.py", "DET002"),
            ("core/det003_set_iteration.py", "DET003"),
            ("core/det004_id_ordering.py", "DET004"),
            ("tp001_unknown_tracepoint.py", "TP001"),
            ("tp002_arity_mismatch.py", "TP002"),
            ("err001_unknown_errno.py", "ERR001"),
            ("slot001_missing_slots.py", "SLOT001"),
            ("sched001_direct_heap.py", "SCHED001"),
            ("imp001_unused_import.py", "IMP001"),
        ],
    )
    def test_each_hazard_class_is_caught(self, fixture, code):
        findings = run_lint([FIXTURES / fixture])
        assert code in [f.code for f in findings], (
            f"{fixture} should trip {code}; got "
            + "\n".join(f.render() for f in findings)
        )

    def test_det001_flags_both_import_forms(self):
        codes = codes_for(FIXTURES / "sim" / "det001_wall_clock.py")
        assert codes.count("DET001") == 2  # import time + from datetime

    def test_det003_does_not_flag_sorted_wrapping(self):
        findings = run_lint([FIXTURES / "core" / "det003_set_iteration.py"])
        flagged_lines = {f.line for f in findings}
        text = (FIXTURES / "core" / "det003_set_iteration.py").read_text()
        sorted_line = next(
            i
            for i, line in enumerate(text.splitlines(), start=1)
            if "sorted(set(items))" in line
        )
        assert sorted_line not in flagged_lines

    def test_det004_spares_insertion_ordered_dict_keys(self):
        findings = run_lint([FIXTURES / "core" / "det004_id_ordering.py"])
        # Three hazards in bad(); the id()-keyed dict in fine() is legal.
        assert [f.code for f in findings] == ["DET004"] * 3

    def test_imp001_spares_exports_and_annotations(self):
        # Only json is unused: OrderedDict is in __all__, and Path is
        # used by a quoted annotation under TYPE_CHECKING.
        findings = run_lint([FIXTURES / "imp001_unused_import.py"])
        assert [f.message for f in findings] == [
            "'json' is imported but never used"
        ]

    def test_determinism_rules_scoped_to_zones(self):
        # The same wall-clock import outside sim/core/oskernel is not a
        # finding: reporting layers may timestamp things.
        out_of_zone = FIXTURES / "tp001_unknown_tracepoint.py"
        assert "DET001" not in codes_for(out_of_zone)

    def test_allow_pragma_suppresses_in_place(self):
        findings = run_lint([FIXTURES / "sim" / "allow_pragma.py"])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_sched001_catches_every_mutation_form(self):
        findings = run_lint([FIXTURES / "sched001_direct_heap.py"])
        sched = [f for f in findings if f.code == "SCHED001"]
        # Exactly the six hazards in bad(); fine() uses the engine API,
        # a non-_heap heapq push, a pragma, and a read.
        assert len(sched) == 6, "\n".join(f.render() for f in sched)

    def test_sched001_applies_outside_determinism_zones(self):
        # Unlike DET*, heap mutation is a finding anywhere — a plugin
        # or reporting layer poking a _heap breaks the model checker
        # just as thoroughly as core code doing it.
        findings = run_lint([FIXTURES / "sched001_direct_heap.py"])
        assert any(f.code == "SCHED001" for f in findings)

    def test_sched001_exempts_only_the_engine_itself(self):
        engine = SRC / "sim" / "engine.py"
        assert "SCHED001" not in codes_for(engine)
        # Nothing else under src/ touches the heap, pragma or not.
        pragmas = [
            path
            for path in SRC.rglob("*.py")
            if "allow(SCHED001)" in path.read_text()
        ]
        assert pragmas == []

    def test_whole_fixture_dir_reports_every_class(self):
        findings = run_lint([FIXTURES])
        codes = {f.code for f in findings}
        assert codes >= {
            "DET001", "DET002", "DET003", "DET004",
            "TP001", "TP002", "ERR001", "SLOT001", "SCHED001", "IMP001",
        }
        # Findings are sorted and carry renderable locations.
        rendered = [f.render() for f in findings]
        assert rendered == sorted(rendered) or all(
            ":" in line for line in rendered
        )
        for finding in findings:
            assert finding.line > 0
            assert finding.path.endswith(".py")
