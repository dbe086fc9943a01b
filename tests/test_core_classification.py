"""Tests for the Section-IV syscall classification (Table II + the
79% / 13% / 8% headline split)."""

import pytest

from repro.core.classification import (
    Category,
    Group,
    IMPLEMENTED_IN_GENESYS,
    SYSCALL_TABLE,
    classify,
    count_by_category,
    fraction,
    summary,
    table2_rows,
    total_syscalls,
)


class TestHeadlineNumbers:
    def test_covers_linuxs_300_plus_syscalls(self):
        assert total_syscalls() >= 300

    def test_ready_fraction_near_79_percent(self):
        assert 0.76 <= fraction(Category.READY) <= 0.82

    def test_hw_changes_fraction_near_13_percent(self):
        assert 0.11 <= fraction(Category.HW_CHANGES) <= 0.15

    def test_extensive_fraction_near_8_percent(self):
        assert 0.06 <= fraction(Category.EXTENSIVE) <= 0.10

    def test_fractions_sum_to_one(self):
        total = sum(fraction(category) for category in Category)
        assert total == pytest.approx(1.0)

    def test_counts_match_total(self):
        assert sum(count_by_category().values()) == total_syscalls()

    def test_no_duplicate_names(self):
        names = [entry.name for entry in SYSCALL_TABLE]
        assert len(names) == len(set(names))


class TestClassify:
    def test_known_ready_calls(self):
        for name in ("read", "mmap", "sendto", "madvise", "ioctl"):
            assert classify(name).category is Category.READY

    def test_pread_alias(self):
        assert classify("pread").name == "pread64"
        assert classify("pwrite").name == "pwrite64"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            classify("not_a_syscall")

    def test_fork_needs_extensive_modification(self):
        assert classify("fork").category is Category.EXTENSIVE
        assert classify("execve").category is Category.EXTENSIVE

    def test_scheduling_needs_hw_changes(self):
        for name in ("sched_yield", "sched_setaffinity"):
            entry = classify(name)
            assert entry.category is Category.HW_CHANGES
            assert "scheduler" in entry.reason

    def test_signal_handling_needs_hw_changes(self):
        """Table II: sigaction-family calls need pause/resume of targeted
        work-items, which GPUs cannot do."""
        for name in ("rt_sigaction", "rt_sigsuspend", "rt_sigreturn", "rt_sigprocmask"):
            assert classify(name).category is Category.HW_CHANGES

    def test_signal_generation_is_ready(self):
        """...but *sending* signals works today (rt_sigqueueinfo)."""
        assert classify("rt_sigqueueinfo").category is Category.READY
        assert classify("kill").category is Category.READY

    def test_capabilities_and_namespaces_need_kernel_representation(self):
        for name in ("capget", "capset", "setns"):
            entry = classify(name)
            assert entry.category is Category.HW_CHANGES
            assert "representation" in entry.reason

    def test_arch_specific_calls(self):
        for name in ("ioperm", "iopl", "arch_prctl"):
            assert classify(name).category is Category.HW_CHANGES

    def test_ready_entries_have_no_reason(self):
        for entry in SYSCALL_TABLE:
            if entry.category is Category.READY:
                assert entry.reason is None
            else:
                assert entry.reason


class TestImplemented:
    def test_genesys_implements_at_least_14_plus_ioctl(self):
        assert len(IMPLEMENTED_IN_GENESYS) >= 15
        assert "ioctl" in IMPLEMENTED_IN_GENESYS

    def test_all_implemented_are_classified_ready(self):
        for name in IMPLEMENTED_IN_GENESYS:
            assert classify(name).category is Category.READY

    def test_paper_table1_syscalls_present(self):
        for name in (
            "madvise", "getrusage", "rt_sigqueueinfo", "read", "open",
            "close", "ioctl", "mmap", "pread", "sendto", "recvfrom",
        ):
            assert name in IMPLEMENTED_IN_GENESYS


class TestTable2:
    def test_rows_cover_paper_examples(self):
        examples = {row["example"] for row in table2_rows()}
        for name in ("capget", "setns", "set_mempolicy", "sched_yield", "ioperm"):
            assert name in examples
        assert not [
            entry for entry in SYSCALL_TABLE
            if entry.group is Group.SCHEDULING and entry.category is Category.READY
        ]

    def test_rows_have_reasons(self):
        assert all(row["reason"] for row in table2_rows())

    def test_summary_keys(self):
        info = summary()
        assert info["total"] == total_syscalls()
        assert info["ready_pct"] == pytest.approx(100 * fraction(Category.READY))
        assert sorted(info["implemented"]) == sorted(IMPLEMENTED_IN_GENESYS)
