"""Workload tests: grep (Fig 13a) and wordcount (Figs 13b/14)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.invocation import Granularity, WaitMode
from repro.machine import MachineConfig
from repro.system import System
from repro.workloads.grepwl import GrepWorkload
from repro.workloads.wordcount import WordcountWorkload


def grep_system():
    return System(config=MachineConfig(gpu_l2_lines=256))


def make_grep(**kwargs):
    defaults = dict(num_files=12, file_bytes=16384)
    defaults.update(kwargs)
    return GrepWorkload(grep_system(), **defaults)


class TestGrepCorrectness:
    def test_cpu_finds_expected_files(self):
        workload = make_grep()
        result = workload.run_cpu(threads=1)
        assert result.metrics["files_matched"] == sorted(workload.expected_matches)

    def test_openmp_finds_expected_files(self):
        workload = make_grep()
        result = workload.run_cpu(threads=4)
        assert result.metrics["files_matched"] == sorted(workload.expected_matches)

    def test_genesys_wi_finds_expected_files(self):
        workload = make_grep()
        result = workload.run_genesys(Granularity.WORK_ITEM, WaitMode.POLL)
        assert result.metrics["files_matched"] == sorted(workload.expected_matches)

    def test_genesys_halt_resume_finds_expected_files(self):
        workload = make_grep()
        result = workload.run_genesys(Granularity.WORK_ITEM, WaitMode.HALT_RESUME)
        assert result.metrics["files_matched"] == sorted(workload.expected_matches)

    def test_genesys_wg_finds_expected_files(self):
        workload = make_grep()
        result = workload.run_genesys(Granularity.WORK_GROUP, WaitMode.POLL)
        assert result.metrics["files_matched"] == sorted(workload.expected_matches)

    def test_matches_stream_to_console(self):
        workload = make_grep()
        workload.run_genesys(Granularity.WORK_ITEM, WaitMode.POLL)
        assert sorted(workload.console_lines()) == sorted(workload.expected_matches)

    def test_no_match_corpus(self):
        workload = make_grep(match_fraction=0.0)
        result = workload.run_cpu(threads=1)
        assert result.metrics["files_matched"] == []


class TestGrepShape:
    """Figure 13a: GENESYS beats the CPU versions; halt-resume edges
    polling at work-item granularity."""

    def test_openmp_beats_single_thread(self):
        single = make_grep(num_files=32, file_bytes=32768).run_cpu(threads=1)
        multi = make_grep(num_files=32, file_bytes=32768).run_cpu(threads=4)
        assert multi.runtime_ns < single.runtime_ns

    def test_genesys_beats_openmp_at_scale(self):
        # GENESYS overtakes OpenMP once per-file scan work amortises the
        # per-work-item syscall flood (the paper's corpus is larger
        # still); small files are syscall-bound, Figure 7's WI effect.
        params = dict(num_files=64, file_bytes=262144, chunk_bytes=131072)
        genesys = make_grep(**params).run_genesys(
            Granularity.WORK_ITEM, WaitMode.HALT_RESUME
        )
        openmp = make_grep(**params).run_cpu(threads=4)
        assert genesys.runtime_ns < openmp.runtime_ns

    def test_halt_resume_not_slower_than_polling(self):
        poll = make_grep(num_files=32, file_bytes=32768).run_genesys(
            Granularity.WORK_ITEM, WaitMode.POLL
        )
        halt = make_grep(num_files=32, file_bytes=32768).run_genesys(
            Granularity.WORK_ITEM, WaitMode.HALT_RESUME
        )
        assert halt.runtime_ns <= poll.runtime_ns


def make_wordcount(**kwargs):
    defaults = dict(num_files=12, file_bytes=32768)
    defaults.update(kwargs)
    return WordcountWorkload(System(), **defaults)


class TestWordcountCorrectness:
    def test_cpu_counts_match_expected(self):
        workload = make_wordcount()
        result = workload.run_cpu(4)
        expected = {k: v for k, v in workload.expected.items() if v}
        assert {k: v for k, v in result.metrics["counts"].items() if v} == expected

    def test_genesys_counts_match_expected(self):
        workload = make_wordcount()
        result = workload.run_genesys()
        expected = {k: v for k, v in workload.expected.items() if v}
        assert {k: v for k, v in result.metrics["counts"].items() if v} == expected

    def test_gpu_nosyscall_counts_match_expected(self):
        workload = make_wordcount()
        result = workload.run_gpu_nosyscall()
        expected = {k: v for k, v in workload.expected.items() if v}
        assert {k: v for k, v in result.metrics["counts"].items() if v} == expected

    def test_requires_disk(self):
        with pytest.raises(ValueError):
            WordcountWorkload(System(with_disk=False), num_files=2)


class TestWordcountShape:
    """Figure 13b/14: GENESYS ~6x over CPU; GPU-without-syscalls worst;
    GENESYS extracts much more disk throughput and a deeper queue."""

    @pytest.fixture(scope="class")
    def runs(self):
        out = {}
        for variant, runner in (
            ("cpu", lambda w: w.run_cpu(4)),
            ("nosys", lambda w: w.run_gpu_nosyscall()),
            ("genesys", lambda w: w.run_genesys()),
        ):
            system = System()
            workload = WordcountWorkload(system, num_files=24, file_bytes=65536)
            out[variant] = (system, runner(workload))
        return out

    def test_genesys_beats_cpu_by_factors(self, runs):
        cpu = runs["cpu"][1].runtime_ns
        genesys = runs["genesys"][1].runtime_ns
        assert cpu / genesys > 2.5  # paper reports ~6x at full scale

    def test_gpu_without_syscalls_is_worst(self, runs):
        assert runs["nosys"][1].runtime_ns > runs["cpu"][1].runtime_ns

    def test_genesys_disk_throughput_much_higher(self, runs):
        cpu_thpt = runs["cpu"][0].kernel.disk.achieved_throughput()
        genesys_thpt = runs["genesys"][0].kernel.disk.achieved_throughput()
        assert genesys_thpt > 2.5 * cpu_thpt

    def test_genesys_drives_deeper_io_queue(self, runs):
        assert (
            runs["genesys"][0].kernel.disk.max_queue_depth
            > runs["cpu"][0].kernel.disk.max_queue_depth
        )


class TestOnePassScans:
    """Each workload scans a chunk once for its whole word list; the
    results must equal one pass per word, the loops kept here."""

    @pytest.fixture(scope="class")
    def wordcount(self):
        return WordcountWorkload(System(), num_files=0)

    @pytest.fixture(scope="class")
    def grep(self):
        return GrepWorkload(System(), num_files=0)

    @staticmethod
    def chunks(words):
        cut = st.tuples(st.sampled_from(words), st.integers(1, 7), st.booleans()).map(
            lambda t: t[0][: t[1]] if t[2] else t[0][t[1] :]
        )
        piece = st.one_of(st.sampled_from(words), cut, st.binary(max_size=12))
        return st.lists(piece, max_size=40).map(b"".join)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_wordcount_equals_a_pass_per_word(self, wordcount, data):
        words = wordcount.words
        chunk = data.draw(self.chunks(words))
        seeded = data.draw(st.dictionaries(st.sampled_from(words), st.integers(1, 5)))
        expected = dict(seeded)
        for word in words:
            hits = chunk.count(word)
            if hits:
                expected[word] = expected.get(word, 0) + hits
        counts = dict(seeded)
        wordcount._count_words(chunk, counts)
        assert list(counts.items()) == list(expected.items())

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_grep_equals_an_in_test_per_word(self, grep, data):
        words = grep.words
        chunk = data.draw(self.chunks(words))
        assert grep._contains_word(chunk) == any(w in chunk for w in words)
