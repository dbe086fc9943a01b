"""Tests for workload plumbing: the deterministic PRNG and results."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.base import DeterministicRandom, WorkloadResult


class TestDeterministicRandom:
    def test_same_seed_same_stream(self):
        first = DeterministicRandom(42)
        second = DeterministicRandom(42)
        assert [first.next_u64() for _ in range(10)] == [
            second.next_u64() for _ in range(10)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRandom(1)
        b = DeterministicRandom(2)
        assert [a.next_u64() for _ in range(4)] != [b.next_u64() for _ in range(4)]

    def test_zero_seed_survives(self):
        rng = DeterministicRandom(0)
        values = {rng.next_u64() for _ in range(10)}
        assert len(values) == 10  # xorshift with state 0 would be stuck

    @given(st.integers(min_value=1, max_value=2**32), st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_randint_in_range(self, seed, span):
        rng = DeterministicRandom(seed)
        lo, hi = 10, 10 + span
        for _ in range(20):
            value = rng.randint(lo, hi)
            assert lo <= value <= hi

    def test_randint_bad_range(self):
        with pytest.raises(ValueError):
            DeterministicRandom(1).randint(5, 4)

    def test_random_unit_interval(self):
        rng = DeterministicRandom(7)
        for _ in range(100):
            assert 0.0 <= rng.random() < 1.0

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_bytes_length(self, n):
        assert len(DeterministicRandom(3).bytes(n)) == n

    @pytest.mark.parametrize("seed", [0, 1, 42, 2**64 - 1])
    def test_bytes_is_the_next_u64_stream(self, seed):
        """``bytes(n)`` is the little-endian ``next_u64`` stream cut to
        n bytes, and leaves the generator where that loop would: on
        both sides of the vectorised path's cut-over and its lane
        counts."""
        sizes = (1, 7, 8, 8191, 8192, 8193, 65535, 65536, 65537, 262144, 8 * 2**20 + 3)
        reference = DeterministicRandom(seed)
        words = [reference.next_u64() for _ in range((max(sizes) + 7) // 8 + 1)]
        stream = b"".join(word.to_bytes(8, "little") for word in words)
        for n in sizes:
            rng = DeterministicRandom(seed)
            assert rng.bytes(n) == stream[:n], n
            assert rng.next_u64() == words[(n + 7) // 8], n

    def test_text_is_lowercase_ascii(self):
        text = DeterministicRandom(5).text(256)
        assert all(97 <= b <= 122 for b in text)

    def test_choice(self):
        rng = DeterministicRandom(9)
        options = ["a", "b", "c"]
        for _ in range(20):
            assert rng.choice(options) in options


class TestWorkloadResult:
    def test_runtime_ms(self):
        result = WorkloadResult("w", "v", 2_500_000.0)
        assert result.runtime_ms == pytest.approx(2.5)

    def test_metrics_default(self):
        result = WorkloadResult("w", "v", 0.0)
        assert result.metrics == {}

    def test_repr_contains_names(self):
        result = WorkloadResult("wl", "var", 1e6, {"k": 1})
        assert "wl/var" in repr(result)
