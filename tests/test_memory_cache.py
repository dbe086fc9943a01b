"""Unit tests for the set-associative cache model and line math."""

import pytest

from repro.memory.cache import Cache, lines_covering, line_of


class TestLineMath:
    def test_line_of(self):
        assert line_of(0) == 0
        assert line_of(63) == 0
        assert line_of(64) == 1
        assert line_of(6400) == 100

    def test_line_of_negative_rejected(self):
        with pytest.raises(ValueError):
            line_of(-1)

    def test_lines_covering_single(self):
        assert lines_covering(0, 1) == [0]
        assert lines_covering(10, 50) == [0]

    def test_lines_covering_span(self):
        assert lines_covering(60, 10) == [0, 1]
        assert lines_covering(0, 129) == [0, 1, 2]

    def test_lines_covering_empty(self):
        assert lines_covering(0, 0) == []

    def test_custom_line_size(self):
        assert lines_covering(0, 10, line_bytes=4) == [0, 1, 2]


class TestCacheConstruction:
    def test_zero_lines_rejected(self):
        with pytest.raises(ValueError):
            Cache(0)

    def test_bad_associativity_rejected(self):
        with pytest.raises(ValueError):
            Cache(8, associativity=0)

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError):
            Cache(10, associativity=4)

    def test_associativity_clamped_to_size(self):
        cache = Cache(4, associativity=16)
        assert cache.associativity == 4
        assert cache.num_sets == 1


class TestCacheBehaviour:
    def test_miss_then_hit(self):
        cache = Cache(64)
        assert cache.access(5) is False
        assert cache.access(5) is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_lru_eviction_within_set(self):
        cache = Cache(2, associativity=2)  # one set of two ways
        cache.access(0)
        cache.access(1)
        cache.access(0)  # 0 is now MRU
        cache.access(2)  # evicts 1
        assert cache.contains(0)
        assert not cache.contains(1)
        assert cache.contains(2)

    def test_set_indexing_isolates_sets(self):
        cache = Cache(4, associativity=2)  # 2 sets
        cache.access(0)  # set 0
        cache.access(2)  # set 0
        cache.access(4)  # set 0 — evicts 0
        assert not cache.contains(0)
        cache.access(1)  # set 1 untouched by the above
        assert cache.contains(1)

    def test_working_set_fits_no_steady_state_misses(self):
        cache = Cache(64, associativity=8)
        lines = list(range(32))
        for line in lines:
            cache.access(line)
        start_misses = cache.stats.misses
        for _ in range(10):
            for line in lines:
                assert cache.access(line) is True
        assert cache.stats.misses == start_misses

    def test_working_set_exceeding_capacity_thrashes(self):
        cache = Cache(8, associativity=8)
        lines = list(range(16))
        for _ in range(3):
            for line in lines:
                cache.access(line)
        # Sequential sweep over 2x capacity with LRU: every access misses.
        assert cache.stats.hits == 0

    def test_invalidate(self):
        cache = Cache(16)
        cache.access(3)
        assert cache.invalidate(3) is True
        assert cache.invalidate(3) is False
        assert not cache.contains(3)
        assert cache.stats.invalidations == 1

    def test_flush_range(self):
        cache = Cache(64)
        for line in range(4):
            cache.access(line)
        assert cache.flush_range(0, 128) == 2
        assert not cache.contains(0)
        assert cache.contains(3)

    def test_resident_lines(self):
        cache = Cache(16)
        for line in range(5):
            cache.access(line)
        assert cache.resident_lines == 5

    def test_hit_rate(self):
        cache = Cache(16)
        cache.access(1)
        cache.access(1)
        cache.access(1)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_hit_rate_empty(self):
        assert Cache(16).stats.hit_rate == 0.0
