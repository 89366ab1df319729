"""RowCache edge-case semantics the replay engine must also honor.

These pin the oracle's behavior (``tests/oracles.py``) for the three tricky
cases — streaming rows, resize-on-reaccess, and eviction order under mixed
sizes — and check the vectorized engine reproduces each one where it
applies (resize-on-reaccess needs per-access sizes, which no replay of the
simulator produces).
"""

import numpy as np

from oracles import RowCache
from repro.memory.replay import replay_trace


def stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.hit_lines, stats.miss_lines)


class TestStreamingRows:
    """A row larger than the whole cache streams through, never installed."""

    def test_rowcache_never_installs_oversized_row(self):
        cache = RowCache(8)
        assert not cache.access(0, 16)
        assert cache.used_lines == 0
        assert not cache.contains(0)
        # Re-accessing misses again, paying the full transfer both times.
        assert not cache.access(0, 16)
        assert cache.stats.miss_lines == 32
        assert cache.stats.hits == 0

    def test_oversized_row_does_not_evict_residents(self):
        cache = RowCache(8)
        cache.access(1, 4)
        cache.access(0, 16)  # streams
        assert cache.contains(1)
        assert cache.access(1, 4)  # still a hit

    def test_engine_matches_streaming_semantics(self):
        trace = np.asarray([1, 0, 1, 0, 1], dtype=np.int64)
        sizes = np.asarray([16, 4], dtype=np.int64)  # row 0 streams
        got = replay_trace(trace, sizes, 8)
        cache = RowCache(8)
        cache.access_trace(trace, sizes)
        assert stats_tuple(got) == stats_tuple(cache.stats)
        assert got.hits == 2  # only row 1's re-accesses hit


class TestResizeOnReaccess:
    """Re-access with a larger size misses for the delta only."""

    def test_delta_miss_accounting(self):
        cache = RowCache(32)
        cache.access(0, 4)
        assert cache.stats.miss_lines == 4
        hit = cache.access(0, 10)
        assert not hit
        # Only the 6 new lines are fetched; the cached 4 count as hit lines.
        assert cache.stats.miss_lines == 4 + 6
        assert cache.stats.hit_lines == 4
        assert cache.used_lines == 10

    def test_smaller_reaccess_is_hit_and_keeps_size(self):
        cache = RowCache(32)
        cache.access(0, 10)
        assert cache.access(0, 3)
        assert cache.stats.hit_lines == 3
        assert cache.used_lines == 10  # the larger footprint is retained

    def test_resize_eviction_makes_room(self):
        cache = RowCache(10)
        cache.access(0, 4)
        cache.access(1, 4)
        cache.access(1, 8)  # grows; row 0 must be evicted to fit
        assert not cache.contains(0)
        assert cache.contains(1)
        assert cache.used_lines == 8


class TestEvictionOrderMixedSizes:
    """LRU eviction discards least-recently-used rows until the miss fits."""

    def test_eviction_is_lru_and_size_aware(self):
        cache = RowCache(12)
        cache.access(0, 6)
        cache.access(1, 4)
        cache.access(2, 2)  # full: 0(6) 1(4) 2(2)
        cache.access(0, 6)  # refresh 0; LRU order now 1, 2, 0
        cache.access(3, 5)  # needs 5: evicts 1(4) then 2(2)
        assert not cache.contains(1)
        assert not cache.contains(2)
        assert cache.contains(0) and cache.contains(3)
        assert cache.used_lines == 11

    def test_engine_matches_mixed_size_eviction(self):
        # Deterministic mixed-size pattern exercising the same order.
        trace = np.asarray([0, 1, 2, 0, 3, 1, 2, 0, 3, 2, 1, 0], dtype=np.int64)
        sizes = np.asarray([6, 4, 2, 5], dtype=np.int64)
        for capacity in (7, 10, 12, 17):
            got = replay_trace(trace, sizes, capacity)
            cache = RowCache(capacity)
            cache.access_trace(trace, sizes)
            assert stats_tuple(got) == stats_tuple(cache.stats), capacity

    def test_engine_matches_adversarial_random_mixes(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            num_rows = int(rng.integers(2, 12))
            trace = rng.integers(0, num_rows, size=int(rng.integers(10, 200)))
            sizes = rng.integers(1, 10, size=num_rows).astype(np.int64)
            capacity = int(rng.integers(2, 25))
            got = replay_trace(trace.astype(np.int64), sizes, capacity)
            cache = RowCache(capacity)
            cache.access_trace(trace.astype(np.int64), sizes)
            assert stats_tuple(got) == stats_tuple(cache.stats)
