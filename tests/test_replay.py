"""Unit tests of the vectorized trace-replay engine (repro.memory.replay)."""

import numpy as np
import pytest

from oracles import RowCache, pinned_partition_replay, replay_structure_reference
from repro import telemetry
from repro.errors import ConfigurationError
from repro.memory.replay import (
    ROUTES,
    ReplayEngine,
    TraceCache,
    _previous_occurrences,
    array_token,
    replay_trace,
)
from repro.memory.rowcache import RowCacheStats


def stats_tuple(stats: RowCacheStats):
    return (stats.accesses, stats.hits, stats.misses, stats.hit_lines, stats.miss_lines)


def reference_stats(trace, sizes, capacity):
    cache = RowCache(capacity)
    cache.access_trace(trace, sizes)
    return cache.stats


def brute_force_previous(trace):
    """Previous occurrence of each access's row, one access at a time."""
    last, previous = {}, []
    for position, row in enumerate(trace.tolist()):
        previous.append(last.get(row, -1))
        last[row] = position
    return np.asarray(previous, dtype=np.int64)


def brute_force_distinct(trace):
    """Distinct rows strictly between each access and its previous occurrence."""
    counts = np.zeros(trace.size, dtype=np.int64)
    for position, previous in enumerate(brute_force_previous(trace).tolist()):
        if previous >= 0:
            counts[position] = len(set(trace[previous + 1 : position].tolist()))
    return counts


class TestReplayEquivalence:
    def test_randomized_traces_match_rowcache(self):
        rng = np.random.default_rng(0)
        for trial in range(150):
            num_rows = int(rng.integers(1, 50))
            length = int(rng.integers(0, 500))
            trace = rng.integers(0, num_rows, size=length).astype(np.int64)
            sizes = rng.integers(1, 14, size=num_rows).astype(np.int64)
            if trial % 3 == 0:
                # A row larger than the whole cache streams through.
                sizes[int(rng.integers(0, num_rows))] = 10_000
            capacity = int(rng.integers(1, 80))
            got = replay_trace(trace, sizes, capacity)
            want = reference_stats(trace, sizes, capacity)
            assert stats_tuple(got) == stats_tuple(want)

    def test_empty_trace(self):
        stats = replay_trace(np.zeros(0, dtype=np.int64), np.asarray([4]), 16)
        assert stats_tuple(stats) == (0, 0, 0, 0, 0)

    def test_single_access_misses(self):
        stats = replay_trace(np.asarray([3]), np.asarray([1, 1, 1, 5]), 16)
        assert stats_tuple(stats) == (1, 0, 1, 0, 5)

    def test_all_hits_when_everything_fits(self):
        trace = np.asarray([0, 1, 2, 0, 1, 2], dtype=np.int64)
        sizes = np.asarray([2, 2, 2], dtype=np.int64)
        stats = replay_trace(trace, sizes, 64)
        assert stats.hits == 3
        assert stats.hit_lines == 6
        assert stats.miss_lines == 6

    def test_float64_sums_are_bounded_exactly(self):
        # Four accesses build a two-level tree, so the float64 sums are exact
        # while 2 x total lines < 2**53; at the bound the engine refuses
        # rather than returning rounded stats.
        trace = np.asarray([0, 1, 0, 1], dtype=np.int64)
        below = np.full(2, 2**50 - 1, dtype=np.int64)
        capacity = 2**51
        got = replay_trace(trace, below, capacity)
        assert stats_tuple(got) == stats_tuple(reference_stats(trace, below, capacity))
        assert got.hits == 2
        # A uniform table is settled by the distinct-row bounds alone, and the
        # check still runs first.
        engine = ReplayEngine(trace)
        engine.evaluate([below], [capacity])
        assert engine.routes["by_bounds"] == 1
        with pytest.raises(ConfigurationError, match="2\\*\\*53"):
            engine.evaluate([np.full(2, 2**50, dtype=np.int64)], [capacity])
        with pytest.raises(ConfigurationError, match="2\\*\\*53"):
            replay_trace(trace, np.full(2, 2**50, dtype=np.int64), capacity)

    def test_row_ids_must_fit_the_int32_segment(self):
        for trace in ([0, -1, 0], [0, 2**31, 0]):
            with pytest.raises(ConfigurationError, match="row ids"):
                ReplayEngine(np.asarray(trace, dtype=np.int64))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            replay_trace(np.asarray([0]), np.asarray([1]), 0)

    def test_zero_capacity_equivalent_thrashing(self):
        # Working set exceeds the cache: every access misses, like RowCache.
        trace = np.tile(np.arange(8, dtype=np.int64), 10)
        sizes = np.full(8, 4, dtype=np.int64)
        got = replay_trace(trace, sizes, 8)
        want = reference_stats(trace, sizes, 8)
        assert stats_tuple(got) == stats_tuple(want)
        assert got.hits == 0


class TestReplayManyAndMemo:
    def test_replay_many_matches_individual_replays(self):
        rng = np.random.default_rng(1)
        trace = rng.integers(0, 64, size=800).astype(np.int64)
        engine = ReplayEngine(trace)
        tables = [rng.integers(1, 9, size=64).astype(np.int64) for _ in range(4)]
        batched = engine.evaluate(tables, [100])
        for table, (got,) in zip(tables, batched):
            assert stats_tuple(got) == stats_tuple(
                reference_stats(trace, table, 100)
            )

    def test_memo_hits_for_repeated_tables(self):
        rng = np.random.default_rng(2)
        trace = rng.integers(0, 32, size=400).astype(np.int64)
        engine = ReplayEngine(trace)
        table = rng.integers(1, 6, size=32).astype(np.int64)
        ((first,),) = engine.evaluate([table], [50])
        ((again,),) = engine.evaluate([table.copy()], [50])
        assert engine.memo_hits == 1
        assert stats_tuple(first) == stats_tuple(again)
        # A different capacity is a different memo entry.
        engine.evaluate([table], [51])
        assert engine.memo_hits == 1

    def test_pinned_rows_always_hit(self):
        rng = np.random.default_rng(3)
        trace = rng.integers(0, 40, size=1000).astype(np.int64)
        sizes = rng.integers(1, 8, size=40).astype(np.int64)
        pinned = np.asarray([1, 5, 17], dtype=np.int64)
        ((got,),) = ReplayEngine(trace).evaluate([sizes], [30], pinned)
        want = pinned_partition_replay(trace, sizes, 30, pinned)
        assert stats_tuple(got) == stats_tuple(want)
        assert got.hits >= int(np.isin(trace, pinned).sum())


def _adversarial_cases(rng):
    """Seeded ``(name, trace, sizes)`` triples covering replay edge cases."""
    num_rows = 24
    sizes = rng.integers(1, 9, size=num_rows).astype(np.int64)
    oversized = sizes.copy()
    oversized[rng.choice(num_rows, size=4, replace=False)] = 10_000
    random_trace = rng.integers(0, num_rows, size=300).astype(np.int64)
    return [
        ("empty", np.zeros(0, dtype=np.int64), sizes),
        ("all-repeat", np.full(200, 7, dtype=np.int64), sizes),
        ("all-unique", rng.permutation(num_rows).astype(np.int64), sizes),
        ("oversized-rows", random_trace, oversized),
        ("random", random_trace, sizes),
        ("hot-rows", rng.choice(4, size=250).astype(np.int64), sizes),
    ]


def _pinned_sets(rng, trace, num_rows):
    """No pinned set, some present rows, every row, and absent ids only."""
    present = np.unique(trace)
    some = (
        rng.choice(present, size=max(1, present.size // 3), replace=False)
        if present.size
        else np.zeros(0, dtype=np.int64)
    )
    return [
        None,
        np.asarray(some, dtype=np.int64),
        np.arange(num_rows, dtype=np.int64),
        np.asarray([num_rows + 5, num_rows + 90], dtype=np.int64),
    ]


class TestOracleFuzz:
    """The one evaluation call against the per-access oracles.

    Every combination of adversarial trace, pinned set, and capacity vector
    (including capacity 1 and capacities below the largest row) must equal
    the :class:`RowCache` oracle (no pinned set) or the pinned-partition
    loop, capacity by capacity.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_evaluate_matches_oracles(self, seed):
        rng = np.random.default_rng(seed)
        for name, trace, sizes in _adversarial_cases(rng):
            tables = [sizes, np.maximum(1, sizes[::-1].copy())]
            capacities = [1, 3, int(rng.integers(4, 40)), 64, 1, 10_000]
            for pinned in _pinned_sets(rng, trace, sizes.size):
                got = ReplayEngine(trace).evaluate(tables, capacities, pinned)
                assert len(got) == len(tables)
                for table, per_table in zip(tables, got):
                    assert len(per_table) == len(capacities)
                    for capacity, stats in zip(capacities, per_table):
                        if pinned is None:
                            want = reference_stats(trace, table, capacity)
                        else:
                            want = pinned_partition_replay(
                                trace, table, capacity, pinned
                            )
                        assert stats_tuple(stats) == stats_tuple(want), (
                            name,
                            capacity,
                            None if pinned is None else pinned.tolist(),
                        )

    def test_every_row_pinned_is_all_hits(self):
        trace = np.asarray([0, 1, 2, 0, 1, 2, 3], dtype=np.int64)
        sizes = np.asarray([2, 3, 4, 50], dtype=np.int64)
        ((stats,),) = ReplayEngine(trace).evaluate(
            [sizes], [1], np.arange(4, dtype=np.int64)
        )
        assert stats_tuple(stats) == (7, 7, 0, int(sizes[trace].sum()), 0)

    def test_absent_pinned_ids_change_nothing(self):
        rng = np.random.default_rng(5)
        trace = rng.integers(0, 16, size=200).astype(np.int64)
        sizes = rng.integers(1, 6, size=16).astype(np.int64)
        engine = ReplayEngine(trace)
        (plain,) = engine.evaluate([sizes], [12, 40])
        (absent,) = engine.evaluate([sizes], [12, 40], np.asarray([99, 100]))
        assert [stats_tuple(s) for s in plain] == [stats_tuple(s) for s in absent]


def pinned_engine(trace):
    """An engine whose first evaluation is pinned, so its walk keeps the tree."""
    engine = ReplayEngine(trace)
    rows = int(trace.max()) + 1 if trace.size else 1
    engine.evaluate([np.ones(rows, dtype=np.int64)], [1], np.asarray([0]))
    return engine


def _boundary_traces(rng):
    """Random traces of length 2**k - 1, 2**k and 2**k + 1 for k = 1..11."""
    for k in range(1, 12):
        for length in (2**k - 1, 2**k, 2**k + 1):
            num_rows = int(rng.integers(1, max(2, length // 2) + 1))
            yield rng.integers(0, num_rows, size=length).astype(np.int64)


class TestStructureConstruction:
    """The top-down tree build against the composite-key reference."""

    STRUCTURE = ("_segment", "_qpos", "_lo", "_run_hi", "_run_length")

    def assert_same_structure(self, trace):
        engine = pinned_engine(trace)
        want = replay_structure_reference(trace)
        if not np.any(_previous_occurrences(trace) >= 0):
            # No repeat access can be open, so no tree is written.
            assert engine.memo_stats()["trees"] == 0, trace.size
            assert all(not want[name].size for name in self.STRUCTURE)
            return
        assert engine.memo_stats()["trees"] == 1, trace.size
        for name in self.STRUCTURE:
            got = getattr(engine, name)
            assert got.dtype == want[name].dtype, (trace.size, name)
            assert np.array_equal(got, want[name]), (trace.size, name)

    def test_adversarial_cases(self):
        for _, trace, _ in _adversarial_cases(np.random.default_rng(0)):
            self.assert_same_structure(trace)

    def test_power_of_two_boundary_lengths(self):
        for trace in _boundary_traces(np.random.default_rng(1)):
            self.assert_same_structure(trace)

    def test_long_trace_over_few_rows(self):
        rng = np.random.default_rng(2)
        self.assert_same_structure(rng.integers(0, 6, size=5000).astype(np.int64))

    def test_boundary_lengths_match_rowcache(self):
        rng = np.random.default_rng(3)
        for trace in _boundary_traces(rng):
            sizes = rng.integers(1, 9, size=int(trace.max()) + 1).astype(np.int64)
            capacities = [1, 4, 12, 40]
            (got,) = ReplayEngine(trace).evaluate([sizes], capacities)
            for capacity, stats in zip(capacities, got):
                want = reference_stats(trace, sizes, capacity)
                assert stats_tuple(stats) == stats_tuple(want), (trace.size, capacity)

    def test_distinct_counts_match_brute_force(self):
        rng = np.random.default_rng(5)
        cases = [trace for _, trace, _ in _adversarial_cases(rng)]
        cases += list(_boundary_traces(rng))
        for trace in cases:
            # A uniform table walks for D alone; a pinned one writes the tree
            # too.  Both count the same D.
            uniform = ReplayEngine(trace)
            uniform.evaluate([np.ones(int(trace.max(initial=0)) + 1)], [1])
            want = brute_force_distinct(trace)
            for engine in (uniform, pinned_engine(trace)):
                assert engine._distinct.dtype == np.int32
                assert np.array_equal(engine._distinct, want), trace.size

    def test_row_ids_past_16_bits_take_the_general_sort(self):
        # Row ids below 2**16 sort as uint16 keys (by radix); larger ids sort
        # as they are.  Both give the same links, counts and statistics.
        rng = np.random.default_rng(6)
        for trace in _boundary_traces(rng):
            wide = trace + 2**16 + 7
            want = brute_force_previous(trace)
            assert np.array_equal(_previous_occurrences(trace), want)
            assert np.array_equal(_previous_occurrences(wide), want)
            narrow_engine, wide_engine = pinned_engine(trace), pinned_engine(wide)
            trees = narrow_engine.memo_stats()["trees"]
            assert wide_engine.memo_stats()["trees"] == trees
            names = ("_distinct", "_qpos", "_lo", "_run_hi", "_run_length")
            for name in names if trees else names[:1]:
                assert np.array_equal(
                    getattr(narrow_engine, name), getattr(wide_engine, name)
                ), (trace.size, name)
            sizes = rng.integers(1, 9, size=int(wide.max()) + 1).astype(np.int64)
            (got,) = wide_engine.evaluate([sizes], [4, 40])
            for capacity, stats in zip([4, 40], got):
                want_stats = reference_stats(wide, sizes, capacity)
                assert stats_tuple(stats) == stats_tuple(want_stats), trace.size

    def test_structure_bytes_counts_every_array(self):
        # Every array the engine owns, and not the trace it borrows: the
        # trace cache holds that array as an entry of its own, so the cache's
        # bytes gauge counts each buffer once.
        trace = np.random.default_rng(4).integers(0, 30, size=700).astype(np.int64)
        engine = ReplayEngine(trace)
        assert engine.trace is trace
        owned = [
            value
            for name, value in vars(engine).items()
            if isinstance(value, np.ndarray) and name != "trace"
        ]
        assert engine.structure_bytes() == sum(array.nbytes for array in owned)
        cache = TraceCache()
        cache.get(("trace",), lambda: trace)
        cache.get(("engine",), lambda: engine)
        assert cache.stats()["bytes"] == trace.nbytes + engine.structure_bytes()
        assert not hasattr(engine, "prev")
        assert engine._prev_plus1.dtype == np.int32

    def test_uniform_tables_leave_the_tree_unbuilt(self):
        # Uniform, unpinned tables are settled by the bounds, so the walk
        # keeps D and writes no tree array; structure_bytes() counts what
        # the engine holds.
        trace = np.random.default_rng(7).integers(0, 40, size=1500)
        engine = ReplayEngine(trace)
        fresh_bytes = engine.structure_bytes()
        for table in (np.full(40, 3), np.full(40, 5)):
            engine.evaluate([table], [1, 30, 200])
        assert engine.memo_stats()["trees"] == 0
        assert engine.routes == {"by_bounds": 6, "by_windows": 0, "by_tree": 0}
        for name in self.STRUCTURE:
            assert getattr(engine, name) is None, name
        assert engine.structure_bytes() == fresh_bytes + engine._distinct.nbytes
        assert engine.structure_bytes() == sum(
            value.nbytes
            for name, value in vars(engine).items()
            if isinstance(value, np.ndarray) and name != "trace"
        )

    def test_a_later_uneven_table_walks_again_with_the_tree(self):
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 40, size=1500)
        sizes = rng.integers(1, 20, size=40)
        engine = ReplayEngine(trace)
        engine.evaluate([np.full(40, 3)], [60])
        d_only_bytes = engine.structure_bytes()
        capacities = [60, 120, 200]
        (got,) = engine.evaluate([sizes], capacities)
        for capacity, stats in zip(capacities, got):
            want = reference_stats(trace, sizes, capacity)
            assert stats_tuple(stats) == stats_tuple(want), capacity
        assert engine.routes == {"by_bounds": 1, "by_windows": 0, "by_tree": 3}
        assert sum(engine.routes.values()) == engine.memo_misses
        assert engine.memo_stats()["trees"] == 1
        assert engine.structure_bytes() > d_only_bytes
        want_structure = replay_structure_reference(trace)
        for name in self.STRUCTURE:
            assert np.array_equal(getattr(engine, name), want_structure[name]), name
        assert np.array_equal(engine._distinct, brute_force_distinct(trace))

    def test_a_pinned_first_evaluation_walks_once(self, monkeypatch):
        walks = []
        walk = ReplayEngine._build_structure

        def counted(engine, tree):
            walks.append(tree)
            walk(engine, tree)

        monkeypatch.setattr(ReplayEngine, "_build_structure", counted)
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 40, size=1500)
        sizes = rng.integers(1, 20, size=40)
        engine = ReplayEngine(trace)
        assert engine.memo_stats()["trees"] == 0
        engine.evaluate([sizes], [60, 120], np.asarray([1, 2, 3]))
        engine.evaluate([sizes, np.full(40, 3)], [60, 120, 200])
        assert walks == [True]
        assert engine.memo_stats()["trees"] == 1
        assert engine.routes["by_tree"] > 0

    def test_the_walk_is_timed_beside_the_evaluation(self):
        # The walk records its own engine_build span next to the evaluation's,
        # so replay_evaluate times the evaluation alone.
        telemetry.reset_spans()
        telemetry.set_enabled(True)
        try:
            pinned_engine(np.asarray([0, 1, 0, 1], dtype=np.int64))
            spans = telemetry.span_snapshot()
        finally:
            telemetry.set_enabled(False)
            telemetry.reset_spans()
        assert spans["engine_build"]["count"] == 2
        assert spans["replay_evaluate"]["count"] == 1
        assert "children" not in spans["replay_evaluate"]


class TestResolutionRoutes:
    """Every route an evaluation can take, against the per-access oracles.

    The distinct-row bounds settle a uniform table outright; a lone open
    access takes the window sums; many open accesses take the tree pass.
    Each computed result counts under exactly one route.
    """

    @staticmethod
    def routes_of(trace, table, capacities, pinned=None):
        trace = np.asarray(trace, dtype=np.int64)
        table = np.asarray(table, dtype=np.int64)
        engine = ReplayEngine(trace)
        (got,) = engine.evaluate([table], capacities, pinned)
        for capacity, stats in zip(capacities, got):
            if pinned is None:
                want = reference_stats(trace, table, capacity)
            else:
                want = pinned_partition_replay(trace, table, capacity, pinned)
            assert stats_tuple(stats) == stats_tuple(want), capacity
        assert sum(engine.routes.values()) == engine.memo_misses
        return engine.routes

    def test_uniform_tables_are_settled_by_the_bounds(self):
        trace = np.random.default_rng(8).integers(0, 40, size=1500)
        routes = self.routes_of(trace, np.full(40, 3), [1, 3, 30, 60, 10_000])
        assert routes == {"by_bounds": 5, "by_windows": 0, "by_tree": 0}

    def test_a_lone_open_access_takes_the_window_sums(self):
        # Row 0's second access has one distinct row (row 1, size 3) in its
        # window, so its footprint lies between 2 + 1 and 2 + 3: open at
        # capacity 4.  Every other repeat has an empty window, and the total
        # window length (1) is far below the tree's segment.
        routes = self.routes_of([0, 1, 0] + [2] * 40, [2, 3, 1], [4])
        assert routes == {"by_bounds": 0, "by_windows": 1, "by_tree": 0}

    def test_many_open_accesses_take_the_tree(self):
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 40, size=1500)
        sizes = rng.integers(1, 20, size=40)
        routes = self.routes_of(trace, sizes, [60, 120, 200])
        assert routes == {"by_bounds": 0, "by_windows": 0, "by_tree": 3}

    def test_pinned_and_streaming_rows_on_every_route(self):
        # Pinned rows and rows larger than the cache weigh 0, which only
        # weakens the lower bound.  Rows 0-9 (size 1) fit every capacity and
        # row 10 (size 1000) streams below capacity 1000, so the capacities
        # form two groups; both are settled by the bounds.
        rng = np.random.default_rng(9)
        trace = rng.integers(0, 11, size=600)
        table = np.ones(11, dtype=np.int64)
        table[10] = 1000
        for pinned in (None, np.asarray([3, 7])):
            routes = self.routes_of(trace, table, [100, 500, 20_000], pinned)
            assert routes == {"by_bounds": 3, "by_windows": 0, "by_tree": 0}
        # Row 3 streams and row 4 is pinned at capacity 4: row 0's second
        # access is the one open access.
        routes = self.routes_of(
            [0, 1, 0, 3, 4, 4] + [2] * 40, [2, 3, 1, 50, 1], [4], np.asarray([4])
        )
        assert routes == {"by_bounds": 0, "by_windows": 1, "by_tree": 0}
        rng = np.random.default_rng(7)
        trace = rng.integers(0, 40, size=1500)
        sizes = rng.integers(1, 20, size=40)
        sizes[5] = 10_000
        routes = self.routes_of(
            trace, sizes, [60, 120, 200, 20_000], np.asarray([1, 2, 3])
        )
        assert routes == {"by_bounds": 0, "by_windows": 0, "by_tree": 4}


class TestMemoAccounting:
    """``memo_stats()`` feeds the ``replay_memo`` cache counters."""

    @staticmethod
    def memo_counters(engine):
        """The memo's own counters; the route counters must sum to misses."""
        stats = engine.memo_stats()
        assert set(stats) == {"hits", "misses", "evictions", "entries", "trees", *ROUTES}
        assert sum(stats[route] for route in ROUTES) == stats["misses"]
        return {key: stats[key] for key in ("hits", "misses", "evictions", "entries")}

    def test_duplicates_and_pinned_sets_are_counted_exactly(self):
        rng = np.random.default_rng(6)
        trace = rng.integers(0, 20, size=300).astype(np.int64)
        table_a = rng.integers(1, 6, size=20).astype(np.int64)
        table_b = rng.integers(1, 6, size=20).astype(np.int64)
        pinned = np.asarray([3, 8], dtype=np.int64)
        engine = ReplayEngine(trace)

        # Two distinct tables (one fed twice, once as an equal copy) at two
        # distinct capacities (one requested twice): 2 x 2 evaluations, and
        # the duplicate table answers both capacities from the memo.
        engine.evaluate([table_a, table_b, table_a.copy()], [30, 60, 30])
        assert self.memo_counters(engine) == {
            "hits": 2, "misses": 4, "evictions": 0, "entries": 4
        }
        # The same table with a pinned set is a different replay.
        engine.evaluate([table_a], [30, 60], pinned)
        assert self.memo_counters(engine) == {
            "hits": 2, "misses": 6, "evictions": 0, "entries": 6
        }
        # Repeating the pinned and the unpinned request only hits.
        engine.evaluate([table_a], [60, 30], pinned.copy())
        engine.evaluate([table_a], [30])
        assert self.memo_counters(engine) == {
            "hits": 5, "misses": 6, "evictions": 0, "entries": 6
        }

    def test_memo_eviction_is_counted(self, monkeypatch):
        monkeypatch.setattr(ReplayEngine, "MEMO_ENTRIES", 2)
        engine = ReplayEngine(np.asarray([0, 1, 0, 1], dtype=np.int64))
        engine.evaluate([np.asarray([1, 2])], [4, 8, 16])
        assert self.memo_counters(engine) == {
            "hits": 0, "misses": 3, "evictions": 1, "entries": 2
        }


class TestTraceCache:
    def test_get_builds_once_and_counts(self):
        cache = TraceCache(max_entries=4)
        calls = []
        value = cache.get("k", lambda: calls.append(1) or "v")
        assert value == "v" and cache.misses == 1
        assert cache.get("k", lambda: calls.append(1) or "other") == "v"
        assert cache.hits == 1
        assert len(calls) == 1

    def test_lru_eviction(self):
        cache = TraceCache(max_entries=2)
        cache.get("a", lambda: 1)
        cache.get("b", lambda: 2)
        cache.get("a", lambda: 0)  # refresh a
        cache.get("c", lambda: 3)  # evicts b
        assert "a" in cache and "c" in cache and "b" not in cache

    def test_bytes_gauge_counts_what_the_entries_hold_now(self):
        # The gauge is summed when read, so an engine's later walk raises it,
        # and clearing the cache returns it to 0.
        trace = np.random.default_rng(7).integers(0, 40, size=1500)
        cache = TraceCache()
        engine = cache.get(("engine",), lambda: ReplayEngine(trace))
        before = cache.stats()["bytes"]
        assert before == engine.structure_bytes() > 0
        engine.evaluate([np.full(40, 2)], [50], np.asarray([3]))
        assert engine.memo_stats()["trees"] == 1
        assert cache.stats()["bytes"] == engine.structure_bytes() > before
        cache.clear()
        assert cache.stats()["bytes"] == 0

    def test_clear_keeps_counters(self):
        cache = TraceCache()
        cache.get("a", lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.misses == 1

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            TraceCache(max_entries=0)

    def test_array_token_distinguishes_contents(self):
        a = np.asarray([1, 2, 3], dtype=np.int64)
        assert array_token(a) == array_token(a.copy())
        assert array_token(a) != array_token(a.astype(np.int32))
        assert array_token(a) != array_token(a[::-1])
