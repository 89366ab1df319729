"""Vectorized trace replay through the row-granularity LRU cache model.

The cache model is a fully-associative LRU cache whose entries are feature
rows and whose capacity is measured in cachelines (see
:mod:`repro.memory.rowcache`).  Replaying a feature-access trace through it
is the single hottest computation of every simulation (one replay per
feature pass per layer per run), so this module computes the replay
statistics for a whole trace with numpy, using a classical property of
fully-associative evict-until-fit LRU caches:

    An access to row ``r`` hits iff ``r`` was accessed before and
    ``size[r] + U <= capacity``, where ``U`` is the total size of the
    *distinct installable* rows accessed since ``r``'s previous access
    (installable = not larger than the whole cache, which streams through
    without being installed).

The proof sketch: contents always form a prefix of the recency stack
(eviction only removes the LRU tail, exactly until the new row fits), and
every row accessed since ``r``'s previous access is either still resident
above ``r`` or was never installed — if it had been evicted, ``r`` (older)
would have been evicted first.  With one fixed size per row — which is how
every replay in this repository works, the per-pass size table — the
condition is exact.  The test suite pins it bit for bit against a
per-access ``OrderedDict`` cache (``tests/oracles.py``).

The distinct-footprint sums are reuse-interval computations.  We evaluate
them with an offline mergesort tree: for every access ``i`` with previous
occurrence ``p``, the sum of ``w[j]`` over window positions ``p < j < i``
whose own previous occurrence lies at or before ``p`` (i.e. the first
in-window occurrence of each distinct row).  The tree's permutations and
query positions depend only on the *trace*, not on the sizes, so the
structure is built once per trace (:class:`ReplayEngine`) — top down, one
stable left/right split per level starting from the repeat accesses in
previous-occurrence order, with the query entries grouped by a counting
sort, so no composite-key sort or search is needed — and each
evaluation — per feature pass, per layer, per capacity, per pinned set — is
a handful of gathers and cumulative sums.  :class:`TraceCache` memoizes the
engines (and the traces they replay) across runs; a sweep over N
accelerators x M cache sizes builds each trace structure once instead of
N x M times.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import replace
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.memory.rowcache import RowCacheStats
from repro.telemetry.spans import span

#: Index dtype of the precomputed tree structure.  Traces are bounded far
#: below 2**31 accesses (they are per-pass edge counts), so 32-bit indices
#: halve the structure's footprint.
_INDEX_DTYPE = np.int32


def _previous_occurrences(trace: np.ndarray) -> np.ndarray:
    """Index of each access's previous occurrence of the same row (-1 if none)."""
    n = trace.size
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(trace, kind="stable")
    sorted_rows = trace[order]
    same = sorted_rows[1:] == sorted_rows[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


class ReplayEngine:
    """Array-based replay of one access trace through the LRU row cache.

    The engine precomputes everything that depends only on the trace — the
    previous-occurrence links and the mergesort-tree used for the
    distinct-footprint sums — so that :meth:`evaluate` replays new per-row
    size tables (a new feature pass or layer), capacities, and pinned sets
    without touching a Python loop.

    Args:
        trace: ``int64`` row ids in access order (one entry per feature-row
            access), as produced by
            :func:`repro.accelerator.tiling.aggregation_access_trace`.
    """

    def __init__(self, trace: np.ndarray) -> None:
        with span("engine_build"):
            trace = np.ascontiguousarray(trace, dtype=np.int64)
            if trace.ndim != 1:
                raise ConfigurationError("trace must be a one-dimensional array")
            self.trace = trace
            prev = _previous_occurrences(trace)
            # Eval-loop constants: clipped previous-occurrence index (+1, for
            # the exclusive prefix-sum lookup) and the repeat-access mask.
            self._prev_plus1 = (np.where(prev >= 0, prev, 0) + 1).astype(_INDEX_DTYPE)
            self._seen_before = prev >= 0
            self._build_structure(trace.size, prev)
        # Result memo keyed by (size-table digest, capacity, pinned-set
        # digest).  Dense-style formats feed the same constant table for
        # every layer and pass of a run, so most evaluations of an engine
        # repeat a previous one.
        self._memo: "OrderedDict[Tuple[str, int, Optional[str]], RowCacheStats]" = (
            OrderedDict()
        )
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        # Array digest memo keyed by object identity.  The strong reference
        # to the array keeps its id() from being recycled; tables are never
        # mutated in place by the simulator, so identity implies content
        # equality.
        self._token_cache: "OrderedDict[int, Tuple[np.ndarray, str]]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Structure construction (trace-only, size-independent)
    # ------------------------------------------------------------------ #
    def _build_structure(self, n: int, prev: np.ndarray) -> None:
        """Flattened mergesort tree for the windowed distinct-footprint sums.

        Every (contributor ``j``, query ``i``) pair with ``j < i`` is
        separated at exactly one level: the one where they fall in sibling
        halves of the same block.  At that level the contribution of ``j``
        to ``i`` is ``w[j]`` iff ``prev[j] > prev[i]`` (``j`` is *not* the
        first in-window occurrence of its row; these duplicates are
        subtracted from the plain interval sum).  Per level the left-half
        positions are sorted by ``prev`` within each block, and each query's
        contribution is a suffix sum of its sibling block's segment.

        The tree is built top-down.  First occurrences (``prev < 0``) can
        never satisfy ``prev[j] > prev[i] >= 0`` and are dropped outright;
        ``prev`` is injective on the rest, so one scatter lists the repeat
        positions in ``prev`` order — the root level's ``(block, prev)``
        ordering.  At each level one cumulative count of the left-half bit
        over that ordering yields the level's contributor segment (its
        left-half elements, in order), every query's suffix bounds (``lo`` =
        left elements before it, ``hi`` = left elements through the end of
        its block; the query is live iff ``hi > lo``), and the stable
        left/right split of each block, which is the next level's ordering.
        The per-level query entries are then grouped by position with a
        counting sort, each group filled from its end so that a query's
        entries run from level 1 up.

        All levels are concatenated into one workspace so that an
        evaluation is a handful of large array operations rather than a few
        small ones per level: one gather of the weights through
        ``_gather``, one cumulative sum (prefix sums taken strictly inside
        one segment, so concatenation never leaks across blocks), one
        suffix-sum lookup per query via ``_lo``/``_hi``, and one exact
        integer segment reduction (``np.add.reduceat``) that folds the
        per-level contributions of each query together (``_reduce_starts``
        / ``_query_rows``).  Everything here depends only on the trace,
        never on the size tables.
        """
        repeats = np.flatnonzero(prev >= 0)
        if n < 2 or not repeats.size:
            self._gather = np.zeros(0, dtype=_INDEX_DTYPE)
            self._reduce_starts = np.zeros(0, dtype=_INDEX_DTYPE)
            self._query_rows = np.zeros(0, dtype=_INDEX_DTYPE)
            self._lo = np.zeros(0, dtype=_INDEX_DTYPE)
            self._hi = np.zeros(0, dtype=_INDEX_DTYPE)
            return

        num_levels = max(1, int(np.ceil(np.log2(n))))
        by_prev = np.full(n, -1, dtype=_INDEX_DTYPE)
        by_prev[prev[repeats]] = repeats
        order = by_prev[by_prev >= 0]
        del by_prev, repeats
        m = order.size
        ramp = np.arange(m, dtype=_INDEX_DTYPE)
        left_before = np.zeros(m + 1, dtype=_INDEX_DTYPE)

        segments: List[np.ndarray] = []
        level_queries: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        query_counts = np.zeros(n, dtype=_INDEX_DTYPE)
        offset = 0
        for level in range(num_levels, 0, -1):
            # Level l has blocks pos >> l; bit l-1 picks the half.
            is_left = ((order >> (level - 1)) & 1) == 0
            np.cumsum(is_left, dtype=_INDEX_DTYPE, out=left_before[1:])
            block_sizes = np.bincount(order >> level)
            block_end = np.cumsum(block_sizes)
            contributors = order[is_left]
            segments.append(contributors)

            # Right elements are the level's queries.  The k-th one, at
            # ordering index right[k], has right[k] - k left elements before
            # it (lo); its block's left elements end at left_before[block_end]
            # (hi).
            right = np.flatnonzero(~is_left)
            right_pos = order[right]
            hi = left_before[block_end][right_pos >> level]
            lo = (right - ramp[: right.size]).astype(_INDEX_DTYPE)
            live = hi > lo
            q_pos = right_pos[live]
            query_counts[q_pos] += 1
            level_queries.append((q_pos, lo[live] + offset, hi[live] + offset))
            offset += int(left_before[m])

            if level > 1:
                # Stable split of every block into its left then right half.
                # A left element lands after the right elements of earlier
                # blocks plus the left elements before it; a right element
                # after every left element through its block plus the right
                # elements before it.
                block_start = block_end - block_sizes
                right_ahead = block_start - left_before[block_start]
                left_dest = right_ahead[contributors >> level]
                left_dest += ramp[: contributors.size]
                split = np.empty_like(order)
                split[left_dest] = contributors
                split[hi + ramp[: right.size]] = right_pos
                order = split

        # Counting sort of the query entries by position.  Levels arrive
        # root first and each position is a query at most once per level,
        # so filling every group from its end leaves level 1 first.
        cursor = np.cumsum(query_counts, dtype=_INDEX_DTYPE)
        total = int(cursor[-1])
        lo_grouped = np.empty(total, dtype=_INDEX_DTYPE)
        hi_grouped = np.empty(total, dtype=_INDEX_DTYPE)
        for q_pos, lo, hi in level_queries:
            slots = cursor[q_pos] - 1
            cursor[q_pos] = slots
            lo_grouped[slots] = lo
            hi_grouped[slots] = hi
        has_query = query_counts > 0
        self._gather = np.concatenate(segments)
        self._reduce_starts = cursor[has_query]
        self._query_rows = np.flatnonzero(has_query).astype(_INDEX_DTYPE)
        self._lo = lo_grouped
        self._hi = hi_grouped

    def structure_bytes(self) -> int:
        """Memory footprint of every array the engine holds."""
        return int(
            sum(
                value.nbytes
                for value in vars(self).values()
                if isinstance(value, np.ndarray)
            )
        )

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    #: Result-memo capacity.  A single run touches at most a few distinct
    #: tables, but a capacity sweep seeds tables x capacities entries (a
    #: sliced format's per-pass tables are all distinct: ~13 tables x 5
    #: capacities already overflows 64), so size for the sweep case — the
    #: entries are a few dozen bytes each.
    MEMO_ENTRIES = 512

    #: Table-digest memo capacity; a run feeds a handful of distinct tables.
    TOKEN_ENTRIES = 16

    def evaluate(
        self,
        size_tables: Sequence[np.ndarray],
        capacities: Sequence[int],
        pinned: Optional[np.ndarray] = None,
    ) -> List[List[RowCacheStats]]:
        """Replay the trace once per size table, at every capacity.

        Tables with equal content (dense formats feed dozens of identical
        pass tables per run) collapse to one evaluation per distinct digest,
        and every result lands in the ``(table digest, capacity, pinned
        digest)`` memo, so the sibling runs of a sweep class answer from
        cache.  Per table, the capacities are grouped by shared weight
        vector (:meth:`_evaluate_spectrum`), so a whole capacity vector
        usually costs one footprint computation.

        Args:
            size_tables: Per-row size lookup tables (indexed by row id), one
                per feature pass; each replay starts from an empty cache.
            capacities: Shared-cache capacities in cachelines; duplicates
                allowed (a single capacity is a vector of length 1).
            pinned: Optional row ids held in a dedicated cache partition
                (EnGN's DAVC).  Their accesses always hit and never compete
                for the shared capacity: they get footprint weight 0 and a
                forced hit, which gives exactly the statistics of replaying
                the trace with those accesses filtered out, plus one hit per
                pinned access.

        Returns:
            One list per table, each with one :class:`RowCacheStats` per
            requested capacity, in order.
        """
        caps = [int(capacity) for capacity in capacities]
        if any(capacity <= 0 for capacity in caps):
            raise ConfigurationError("cache capacity must be positive")
        tables = [
            np.ascontiguousarray(table, dtype=np.int64) for table in size_tables
        ]
        tokens = [self._table_token(table) for table in tables]
        pinned_token: Optional[str] = None
        pinned_mask: Optional[np.ndarray] = None
        if pinned is not None and len(pinned):
            pinned = np.ascontiguousarray(pinned, dtype=np.int64)
            pinned_token = self._table_token(pinned)
        unique_caps = list(dict.fromkeys(caps))

        # Resolve per distinct table *content*: equal-content tables
        # evaluate once and share the result, exactly as a sequential
        # memo-checking loop would.
        resolved: Dict[str, Dict[int, RowCacheStats]] = {}
        for table, token in zip(tables, tokens):
            if token in resolved:
                self.memo_hits += len(unique_caps)
                continue
            results: Dict[int, RowCacheStats] = {}
            resolved[token] = results
            for capacity in unique_caps:
                key = (token, capacity, pinned_token)
                cached = self._memo.get(key)
                if cached is not None:
                    self._memo.move_to_end(key)
                    self.memo_hits += 1
                    results[capacity] = cached
            if len(results) == len(unique_caps):
                continue
            if pinned_token is not None and pinned_mask is None:
                pinned_mask = np.isin(self.trace, pinned)
            with span("replay_evaluate"):
                computed = self._evaluate_spectrum(
                    table, sorted(set(unique_caps) - set(results)), pinned_mask
                )
            for capacity, stats in computed.items():
                self.memo_misses += 1
                self._memo[(token, capacity, pinned_token)] = replace(stats)
                while len(self._memo) > self.MEMO_ENTRIES:
                    self._memo.popitem(last=False)
                    self.memo_evictions += 1
                results[capacity] = stats
        return [
            [replace(resolved[token][capacity]) for capacity in caps]
            for token in tokens
        ]

    def _table_token(self, table: np.ndarray) -> str:
        """Digest of a size table (or pinned set), memoized on object identity.

        Dense formats feed the *same* constant table object for every pass
        of every layer; hashing its full contents on each memo lookup costs
        more than the memoized evaluation it guards.  ``table`` must already
        be the contiguous ``int64`` array used for the memo key (the cache
        pins it, so identity stays valid for the entry's lifetime).
        """
        key = id(table)
        entry = self._token_cache.get(key)
        if entry is not None and entry[0] is table:
            self._token_cache.move_to_end(key)
            return entry[1]
        token = array_token(table)
        self._token_cache[key] = (table, token)
        while len(self._token_cache) > self.TOKEN_ENTRIES:
            self._token_cache.popitem(last=False)
        return token

    def memo_stats(self) -> Dict[str, int]:
        """Hit/miss/eviction counters of the result memo."""
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
            "entries": len(self._memo),
        }

    def _footprint(self, sizes: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Distinct in-window footprint per access for one weight vector.

        Depends on the capacity only through ``weights`` (the streaming
        threshold ``sizes <= cap``), so every capacity with the same weight
        vector shares one call.
        """
        n = self.trace.size
        cumulative = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(weights, out=cumulative[1:])
        # footprint = (interval sum) - duplicates = distinct in-window sizes
        footprint = cumulative[:-1] - cumulative[self._prev_plus1]
        footprint += sizes

        # Duplicate-occurrence sums via the flattened tree: one gather, one
        # cumulative sum, one suffix-sum lookup, one exact segment reduction.
        if self._gather.size:
            permuted = weights[self._gather]
            tree_cumulative = np.zeros(permuted.size + 1, dtype=np.int64)
            np.cumsum(permuted, out=tree_cumulative[1:])
            contributions = tree_cumulative[self._hi]
            contributions -= tree_cumulative[self._lo]
            footprint[self._query_rows] -= np.add.reduceat(
                contributions, self._reduce_starts
            )
        return footprint

    def _evaluate_spectrum(
        self, table: np.ndarray, caps: List[int], pinned_mask: Optional[np.ndarray]
    ) -> Dict[int, RowCacheStats]:
        """Evaluate distinct capacities grouped by shared weight vector.

        The capacity enters only through the streaming threshold
        (``sizes <= cap``) and the final ``footprint <= cap`` compare.  Two
        capacities produce identical weight vectors iff no access size lies
        strictly between them, so the capacities are grouped by
        ``searchsorted`` over the unique access sizes: one footprint
        computation per group, then one cheap hit test per capacity.  In the
        common case — every row fits in every queried capacity — that is a
        single group for the whole vector.
        """
        n = self.trace.size
        if n == 0:
            return {capacity: RowCacheStats() for capacity in caps}

        sizes = table[self.trace]  # true per-access sizes
        total_lines = int(sizes.sum())
        unique_sizes = np.unique(sizes)
        caps_arr = np.asarray(caps, dtype=np.int64)
        group_of = np.searchsorted(unique_sizes, caps_arr, side="right")
        out: Dict[int, RowCacheStats] = {}
        for group in np.unique(group_of):
            group_caps = caps_arr[group_of == group]
            weights = np.where(sizes <= int(group_caps[0]), sizes, 0)
            if pinned_mask is not None:
                weights[pinned_mask] = 0
            footprint = self._footprint(sizes, weights)
            for capacity in group_caps.tolist():
                hit = footprint <= capacity
                hit &= self._seen_before
                if pinned_mask is not None:
                    hit |= pinned_mask
                hits = int(np.count_nonzero(hit))
                hit_lines = int(sizes.sum(where=hit, initial=0))
                out[capacity] = RowCacheStats(
                    accesses=n,
                    hits=hits,
                    misses=n - hits,
                    miss_lines=total_lines - hit_lines,
                    hit_lines=hit_lines,
                )
        return out


def replay_trace(
    trace: np.ndarray, sizes: np.ndarray, capacity_lines: int
) -> RowCacheStats:
    """One-shot replay of ``trace`` with per-row ``sizes`` at one capacity."""
    return ReplayEngine(trace).evaluate([sizes], [capacity_lines])[0][0]


def _entry_bytes(value: object) -> int:
    """Best-effort memory footprint of one cache entry.

    Replay engines expose :meth:`ReplayEngine.structure_bytes`; arrays (and
    graph objects that implement the same protocol) expose ``nbytes``.
    Entries with neither report 0 — the bytes gauge is an observability aid,
    not an accounting invariant.
    """
    probe = getattr(value, "structure_bytes", None)
    if callable(probe):
        return int(probe())
    nbytes = getattr(value, "nbytes", None)
    if isinstance(nbytes, (int, np.integer)):
        return int(nbytes)
    return 0


class TraceCache:
    """LRU memo for traces, replay engines, and derived graphs.

    The keys are composite hashable tuples built by the simulator from a
    graph fingerprint plus the schedule knobs (tiling plan, engine count and
    partitioning, strip height).  Everything stored here depends only on
    (dataset, tiling plan, engine partition, format) — never on the
    accelerator's *timing* knobs — so a sweep over N accelerator
    configurations x M cache sizes rebuilds each entry once instead of
    N x M times.  :class:`repro.core.session.Session` owns one instance and
    threads it through every run.

    Besides the hit/miss counters the cache tracks evictions and an
    approximate resident-bytes gauge (:func:`_entry_bytes` per entry), all
    reported by :meth:`stats` and surfaced through
    :meth:`repro.core.session.Session.metrics_snapshot`.
    """

    def __init__(self, max_entries: int = 256) -> None:
        if max_entries < 1:
            raise ConfigurationError("max_entries must be at least 1")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0

    def get(self, key: Hashable, builder: Callable[[], object]) -> object:
        """Return the cached value for ``key``, building and storing on miss."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return entry
        value = builder()
        self.misses += 1
        self._entries[key] = value
        self.current_bytes += _entry_bytes(value)
        while len(self._entries) > self.max_entries:
            _, evicted = self._entries.popitem(last=False)
            self.evictions += 1
            self.current_bytes -= _entry_bytes(evicted)
        return value

    def clear(self) -> None:
        """Drop every entry, counting each as an eviction.

        Counting the dropped entries keeps :meth:`stats` an accounting
        identity — every miss either remains resident (``entries``) or was
        evicted, so ``hits + misses >= entries + evictions`` always holds.
        """
        self.evictions += len(self._entries)
        self._entries.clear()
        self.current_bytes = 0

    def values(self):
        """Iterate over the cached values (LRU to MRU order)."""
        return self._entries.values()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/eviction/bytes counters, e.g. for metrics snapshots."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "bytes": max(0, int(self.current_bytes)),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries


def array_token(array: np.ndarray) -> str:
    """Short stable digest of an array's contents, for composite cache keys."""
    digest = hashlib.sha1()
    array = np.ascontiguousarray(array)
    digest.update(str(array.dtype).encode())
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


__all__ = [
    "ReplayEngine",
    "TraceCache",
    "array_token",
    "replay_trace",
]
