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

The hit test needs ``U`` only as far as the compare with the capacity, so
an evaluation resolves each repeat access in up to three steps, cheapest
first, and every step is exact:

1. *Distinct-row bounds.*  For every access the engine stores ``D``, the
   number of distinct rows accessed strictly between it and its previous
   occurrence.  ``U`` sums the weights of those ``D`` rows, so it lies
   between ``w_min * D`` and ``w_max * D``, with ``w_min`` and ``w_max``
   taken over the weights of the rows present in the trace (a pinned or
   streaming row weighs 0, which can only lower ``w_min``).  The access
   hits if ``size + w_max * D`` fits and misses if ``size + w_min * D``
   does not.  Both tests are integer arithmetic (``D <= room // w``), so
   nothing rounds.  A uniform size table, and every access whose window is
   empty, is settled here.
2. *Window sums.*  The accesses the bounds leave open get ``U`` summed
   directly over the first in-window occurrences of their windows, in
   int64, when those windows add up to fewer positions than the tree's
   segment, where the two steps break even in time and memory.
3. *Tree pass.*  Otherwise one pass over the mergesort tree below gives
   the exact ``U`` of every access, and the open ones take it.

The distinct-footprint sums are reuse-interval computations.  The tree
evaluates them offline: for every access ``i`` with previous occurrence
``p``, the sum of ``w[j]`` over window positions ``p < j < i`` whose own
previous occurrence lies at or before ``p`` (i.e. the first in-window
occurrence of each distinct row).  The tree's permutations and query
positions depend only on the *trace*, not on the sizes, so the structure
— and ``D``, counted from it — is built at most once per trace
(:class:`ReplayEngine`): top down, one stable left/right split per level
starting from the repeat accesses in previous-occurrence order, with the
query entries kept in that level order, so no composite-key sort, search
or grouping pass is needed.  The engine walks those levels on its first
computed evaluation.  The walk always counts ``D``, but writes the tree
arrays only if that evaluation can leave an access open: a pinned set is
given, or some capacity group's present rows do not all weigh the same.
An engine that only ever sees uniform, unpinned tables never holds a tree.
An engine holding ``D`` alone that later takes a tree pass walks again,
with the tree.  A tree pass — per feature pass, per layer,
per capacity group, per pinned set — is a handful of gathers from the
per-row weight table, cumulative sums and one ``np.bincount``.  Those sums
run in float64, exact while ``levels x total lines < 2**53`` (checked
before any step runs; :class:`ConfigurationError` above it).
:class:`TraceCache` memoizes the engines (and the traces they replay)
across runs; a sweep over N accelerators x M cache sizes builds each trace
structure once instead of N x M times.
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
#: below 2**31 accesses (they are per-pass edge counts) and row ids are
#: vertex ids, so 32-bit indices halve the structure's footprint.
_INDEX_DTYPE = np.int32
_INDEX_MAX = int(np.iinfo(_INDEX_DTYPE).max)

#: A tree pass sums line counts in float64 (the tree prefix sums and the
#: ``np.bincount`` reduction), which is exact while every partial sum stays
#: below 2**53.  Each tree level holds every access at most once, so
#: ``levels x total lines`` bounds them all.
_EXACT_FLOAT_BOUND = 2**53

#: How a computed result was resolved: every repeat access decided by the
#: distinct-row bounds, the rest by window sums, or by a tree pass.
ROUTES = ("by_bounds", "by_windows", "by_tree")


def _previous_occurrences(trace: np.ndarray) -> np.ndarray:
    """Index of each access's previous occurrence of the same row (-1 if none).

    ``trace`` holds non-negative row ids.  When they all fit in 16 bits the
    stable sort runs on ``uint16`` keys, for which numpy sorts by radix.
    """
    n = trace.size
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    if int(trace.max()) < 2**16:
        trace = trace.astype(np.uint16)
    order = np.argsort(trace, kind="stable")
    sorted_rows = trace[order]
    same = sorted_rows[1:] == sorted_rows[:-1]
    prev[order[1:][same]] = order[:-1][same]
    return prev


class ReplayEngine:
    """Array-based replay of one access trace through the LRU row cache.

    The engine precomputes what depends only on the trace — the
    previous-occurrence links at construction; the distinct-row counts and,
    where an evaluation needs it, the mergesort tree for the
    distinct-footprint sums on the first computed evaluation — so that
    :meth:`evaluate` replays new per-row size tables (a new feature pass or
    layer), capacities, and pinned sets without touching a Python loop.

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
            if trace.size and not 0 <= int(trace.min()) <= int(trace.max()) <= _INDEX_MAX:
                raise ConfigurationError(
                    f"trace row ids must lie in [0, {_INDEX_MAX}]"
                )
            self.trace = trace
            prev = _previous_occurrences(trace)
            # Eval-loop constants: clipped previous-occurrence index (+1, for
            # the exclusive prefix-sum lookup) and the repeat-access mask.
            self._prev_plus1 = (np.where(prev >= 0, prev, 0) + 1).astype(_INDEX_DTYPE)
            self._seen_before = prev >= 0
            self._levels = max(1, int(np.ceil(np.log2(max(trace.size, 1)))))
        # The level walk (_build_structure) runs on the first computed
        # evaluation: ``_distinct`` and ``_segment_size`` always, the tree
        # arrays only once an evaluation can leave an access open.
        self._distinct: Optional[np.ndarray] = None
        self._segment_size = 0
        self._segment: Optional[np.ndarray] = None
        self._qpos: Optional[np.ndarray] = None
        self._lo: Optional[np.ndarray] = None
        self._run_hi: Optional[np.ndarray] = None
        self._run_length: Optional[np.ndarray] = None
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
        # How each computed result was resolved (see _evaluate_spectrum).
        self.routes: Dict[str, int] = dict.fromkeys(ROUTES, 0)
        # Array digest memo keyed by object identity.  The strong reference
        # to the array keeps its id() from being recycled; tables are never
        # mutated in place by the simulator, so identity implies content
        # equality.
        self._token_cache: "OrderedDict[int, Tuple[np.ndarray, str]]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # Structure construction (trace-only, size-independent)
    # ------------------------------------------------------------------ #
    def _build_structure(self, tree: bool) -> None:
        """Walk the mergesort-tree levels: count ``D``, and write the tree if asked.

        :meth:`evaluate` runs the walk before the engine's first computed
        evaluation, with ``tree`` set if that evaluation can leave an access
        open (:meth:`_can_leave_open`).  ``D`` and the segment length, which
        the route choice reads, are recorded either way.  An engine holding
        ``D`` alone walks again, with ``tree``, when an evaluation takes the
        tree pass; that walk runs inside the evaluation's ``replay_evaluate``
        span, the first one beside it.  Both record an ``engine_build``
        span.

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

        The levels are written root first into one preallocated workspace,
        so an evaluation is a handful of large array operations rather than
        a few small ones per level:

        * ``_segment`` — the contributors' *row ids* (``int32``), so an
          evaluation gathers their weights straight from the per-row weight
          table;
        * ``_qpos`` / ``_lo`` — one entry per live query in the build's
          level order: its trace position and the start of its suffix;
        * ``_run_hi`` / ``_run_length`` — the queries of one (level, block)
          are consecutive entries sharing one suffix end, stored once per
          run;
        * ``_distinct`` — per access, the number of distinct rows accessed
          strictly between it and its previous occurrence: the window
          length minus every live entry's duplicate count ``hi - lo``.

        An evaluation takes one cumulative sum over the gathered segment
        (prefix sums are taken strictly inside one block's run, so
        concatenation never leaks across blocks), one suffix sum per entry
        and one ``np.bincount`` over ``_qpos`` that folds the per-level
        contributions of each query together.  Everything here depends only
        on the trace, never on the size tables.
        """
        with span("engine_build"):
            n = self.trace.size
            repeats = np.flatnonzero(self._seen_before)
            prev = self._prev_plus1[repeats] - 1
            levels = self._levels
            self._distinct = np.zeros(n, dtype=_INDEX_DTYPE)
            self._distinct[repeats] = repeats - prev - 1

            # Every level holds each repeat once, split by bit (level - 1) of
            # its position into a left (contributor) and a right (query) half.
            # Folding the repeat mask pairwise counts both halves of every
            # block of every level, which sizes the workspace before the first
            # level is written.  A query can only be live if its sibling half
            # holds a contributor, and a run needs a live query, so the query
            # and run buffers take those upper bounds.
            folded = np.zeros(1 << levels, dtype=_INDEX_DTYPE)
            folded[repeats] = 1
            num_left = max_queries = max_runs = 0
            for _ in range(levels):
                left, right = folded[0::2], folded[1::2]
                paired = left > 0
                num_left += int(left.sum())
                max_queries += int(right.sum(where=paired))
                max_runs += int(np.count_nonzero(paired & (right > 0)))
                folded = left + right
            del folded, left, right, paired
            self._segment_size = num_left
            if tree:
                segment = np.empty(num_left, dtype=_INDEX_DTYPE)
                qpos = np.empty(max_queries, dtype=_INDEX_DTYPE)
                starts = np.empty(max_queries, dtype=_INDEX_DTYPE)
                run_hi = np.empty(max_runs, dtype=_INDEX_DTYPE)
                run_length = np.empty(max_runs, dtype=_INDEX_DTYPE)
                rows = self.trace.astype(_INDEX_DTYPE)

            m = repeats.size
            by_prev = np.full(n, -1, dtype=_INDEX_DTYPE)
            by_prev[prev] = repeats
            order = by_prev[by_prev >= 0]
            del by_prev, repeats, prev
            left_before = np.zeros(m + 1, dtype=_INDEX_DTYPE)

            # Each temporary is dropped once used: the loop's working set, on
            # top of the buffers above, sets the walk's memory peak.
            offset = num_queries = num_runs = 0
            for level in range(levels, 0, -1):
                # Level l has blocks pos >> l; bit l-1 picks the half.
                is_left = ((order >> (level - 1)) & 1) == 0
                np.cumsum(is_left, dtype=_INDEX_DTYPE, out=left_before[1:])
                block_end = np.cumsum(np.bincount(order >> level), dtype=_INDEX_DTYPE)
                contributors = order[np.flatnonzero(is_left)]

                # Right elements are the level's queries.  One at ordering
                # index r has left_before[r] left elements before it (lo); its
                # block's left elements end at left_before[block_end] (hi).
                right = np.flatnonzero(np.logical_not(is_left, out=is_left))
                del is_left
                right_pos = order[right]
                lo = left_before[right]
                del right
                block_hi = left_before[block_end]
                hi = block_hi[right_pos >> level]
                duplicates = hi - lo
                live = np.flatnonzero(duplicates > 0)
                q_pos = right_pos[live]
                self._distinct[q_pos] -= duplicates[live]
                del duplicates
                if tree:
                    end = offset + contributors.size
                    np.take(rows, contributors, out=segment[offset:end], mode="clip")
                    end = num_queries + live.size
                    qpos[num_queries:end] = q_pos
                    np.take(lo, live, out=starts[num_queries:end])
                    starts[num_queries:end] += offset
                    num_queries = end
                    # Live queries come in block order: one run per block
                    # with any.
                    per_block = np.bincount(q_pos >> level, minlength=block_hi.size)
                    has_run = per_block > 0
                    end = num_runs + int(np.count_nonzero(has_run))
                    np.add(block_hi[has_run], offset, out=run_hi[num_runs:end])
                    run_length[num_runs:end] = per_block[has_run]
                    num_runs = end
                    offset += contributors.size
                    del per_block, has_run
                del lo, live, q_pos, block_hi

                if level > 1:
                    # Stable split of every block into its left then right
                    # half.  A left element lands after the right elements of
                    # earlier blocks plus the left elements before it; a right
                    # element after every left element through its block plus
                    # the right elements before it.
                    block_start = np.zeros_like(block_end)
                    block_start[1:] = block_end[:-1]
                    right_ahead = block_start - left_before[block_start]
                    del block_start
                    left_dest = right_ahead[contributors >> level]
                    left_dest += np.arange(contributors.size, dtype=_INDEX_DTYPE)
                    split = np.empty_like(order)
                    split[left_dest] = contributors
                    del left_dest, contributors
                    hi += np.arange(right_pos.size, dtype=_INDEX_DTYPE)
                    split[hi] = right_pos
                    order = split

            del order, left_before
            if tree:
                del rows
                # Copying out the used prefixes stays below that peak.
                self._segment = segment
                self._qpos = qpos[:num_queries].copy()
                del qpos
                self._lo = starts[:num_queries].copy()
                del starts
                self._run_hi = run_hi[:num_runs].copy()
                self._run_length = run_length[:num_runs].copy()

    def structure_bytes(self) -> int:
        """Memory footprint of the arrays the engine holds now.

        It grows when the level walk runs (see :meth:`_build_structure`).
        The trace itself is borrowed — it is the caller's array, which the
        session's trace cache holds as its own entry — so it is not counted
        here and the cache's bytes gauge counts each buffer once.
        """
        return int(
            sum(
                value.nbytes
                for name, value in vars(self).items()
                if isinstance(value, np.ndarray) and name != "trace"
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
        usually costs one bounds test per capacity and at most one exact
        footprint computation.  The first table computed walks the tree
        levels (:meth:`_build_structure`).

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
        if pinned is not None and len(pinned):
            pinned = np.ascontiguousarray(pinned, dtype=np.int64)
            pinned_token = self._table_token(pinned)
        else:
            pinned = None
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
            missing = sorted(set(unique_caps) - set(results))
            if self._distinct is None:
                self._build_structure(self._can_leave_open(table, missing, pinned))
            with span("replay_evaluate"):
                computed = self._evaluate_spectrum(table, missing, pinned)
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
        """Hit/miss/eviction counters of the result memo, and its routes.

        Every memo miss is one computed result, counted under exactly one of
        :data:`ROUTES`, so the route counters sum to ``misses``.  ``trees``
        is 1 if the engine holds its tree arrays, else 0.
        """
        return {
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
            "entries": len(self._memo),
            **self.routes,
            "trees": int(self._segment is not None),
        }

    def _can_leave_open(
        self, table: np.ndarray, caps: List[int], pinned: Optional[np.ndarray]
    ) -> bool:
        """Whether evaluating ``table`` at ``caps`` may leave an access open.

        The distinct-row bounds settle every access when a capacity group's
        present rows all weigh the same (``w_min == w_max``), so only a
        pinned set or an uneven weight range can need the tree.
        """
        if not self._seen_before.any():
            return False
        if pinned is not None:
            return True
        present_sizes = table[self.trace[~self._seen_before]]
        return any(
            w_min != w_max for _, w_min, w_max in _weight_ranges(present_sizes, caps)
        )

    def _footprint(self, sizes: np.ndarray, row_weights: np.ndarray) -> np.ndarray:
        """Distinct in-window footprint per access for one weight table.

        ``row_weights`` is the per-row ``float64`` weight table (a row's
        size, or 0 if it streams or is pinned).  It depends on the capacity
        only through the streaming threshold ``sizes <= cap``, so every
        capacity with the same weight table shares one call.  The sums are
        exact under the bound :meth:`_evaluate_spectrum` checks.
        """
        n = self.trace.size
        # Every index is in range (the caller's ``table[trace]`` checked it),
        # and mode="clip" lets np.take write straight into ``out`` where the
        # default mode would buffer a copy.
        cumulative = np.empty(n + 1, dtype=np.float64)
        cumulative[0] = 0.0
        np.take(row_weights, self.trace, out=cumulative[1:], mode="clip")
        np.cumsum(cumulative[1:], out=cumulative[1:])
        # footprint = (interval sum) - duplicates = distinct in-window sizes
        footprint = cumulative[:-1] - cumulative[self._prev_plus1]
        footprint += sizes
        del cumulative

        # Duplicate-occurrence sums via the flattened tree: the segment's
        # weights gathered into its prefix-sum buffer and summed in place,
        # one suffix sum per query entry, one reduction per position.
        if self._segment.size:
            tree = np.empty(self._segment.size + 1, dtype=np.float64)
            tree[0] = 0.0
            np.take(row_weights, self._segment, out=tree[1:], mode="clip")
            np.cumsum(tree[1:], out=tree[1:])
            contributions = np.repeat(tree[self._run_hi], self._run_length)
            contributions -= tree[self._lo]
            del tree
            footprint -= np.bincount(self._qpos, contributions, minlength=n)
        return footprint

    def _window_sums(self, queries: np.ndarray, row_weights: np.ndarray) -> np.ndarray:
        """Distinct in-window weight of each query access, window by window.

        For each access ``i`` in ``queries`` (repeat accesses with a
        non-empty window), sums ``row_weights`` over the window positions
        ``prev[i] < j < i`` that are the first in-window occurrence of their
        row (``prev[j] <= prev[i]``), in exact integer arithmetic.  It costs
        one step per window position, so it serves few or short windows;
        :meth:`_footprint` serves the rest.
        """
        starts = self._prev_plus1[queries]
        lengths = queries - starts
        offsets = np.cumsum(lengths) - lengths
        positions = np.repeat((starts - offsets).astype(_INDEX_DTYPE), lengths)
        positions += np.arange(positions.size, dtype=_INDEX_DTYPE)
        # Clipping maps a first occurrence's prev of -1 to 0, which keeps it
        # first-in-window: every window starts after position 0.
        first_in_window = self._prev_plus1[positions] <= np.repeat(starts, lengths)
        # Each temporary is dropped once used: the peak bytes per window
        # position enter the route choice in _evaluate_spectrum.
        rows = self.trace[positions]
        del positions
        weights = row_weights[rows]
        del rows
        weights *= first_in_window
        return np.add.reduceat(weights, offsets)

    def _evaluate_spectrum(
        self, table: np.ndarray, caps: List[int], pinned: Optional[np.ndarray]
    ) -> Dict[int, RowCacheStats]:
        """Evaluate distinct capacities grouped by shared weight table.

        The capacity enters only through the streaming threshold
        (``sizes <= cap``) and the final ``footprint <= cap`` compare.  Two
        capacities produce identical weight tables iff no accessed row's
        size lies strictly between them, so several capacities are grouped
        by ``searchsorted`` over the distinct sizes of the rows present in
        the trace: one weight table per group, then one hit test per
        capacity.  In the common case — every row fits in every queried
        capacity — that is a single group for the whole vector.

        Per group, each repeat access is first decided from its distinct-row
        count ``D``: its footprint lies between ``size + w_min * D`` and
        ``size + w_max * D``, with the weight range taken over the rows
        present in the trace, so it hits if the upper bound fits and misses
        if the lower bound does not.  The accesses these bounds leave open
        get their exact footprint from :meth:`_window_sums` when their
        windows are shorter in total than the tree's segment, and from one
        :meth:`_footprint` tree pass otherwise.  Each result counts once in
        :attr:`routes`, under the last step its capacity needed.

        Pinned rows get weight 0 in the row table and a forced hit.

        Raises:
            ConfigurationError: If ``levels x total lines`` reaches 2**53,
                past which the float64 sums could round.
        """
        n = self.trace.size
        if n == 0:
            self.routes["by_bounds"] += len(caps)
            return {capacity: RowCacheStats() for capacity in caps}

        sizes = table[self.trace]  # true per-access sizes
        total_lines = int(sizes.sum())
        if self._levels * total_lines >= _EXACT_FLOAT_BOUND:
            raise ConfigurationError(
                f"replay of {total_lines} lines over {self._levels} tree levels "
                "exceeds the exact float64 range (levels x lines < 2**53)"
            )
        # Repeat accesses whose outcome the footprint decides.
        decided_by_footprint = self._seen_before
        pinned_hit: Optional[np.ndarray] = None
        if pinned is not None:
            pinned = pinned[(pinned >= 0) & (pinned < table.size)]
            is_pinned = np.zeros(table.size, dtype=bool)
            is_pinned[pinned] = True
            pinned_hit = is_pinned[self.trace]
            decided_by_footprint = decided_by_footprint & ~pinned_hit
        # First occurrences list every row present exactly once.
        first = ~self._seen_before
        groups = _weight_ranges(
            sizes[first], caps, None if pinned_hit is None else pinned_hit[first]
        )
        out: Dict[int, RowCacheStats] = {}
        for group_caps, w_min, w_max in groups:
            row_weights = np.where(table <= group_caps[0], table, 0)
            if pinned is not None:
                row_weights[pinned] = 0

            hits: List[np.ndarray] = []
            open_counts: List[int] = []
            open_any = np.zeros(n, dtype=bool)
            for capacity in group_caps:
                room = capacity - sizes
                hit = _fits(self._distinct, room, w_max)
                hit &= decided_by_footprint
                undecided = _fits(self._distinct, room, w_min)
                undecided &= decided_by_footprint
                undecided &= ~hit
                hits.append(hit)
                open_counts.append(int(np.count_nonzero(undecided)))
                open_any |= undecided
            queries = np.flatnonzero(open_any)
            route = "by_bounds"
            if queries.size:
                # The routes break even near one window position per segment
                # entry: on the paper-8k traces a window position cost 8-15
                # ns and up to 17 bytes at peak, a segment entry on a tree
                # pass 14-17 ns and 17.5-19 bytes.
                window_lines = int(queries.sum()) - int(
                    self._prev_plus1[queries].sum(dtype=np.int64)
                )
                if window_lines < self._segment_size:
                    route = "by_windows"
                    footprint = sizes[queries] + self._window_sums(queries, row_weights)
                else:
                    route = "by_tree"
                    if self._segment is None:
                        self._build_structure(tree=True)
                    footprint = self._footprint(sizes, row_weights.astype(np.float64))
                    footprint = footprint[queries]

            for capacity, hit, open_count in zip(group_caps, hits, open_counts):
                self.routes[route if open_count else "by_bounds"] += 1
                if queries.size:
                    hit[queries] = footprint <= capacity
                if pinned_hit is not None:
                    hit |= pinned_hit
                hit_count = int(np.count_nonzero(hit))
                hit_lines = int(np.dot(sizes, hit))
                out[capacity] = RowCacheStats(
                    accesses=n,
                    hits=hit_count,
                    misses=n - hit_count,
                    miss_lines=total_lines - hit_lines,
                    hit_lines=hit_lines,
                )
        return out


def _weight_ranges(
    present_sizes: np.ndarray,
    caps: List[int],
    present_pinned: Optional[np.ndarray] = None,
) -> List[Tuple[List[int], int, int]]:
    """Group ``caps`` by shared weight table, with each group's weight range.

    ``present_sizes`` holds the size of every row present in the trace,
    once each, and ``present_pinned`` flags the pinned ones.  A row weighs
    its size if it fits the group's capacities and is not pinned, else 0.
    Two capacities share a weight table iff no present row's size lies
    strictly between them.  Returns ``(capacities, w_min, w_max)`` per group,
    in capacity order.
    """
    caps_arr = np.asarray(caps, dtype=np.int64)
    group_of = np.zeros(caps_arr.size, dtype=np.int64)
    if caps_arr.size > 1:
        group_of = np.searchsorted(np.unique(present_sizes), caps_arr, side="right")
    groups = []
    for group in np.unique(group_of):
        group_caps = caps_arr[group_of == group].tolist()
        weights = np.where(present_sizes <= group_caps[0], present_sizes, 0)
        if present_pinned is not None:
            weights[present_pinned] = 0
        groups.append((group_caps, int(weights.min()), int(weights.max())))
    return groups


def _fits(distinct: np.ndarray, room: np.ndarray, weight: int) -> np.ndarray:
    """Elementwise ``weight * distinct <= room``, without int64 overflow.

    ``distinct`` is non-negative and ``weight`` a non-negative row weight;
    for positive ``weight`` the test is ``distinct <= room // weight``
    (floor division, exact for negative ``room`` too).
    """
    if weight == 0:
        return room >= 0
    return distinct <= room // weight


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
    threads it through every run.  Every key carries its graph's
    fingerprint, so no entry is shared across topologies; the session
    therefore clears the cache when a run's graph differs from the previous
    run's (:meth:`repro.core.session.Session.run`).

    Besides the hit/miss counters the cache tracks evictions and an
    approximate resident-bytes gauge (:func:`_entry_bytes` summed over the
    resident entries when it is read, so an engine whose level walk runs
    after insertion is counted at its current size), all reported by
    :meth:`stats` and surfaced through
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
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop every entry, counting each as an eviction.

        Counting the dropped entries keeps :meth:`stats` an accounting
        identity — every miss either remains resident (``entries``) or was
        evicted, so ``hits + misses >= entries + evictions`` always holds.
        """
        self.evictions += len(self._entries)
        self._entries.clear()

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
            "bytes": sum(_entry_bytes(value) for value in self._entries.values()),
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
    "ROUTES",
    "ReplayEngine",
    "TraceCache",
    "array_token",
    "replay_trace",
]
