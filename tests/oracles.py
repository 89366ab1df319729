"""Loop-based reference implementations the vectorized code is tested against.

Each oracle is the straightforward per-access / per-vertex / per-slice loop
that the production code replaces with array operations.  They are slow,
which is why they live here and not in ``src/``: the tests pin the
vectorized implementations against them on randomized and adversarial
inputs.

* :class:`RowCache` — the fully-associative LRU row cache, one access at a
  time (oracle of :class:`repro.memory.replay.ReplayEngine`);
* :func:`replay_structure_reference` — the replay engine's mergesort-tree
  arrays built as one composite-key sort (oracle of
  ``ReplayEngine._build_structure``);
* :func:`pinned_partition_replay` — replay with a dedicated pinned-row
  partition (EnGN's DAVC), the per-access loop of the pinned replay;
* :func:`source_processing_order_reference`,
  :func:`aggregation_access_trace_reference`,
  :func:`locality_reordering_reference` — oracles of the schedule builders
  in :mod:`repro.accelerator.tiling`;
* :func:`per_slice_nonzeros_reference` — oracle of
  :func:`repro.gcn.sparsity.per_slice_nonzeros`;
* :func:`csr_from_edge_list_reference`, :func:`transpose_reference`,
  :func:`symmetrized_reference` — CSR construction as three sorts
  (``np.unique``, ``np.sort``, ``np.lexsort``), oracles of
  :meth:`repro.graphs.graph.CSRGraph.from_edge_list` and of the
  transformations built on its single stable sort.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from math import ceil
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.accelerator.tiling import TilingPlan
from repro.errors import ConfigurationError, GraphError, SimulationError
from repro.graphs.graph import CSRGraph
from repro.memory.rowcache import RowCacheStats


# --------------------------------------------------------------------------- #
# Row cache
# --------------------------------------------------------------------------- #
class RowCache:
    """Fully-associative LRU cache of variable-size feature rows.

    Args:
        capacity_lines: Capacity in cachelines.
    """

    def __init__(self, capacity_lines: int) -> None:
        if capacity_lines <= 0:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity_lines = int(capacity_lines)
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self._used_lines = 0
        self.stats = RowCacheStats()

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Empty the cache and clear the statistics."""
        self._entries.clear()
        self._used_lines = 0
        self.stats = RowCacheStats()

    def flush(self) -> None:
        """Empty the cache, keeping the statistics."""
        self._entries.clear()
        self._used_lines = 0

    def reset_stats(self) -> None:
        """Clear the statistics, keeping the contents."""
        self.stats = RowCacheStats()

    @property
    def used_lines(self) -> int:
        """Number of cachelines currently occupied."""
        return self._used_lines

    def occupancy(self) -> float:
        """Fraction of the capacity currently in use."""
        return self._used_lines / self.capacity_lines

    def contains(self, row: int) -> bool:
        """Whether ``row`` is resident (no LRU update, no stats)."""
        return row in self._entries

    # ------------------------------------------------------------------ #
    def access(self, row: int, size_lines: int) -> bool:
        """Access ``row`` occupying ``size_lines`` cachelines.

        Returns ``True`` on a hit.  On a miss the row is installed, evicting
        least-recently-used rows until it fits.  If a resident row is
        re-accessed with a different size (a new layer reusing the same
        vertex id), the entry is resized and treated as a hit only when the
        new size does not exceed the cached size.
        """
        size_lines = int(size_lines)
        self.stats.accesses += 1
        entries = self._entries
        if row in entries:
            cached_size = entries.pop(row)
            if size_lines <= cached_size:
                entries[row] = cached_size
                self.stats.hits += 1
                self.stats.hit_lines += size_lines
                return True
            # Larger than what is cached: fetch the difference.
            self._used_lines -= cached_size
            self._install(row, size_lines)
            self.stats.misses += 1
            self.stats.miss_lines += size_lines - cached_size
            self.stats.hit_lines += cached_size
            return False

        self.stats.misses += 1
        self.stats.miss_lines += size_lines
        self._install(row, size_lines)
        return False

    def access_trace(self, rows: np.ndarray, sizes: np.ndarray) -> RowCacheStats:
        """Access a whole trace; ``sizes[row]`` gives each row's size in lines.

        Args:
            rows: Row ids in access order.
            sizes: Per-row size lookup table (indexed by row id).

        Returns:
            The cache's cumulative statistics (also available as ``.stats``).
        """
        access = self.access
        sizes_list = sizes.tolist()
        for row in rows.tolist():
            access(row, sizes_list[row])
        return self.stats

    # ------------------------------------------------------------------ #
    def _install(self, row: int, size_lines: int) -> None:
        entries = self._entries
        if size_lines > self.capacity_lines:
            # A row larger than the whole cache streams through: nothing is
            # retained, so do not install it.
            return
        while self._used_lines + size_lines > self.capacity_lines and entries:
            _, evicted_size = entries.popitem(last=False)
            self._used_lines -= evicted_size
        entries[row] = size_lines
        self._used_lines += size_lines


def pinned_partition_replay(
    trace: np.ndarray, sizes: np.ndarray, capacity_lines: int, pinned: Iterable[int]
) -> RowCacheStats:
    """Replay ``trace`` with ``pinned`` rows held in a dedicated partition.

    Pinned accesses always hit and never enter the shared cache; every other
    access goes through a :class:`RowCache` of ``capacity_lines``.
    """
    cache = RowCache(capacity_lines)
    pinned_set = set(int(row) for row in pinned)
    stats = RowCacheStats()
    size_list = np.asarray(sizes).tolist()
    for row in np.asarray(trace).tolist():
        size = size_list[row]
        stats.accesses += 1
        if row in pinned_set or cache.access(row, size):
            stats.hits += 1
            stats.hit_lines += size
        else:
            stats.misses += 1
            stats.miss_lines += size
    return stats


def replay_structure_reference(trace: np.ndarray) -> Dict[str, np.ndarray]:
    """Composite-key reference of ``ReplayEngine._build_structure``.

    Materializes the ``levels x n`` contributor/query side matrix, sorts
    every contributor and every query by one ``(heap node, prev)``
    composite key, locates each live query with ``searchsorted`` and cuts
    the query entries into one run per heap node.  Returns the five
    structure arrays keyed by the engine's attribute names.
    """
    trace = np.asarray(trace, dtype=np.int64)
    n = trace.size
    prev = np.full(n, -1, dtype=np.int64)
    last_seen: Dict[int, int] = {}
    for position, row in enumerate(trace.tolist()):
        prev[position] = last_seen.get(row, -1)
        last_seen[row] = position
    names = ("_segment", "_qpos", "_lo", "_run_hi", "_run_length")
    if n < 2 or not np.any(prev >= 0):
        return {name: np.zeros(0, dtype=np.int32) for name in names}

    # Position j is a contributor at level l (half-width 2**(l-1)) iff bit
    # l-1 of j is 0, a query iff it is 1; (level, block) pairs are numbered
    # like heap nodes (root first) so the whole tree flattens into one sort.
    num_levels = max(1, int(np.ceil(np.log2(n))))
    levels = np.arange(1, num_levels + 1, dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    seen = prev >= 0
    side = (positions[None, :] >> (levels[:, None] - 1)) & 1
    level_of, pos_of = np.nonzero((side == 0) & seen[None, :])
    level_of += 1
    node_of = (np.int64(1) << (num_levels - level_of)) + (pos_of >> level_of)

    q_level, q_pos = np.nonzero((side == 1) & seen[None, :])
    q_level += 1
    q_node = (np.int64(1) << (num_levels - q_level)) + (q_pos >> q_level)
    node_space = (np.int64(1) << num_levels) + 1

    key_span = np.int64(n) + 2
    key = node_of * key_span + (prev[pos_of] + 1)
    order = np.argsort(key, kind="stable")
    contributors = pos_of[order]
    sorted_key = key[order]
    node_sorted = node_of[order]

    # A query is live iff some contributor of its node has a larger prev.
    node_max_prev = np.full(node_space, -2, dtype=np.int64)
    node_max_prev[node_sorted] = prev[contributors]
    live = prev[q_pos] < node_max_prev[q_node]
    q_pos, q_node = q_pos[live], q_node[live]
    q_key = q_node * key_span + (prev[q_pos] + 1)
    by_key = np.argsort(q_key, kind="stable")
    q_pos, q_node, q_key = q_pos[by_key], q_node[by_key], q_key[by_key]

    lo = np.searchsorted(sorted_key, q_key, side="right")
    max_node = int(node_sorted[-1]) if node_sorted.size else 0
    segment_ends = np.cumsum(np.bincount(node_sorted, minlength=max_node + 2))
    hi = segment_ends[np.minimum(q_node, max_node + 1)]

    is_start = np.ones(q_node.size, dtype=bool)
    if q_node.size:
        is_start[1:] = q_node[1:] != q_node[:-1]
    run_starts = np.flatnonzero(is_start)
    arrays = (
        trace[contributors],
        q_pos,
        lo,
        hi[run_starts],
        np.diff(np.append(run_starts, q_node.size)),
    )
    return {name: array.astype(np.int32) for name, array in zip(names, arrays)}


# --------------------------------------------------------------------------- #
# Schedule builders
# --------------------------------------------------------------------------- #
def source_processing_order_reference(
    num_vertices: int,
    num_engines: int,
    mode: str = "contiguous",
    strip_height: int = 32,
) -> np.ndarray:
    """Loop-based reference of :func:`source_processing_order`."""
    if num_vertices <= 0:
        raise SimulationError("need at least one source vertex")
    if num_engines <= 0:
        raise SimulationError("need at least one engine")
    if mode not in ("contiguous", "sac"):
        raise SimulationError(f"unknown engine partitioning mode {mode!r}")

    if num_engines == 1:
        return np.arange(num_vertices, dtype=np.int64)

    if mode == "contiguous":
        block = ceil(num_vertices / num_engines)
        order = []
        for offset in range(block):
            for engine in range(num_engines):
                vertex = engine * block + offset
                if vertex < num_vertices:
                    order.append(vertex)
        return np.asarray(order, dtype=np.int64)

    if strip_height <= 0:
        raise SimulationError("strip height must be positive")
    num_strips = ceil(num_vertices / strip_height)
    order = []
    for group_start in range(0, num_strips, num_engines):
        group = list(range(group_start, min(group_start + num_engines, num_strips)))
        for offset in range(strip_height):
            for strip in group:
                vertex = strip * strip_height + offset
                if vertex < num_vertices:
                    order.append(vertex)
    return np.asarray(order, dtype=np.int64)


def aggregation_access_trace_reference(
    graph: CSRGraph,
    plan: TilingPlan,
    num_engines: int,
    engine_partition: str = "contiguous",
    strip_height: int = 32,
) -> np.ndarray:
    """Loop-based reference of :func:`aggregation_access_trace`."""
    num_vertices = graph.num_vertices
    indptr = graph.indptr
    indices = graph.indices

    source_tile = plan.source_tile_vertices or num_vertices
    dest_tile = plan.dest_tile_vertices or num_vertices

    trace_chunks: List[np.ndarray] = []
    for src_start in range(0, num_vertices, source_tile):
        src_stop = min(num_vertices, src_start + source_tile)
        local_order = source_processing_order_reference(
            num_vertices=src_stop - src_start,
            num_engines=num_engines,
            mode=engine_partition,
            strip_height=strip_height,
        )
        tile_sources = (local_order + src_start).tolist()
        for dst_start in range(0, num_vertices, dest_tile):
            dst_stop = min(num_vertices, dst_start + dest_tile)
            for src in tile_sources:
                start, stop = indptr[src], indptr[src + 1]
                if stop == start:
                    continue
                neighbors = indices[start:stop]
                if dest_tile >= num_vertices:
                    trace_chunks.append(neighbors)
                    continue
                # CSR neighbours are sorted, so the in-tile range is contiguous.
                lo = np.searchsorted(neighbors, dst_start, side="left")
                hi = np.searchsorted(neighbors, dst_stop, side="left")
                if hi > lo:
                    trace_chunks.append(neighbors[lo:hi])
    if not trace_chunks:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(trace_chunks).astype(np.int64)


def locality_reordering_reference(graph: CSRGraph) -> np.ndarray:
    """Loop-based (FIFO-queue BFS) reference of :func:`locality_reordering`."""
    undirected = graph.symmetrized()
    num_vertices = undirected.num_vertices
    visited = np.zeros(num_vertices, dtype=bool)
    new_ids = np.full(num_vertices, -1, dtype=np.int64)
    next_id = 0

    order_seed = np.argsort(-undirected.degrees, kind="stable")
    for seed in order_seed.tolist():
        if visited[seed]:
            continue
        queue = deque([seed])
        visited[seed] = True
        while queue:
            vertex = queue.popleft()
            new_ids[vertex] = next_id
            next_id += 1
            for neighbor in undirected.neighbors(vertex).tolist():
                if not visited[neighbor]:
                    visited[neighbor] = True
                    queue.append(neighbor)
    if next_id != num_vertices:
        raise SimulationError("reordering failed to cover every vertex")
    return new_ids


# --------------------------------------------------------------------------- #
# Sparsity
# --------------------------------------------------------------------------- #
def per_slice_nonzeros_reference(matrix: np.ndarray, slice_size: int) -> np.ndarray:
    """Loop-over-slices reference of :func:`repro.gcn.sparsity.per_slice_nonzeros`."""
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise SimulationError("feature matrix must be two-dimensional")
    if slice_size <= 0:
        raise SimulationError("slice size must be positive")
    rows, width = matrix.shape
    num_slices = (width + slice_size - 1) // slice_size
    counts = np.zeros((rows, num_slices), dtype=np.int64)
    for index in range(num_slices):
        start = index * slice_size
        stop = min(width, start + slice_size)
        counts[:, index] = np.count_nonzero(matrix[:, start:stop], axis=1)
    return counts


# --------------------------------------------------------------------------- #
# Graph construction
# --------------------------------------------------------------------------- #
def csr_from_edge_list_reference(
    num_vertices: int,
    edges: Iterable[Tuple[int, int]],
    weights: Optional[Sequence[float]] = None,
    name: str = "graph",
    deduplicate: bool = True,
) -> CSRGraph:
    """Three-sort reference of :meth:`CSRGraph.from_edge_list`.

    Deduplicates with ``np.unique`` (first occurrence) re-sorted into input
    order, then orders the edges with a ``np.lexsort`` by (source,
    destination).
    """
    edge_array = np.asarray(
        edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
    )
    if edge_array.size == 0:
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        return CSRGraph(indptr, np.zeros(0, dtype=np.int64), name=name)
    if edge_array.ndim != 2 or edge_array.shape[1] != 2:
        raise GraphError("edges must be (source, destination) pairs")
    if edge_array.min() < 0 or edge_array.max() >= num_vertices:
        raise GraphError("edge endpoints must lie in [0, num_vertices)")

    if weights is None:
        weight_array = np.ones(edge_array.shape[0], dtype=np.float32)
    else:
        weight_array = np.asarray(weights, dtype=np.float32)
        if weight_array.shape[0] != edge_array.shape[0]:
            raise GraphError("weights must align with edges")

    if deduplicate:
        keys = edge_array[:, 0] * num_vertices + edge_array[:, 1]
        _, unique_idx = np.unique(keys, return_index=True)
        unique_idx = np.sort(unique_idx)
        edge_array = edge_array[unique_idx]
        weight_array = weight_array[unique_idx]

    order = np.lexsort((edge_array[:, 1], edge_array[:, 0]))
    edge_array = edge_array[order]
    weight_array = weight_array[order]

    counts = np.bincount(edge_array[:, 0], minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, edge_array[:, 1], weight_array, name=name)


def transpose_reference(graph: CSRGraph) -> CSRGraph:
    """Reference of :meth:`CSRGraph.transpose` through the three-sort build."""
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    pairs = np.stack([graph.indices, sources], axis=1)
    return csr_from_edge_list_reference(
        graph.num_vertices, pairs, weights=graph.weights, name=graph.name,
        deduplicate=False,
    )


def symmetrized_reference(graph: CSRGraph) -> CSRGraph:
    """Reference of :meth:`CSRGraph.symmetrized` through the three-sort build."""
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    forward = np.stack([sources, graph.indices], axis=1)
    backward = np.stack([graph.indices, sources], axis=1)
    pairs = np.concatenate([forward, backward], axis=0)
    weights = np.concatenate([graph.weights, graph.weights])
    return csr_from_edge_list_reference(
        graph.num_vertices, pairs, weights=weights, name=graph.name, deduplicate=True
    )
