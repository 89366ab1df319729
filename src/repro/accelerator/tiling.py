"""Aggregation scheduling: topology tiling, engine partitioning, and SAC.

The aggregation phase reads, for every edge ``(src, dst)``, the feature row
of ``dst``.  How those reads are *ordered* determines how much of the reuse
the on-chip cache can capture, and this ordering is exactly where the
modelled accelerators differ:

* **No tiling** (HyGCN): sources are processed in natural order over the
  whole graph; the destination working set is the entire feature matrix.
* **Destination tiling** (EnGN / GCNAX / I-GCN / SGCN): the destination range
  is partitioned into tiles sized to the cache; all sources are swept per
  tile, confining the working set.
* **Engine partitioning**: the parallel aggregation engines each take either
  one contiguous block of the source range (conventional, paper Fig. 7a) or
  interleaved 32-vertex strips (sparsity-aware cooperation, Fig. 7c).  From
  the shared cache's perspective the engines' accesses interleave in time, so
  the partitioning changes the combined working set.

This module builds those orders as flat numpy arrays of destination vertex
ids (one entry per edge access), which the performance simulator replays
through the row-granularity cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.graphs.graph import CSRGraph


@dataclass(frozen=True)
class TilingPlan:
    """A static tiling decision for the aggregation phase.

    Attributes:
        source_tile_vertices: Source vertices whose partial output rows are
            held in the on-chip accumulation (psum) buffer at once (``None``
            disables source tiling: the whole graph is one tile).
        dest_tile_vertices: Destination vertices per tile (``None`` disables
            destination tiling).
        feature_passes: Number of feature-width slices processed as separate
            passes over the topology (1 = whole width at once).
        assumed_row_lines: Cachelines per feature row assumed when the tile
            size was chosen (static, off-line estimate).
    """

    source_tile_vertices: Optional[int]
    dest_tile_vertices: Optional[int]
    feature_passes: int
    assumed_row_lines: float


def _expected_distinct_destinations(
    num_vertices: int, source_tile: int, average_degree: float
) -> float:
    """Expected distinct destinations referenced by one source tile.

    Assumes destinations are drawn (approximately) independently; community
    clustering makes the true value lower, which the trace-driven replay
    captures — this estimate is only used to *choose* the loop order, as the
    accelerators' off-line analyses do.
    """
    edges = source_tile * average_degree
    if num_vertices <= 0:
        return 0.0
    return num_vertices * (1.0 - np.exp(-edges / num_vertices))


def plan_tiling(
    num_vertices: int,
    average_degree: float,
    cache_lines: int,
    psum_buffer_lines: int,
    assumed_row_lines: float,
    output_row_lines: float,
    topology_bytes_per_edge: float,
    supports_feature_slicing: bool,
    use_destination_tiling: bool = True,
    use_source_tiling: bool = True,
    fill_fraction: float = 0.5,
    min_tile_vertices: int = 32,
    min_feature_passes: int = 1,
    max_feature_passes: int = 8,
) -> TilingPlan:
    """Choose the loop order / tile sizes off line, as GCNAX-style designs do.

    Two constraints shape the plan:

    * the partial output rows of the sources being processed must fit the
      on-chip accumulation buffer — this bounds the *source tile*; sources
      beyond it require another sweep that re-reads destination features;
    * the destination features touched by one sweep should fit the cache —
      this bounds the *destination tile* and prevents thrashing.

    Slicing the feature width (``feature_passes`` > 1) relaxes both: each
    pass handles ``1/passes`` of the width, so ``passes`` times more sources
    fit the accumulation buffer (fewer re-read sweeps) at the price of
    streaming the topology once per pass.  The planner evaluates each legal
    pass count with the paper's own style of off-line estimate (expected
    distinct destinations per sweep) and picks the cheapest; formats that
    cannot be read in width slices (whole-row bitmaps, CSR, COO) are fixed at
    a single pass.

    Args:
        num_vertices: Number of vertices.
        average_degree: Average out-degree of the (simulated) graph.
        cache_lines: Cache capacity in cachelines.
        psum_buffer_lines: Accumulation-buffer capacity in cachelines.
        assumed_row_lines: Statically assumed cachelines per input feature row.
        output_row_lines: Cachelines per (dense) output partial-sum row.
        topology_bytes_per_edge: Bytes of topology streamed per edge per pass.
        supports_feature_slicing: Whether the feature format supports slicing.
        use_destination_tiling: Disable to model untiled designs (HyGCN).
        use_source_tiling: Disable for designs without a psum-buffer
            constraint on the source dimension.
        fill_fraction: Fraction of the cache budgeted for a destination tile.
        min_tile_vertices: Smallest tile worth scheduling.
        max_feature_passes: Upper bound on feature slicing passes.
    """
    if num_vertices <= 0 or cache_lines <= 0 or psum_buffer_lines <= 0:
        raise SimulationError("tiling needs positive vertex and buffer sizes")
    if assumed_row_lines <= 0 or output_row_lines <= 0:
        raise SimulationError("assumed row sizes must be positive")

    if not use_source_tiling and not use_destination_tiling:
        return TilingPlan(
            source_tile_vertices=None,
            dest_tile_vertices=None,
            feature_passes=1,
            assumed_row_lines=assumed_row_lines,
        )

    if min_feature_passes < 1 or min_feature_passes > max_feature_passes:
        raise SimulationError("min_feature_passes must lie in [1, max_feature_passes]")
    if supports_feature_slicing:
        candidate_passes = range(min_feature_passes, max_feature_passes + 1)
    else:
        candidate_passes = [min_feature_passes]
    best: Optional[Tuple[float, int, int]] = None
    num_edges = num_vertices * average_degree
    for passes in candidate_passes:
        out_lines_per_pass = max(1.0, output_row_lines / passes)
        in_lines_per_pass = max(1.0, assumed_row_lines / passes)
        if use_source_tiling:
            source_tile = int(psum_buffer_lines / out_lines_per_pass)
            source_tile = max(min_tile_vertices, min(source_tile, num_vertices))
        else:
            source_tile = num_vertices
        sweeps = int(np.ceil(num_vertices / source_tile))
        distinct = _expected_distinct_destinations(num_vertices, source_tile, average_degree)
        feature_bytes = passes * sweeps * distinct * in_lines_per_pass * 64.0
        topology_bytes = passes * num_edges * topology_bytes_per_edge
        cost = feature_bytes + topology_bytes
        if best is None or cost < best[0]:
            best = (cost, passes, source_tile)

    assert best is not None
    _, passes, source_tile = best
    in_lines_per_pass = max(1.0, assumed_row_lines / passes)

    if use_destination_tiling:
        budget_lines = cache_lines * fill_fraction
        dest_tile = int(budget_lines / in_lines_per_pass)
        dest_tile = max(min_tile_vertices, min(dest_tile, num_vertices))
    else:
        dest_tile = None

    return TilingPlan(
        source_tile_vertices=source_tile if use_source_tiling else None,
        dest_tile_vertices=dest_tile,
        feature_passes=passes,
        assumed_row_lines=assumed_row_lines,
    )


def source_processing_order(
    num_vertices: int,
    num_engines: int,
    mode: str = "contiguous",
    strip_height: int = 32,
) -> np.ndarray:
    """Order in which source vertices are processed by the parallel engines.

    Engines run concurrently, so from the shared cache's point of view their
    per-vertex work interleaves round-robin.

    Args:
        num_vertices: Number of source vertices.
        num_engines: Number of aggregation engines.
        mode: ``"contiguous"`` — each engine owns one contiguous block of the
            source range (conventional); ``"sac"`` — 32-vertex strips are
            dealt round-robin to the engines (sparsity-aware cooperation).
        strip_height: Strip height for SAC.

    Returns:
        A permutation of ``0..num_vertices-1`` giving the interleaved global
        processing order.
    """
    if num_vertices <= 0:
        raise SimulationError("need at least one source vertex")
    if num_engines <= 0:
        raise SimulationError("need at least one engine")
    if mode not in ("contiguous", "sac"):
        raise SimulationError(f"unknown engine partitioning mode {mode!r}")

    if num_engines == 1:
        return np.arange(num_vertices, dtype=np.int64)

    if mode == "contiguous":
        # vertex[offset, engine] = engine * block + offset, walked offset-major
        # (the engines advance through their blocks in lockstep).
        block = ceil(num_vertices / num_engines)
        grid = (
            np.arange(num_engines, dtype=np.int64)[None, :] * block
            + np.arange(block, dtype=np.int64)[:, None]
        )
        order = grid.ravel()
        return order[order < num_vertices]

    # Sparsity-aware cooperation: strips dealt round-robin; at any moment the
    # engines work on `num_engines` *consecutive* strips, then advance
    # together to the next strip group.
    if strip_height <= 0:
        raise SimulationError("strip height must be positive")
    num_strips = ceil(num_vertices / strip_height)
    num_groups = ceil(num_strips / num_engines)
    # vertex[group, offset, strip] = strip_id * H + offset, walked group-major
    # then offset-major across the group's strips.
    strip_ids = np.arange(num_groups * num_engines, dtype=np.int64).reshape(
        num_groups, num_engines
    )
    vertices = (
        strip_ids[:, None, :] * strip_height
        + np.arange(strip_height, dtype=np.int64)[None, :, None]
    )
    valid = (strip_ids[:, None, :] < num_strips) & (vertices < num_vertices)
    return vertices.ravel()[valid.ravel()]


def aggregation_access_trace(
    graph: CSRGraph,
    plan: TilingPlan,
    num_engines: int,
    engine_partition: str = "contiguous",
    strip_height: int = 32,
) -> np.ndarray:
    """Destination-id sequence of the aggregation feature reads.

    The loop nest replayed is the one the tiling plan describes::

        for source_tile:                # bounded by the psum buffer
            for destination_tile:       # bounded by the cache
                for source in engine-interleaved order within the tile:
                    for edge (source, dest) with dest in destination_tile:
                        access feature row `dest`

    Sources within a tile are visited in the order the parallel engines
    interleave them: contiguous per-engine blocks (conventional) or dealt
    32-vertex strips (sparsity-aware cooperation).

    Returns:
        An ``int64`` array with one destination vertex id per feature-row
        access; its length equals the number of edges (each edge's
        destination is read exactly once per full sweep of one feature pass).
    """
    num_vertices = graph.num_vertices
    indptr = graph.indptr
    indices = graph.indices

    source_tile = plan.source_tile_vertices or num_vertices
    dest_tile = plan.dest_tile_vertices or num_vertices

    # Engine-interleaved source sequence, one segment per source tile.
    segments: List[np.ndarray] = []
    for src_start in range(0, num_vertices, source_tile):
        src_stop = min(num_vertices, src_start + source_tile)
        local_order = source_processing_order(
            num_vertices=src_stop - src_start,
            num_engines=num_engines,
            mode=engine_partition,
            strip_height=strip_height,
        )
        segments.append(local_order + src_start)
    source_seq = np.concatenate(segments) if segments else np.zeros(0, dtype=np.int64)
    segment_lengths = np.asarray([s.size for s in segments], dtype=np.int64)

    # Expand the sequence to one entry per edge (CSR slice gather).
    counts = indptr[source_seq + 1] - indptr[source_seq]
    num_edges = int(counts.sum())
    if num_edges == 0:
        return np.zeros(0, dtype=np.int64)
    output_starts = np.cumsum(counts) - counts
    within = np.arange(num_edges, dtype=np.int64) - np.repeat(output_starts, counts)
    dests = indices[np.repeat(indptr[source_seq], counts) + within]

    # Replaying the loop nest (source tile -> destination tile -> source ->
    # edge) is a stable sort of the edges by (source tile, destination tile,
    # position in the engine-interleaved order); within one (source, tile)
    # pair the CSR neighbour order survives because the sort is stable.
    num_dest_tiles = -(-num_vertices // dest_tile)
    position_of_edge = np.repeat(
        np.arange(source_seq.size, dtype=np.int64), counts
    )
    if num_dest_tiles == 1 and len(segments) == 1:
        return dests.astype(np.int64)
    source_tile_of_edge = np.repeat(
        np.repeat(np.arange(len(segments), dtype=np.int64), segment_lengths), counts
    )
    dest_tile_of_edge = dests // dest_tile
    key = (
        source_tile_of_edge * num_dest_tiles + dest_tile_of_edge
    ) * source_seq.size + position_of_edge
    return dests[np.argsort(key, kind="stable")].astype(np.int64)


def locality_reordering(graph: CSRGraph) -> np.ndarray:
    """Locality-improving vertex permutation (I-GCN "islandization" stand-in).

    I-GCN dynamically reorders vertices with a BFS-based islandization so
    that densely connected groups (islands) occupy consecutive ids.  We use a
    BFS over the symmetrised graph from the highest-degree vertex, appending
    unreached components afterwards, which produces the same qualitative
    effect: neighbours get nearby ids and the adjacency concentrates near the
    diagonal.

    Returns:
        ``permutation`` with ``permutation[old_id] == new_id``.
    """
    undirected = graph.symmetrized()
    num_vertices = undirected.num_vertices
    indptr = undirected.indptr
    indices = undirected.indices
    visited = np.zeros(num_vertices, dtype=bool)
    new_ids = np.full(num_vertices, -1, dtype=np.int64)
    next_id = 0

    order_seed = np.argsort(-undirected.degrees, kind="stable")

    for seed in order_seed.tolist():
        if visited[seed]:
            continue
        # Level-synchronous BFS.  A FIFO queue assigns ids in pop order,
        # which is exactly level order with each level in discovery order
        # (parent position first, CSR neighbour order second, first parent
        # wins) — so batching the frontier keeps the permutation identical.
        frontier = np.asarray([seed], dtype=np.int64)
        visited[seed] = True
        while frontier.size:
            new_ids[frontier] = np.arange(
                next_id, next_id + frontier.size, dtype=np.int64
            )
            next_id += frontier.size
            counts = indptr[frontier + 1] - indptr[frontier]
            total = int(counts.sum())
            if total == 0:
                break
            output_starts = np.cumsum(counts) - counts
            within = np.arange(total, dtype=np.int64) - np.repeat(output_starts, counts)
            neighbors = indices[np.repeat(indptr[frontier], counts) + within]
            neighbors = neighbors[~visited[neighbors]]
            # Deduplicate keeping the first (earliest-discovered) occurrence.
            _, first_positions = np.unique(neighbors, return_index=True)
            frontier = neighbors[np.sort(first_positions)]
            visited[frontier] = True
    if next_id != num_vertices:
        raise SimulationError("reordering failed to cover every vertex")
    return new_ids
