"""The phase pipeline that executes a :class:`~repro.accelerator.design.DesignPoint`.

The simulator follows the structure of the paper's evaluation methodology
(Section VI-A) at a phase level rather than cycle-by-cycle.  This module is
the *how* of a simulation; the *what* — the accelerator's design choices — is
a plain :class:`~repro.accelerator.design.DesignPoint` consumed by every
stage.  A full run is an explicit five-stage pipeline
(:func:`simulate_design`):

1. :func:`build_context` — resolve the graph the dataflow walks (locality
   reordering, column-product transposition), the scaled cache capacity, and
   the engine/DRAM/energy models;
2. :func:`schedule` — plan the tiling, build the aggregation access trace,
   and select the pinned-vertex partition;
3. :func:`replay` — sample representative layers, build their per-row
   transfer tables, and replay every cache access of the run through the
   trace's :class:`~repro.memory.replay.ReplayEngine`;
4. :func:`timing` — convert replay statistics and compute models into
   per-layer cycles and traffic;
5. :func:`energy` — price the counted events and assemble the
   :class:`~repro.core.results.LayerResult` documents.

Each stage is a small function over explicit inputs, so a stage can be
tested (or swapped) in isolation; none of them reads accelerator state from
anywhere but the design point.  Stages 3–5 take the :class:`RunContext`.
The schedule takes only the design, format, dataset, graph and the
:class:`~repro.core.config.ScheduleConfig` record, so equal records plan
equal schedules (the replay-class contract of
:func:`repro.core.session.replay_class_key`).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.accelerator.design import DesignPoint
from repro.accelerator.engines import SIMDAggregationEngine
from repro.accelerator.systolic import SystolicArray
from repro.accelerator.tiling import (
    TilingPlan,
    aggregation_access_trace,
    locality_reordering,
    plan_tiling,
)
from repro.core.config import (
    CACHELINE_BYTES,
    ELEMENT_BYTES,
    ScheduleConfig,
    SystemConfig,
)
from repro.core.results import LayerResult, SimulationResult, TrafficBreakdown
from repro.errors import FaultInjectionError, SimulationError
from repro.formats.base import FeatureFormat, bytes_to_lines
from repro.gcn.providers import SparsityProvider, SyntheticSparsityProvider
from repro.graphs.datasets import Dataset
from repro.graphs.graph import CSRGraph
from repro.memory.dram import DRAMModel, TrafficPattern
from repro.memory.energy import EnergyTable
from repro.memory.replay import ReplayEngine, TraceCache
from repro.memory.rowcache import RowCacheStats
from repro.resilience.faults import fault_point
from repro.resilience.policy import check_deadline
from repro.telemetry.spans import span

logger = logging.getLogger(__name__)

_CacheValue = TypeVar("_CacheValue")


def _trace_cache_get(
    cache: Optional[TraceCache],
    key: Tuple,
    builder: "Callable[[], _CacheValue]",
) -> "_CacheValue":
    """Trace-cache lookup that degrades to uncached execution.

    Without a cache (``None``) it calls ``builder``.  The ``cache:trace``
    fault site models the shared memo becoming unavailable; an injected
    failure (or, defensively, any cache-layer fault) falls back to calling
    ``builder`` directly — slower, never wrong — instead of failing the run.
    """
    if cache is None:
        return builder()
    try:
        fault_point("cache:trace")
    except FaultInjectionError as exc:
        logger.warning("trace cache unavailable (%s); building uncached", exc)
        return builder()
    return cache.get(key, builder)


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class LayerWorkload:
    """One GCN layer as seen by the accelerator.

    Attributes:
        layer_index: Zero-based layer index.
        width_in: Width of the input features ``X_l``.
        width_out: Width of the output features ``X_{l+1}``.
        input_sparsity: Sparsity of ``X_l``.
        output_sparsity: Sparsity of ``X_{l+1}``.
        is_first_layer: Whether ``X_l`` is the dataset's given input features.
        edge_fraction: Fraction of edges processed (GraphSAGE sampling).
        weighted_aggregation: Whether edge weights are streamed with the
            topology (GCN yes, GINConv no).
    """

    layer_index: int
    width_in: int
    width_out: int
    input_sparsity: float
    output_sparsity: float
    is_first_layer: bool = False
    edge_fraction: float = 1.0
    weighted_aggregation: bool = True


#: Aggregation variants supported by :func:`build_workloads`.
GCN_VARIANTS = ("gcn", "gin", "sage")

#: Edge fraction retained by GraphSAGE's neighbour sampling (Fig. 16b).
SAGE_EDGE_FRACTION = 0.6


def build_workloads(dataset: Dataset, variant: str = "gcn") -> List[LayerWorkload]:
    """Build the per-layer workloads of a deep residual GCN on ``dataset``.

    Args:
        dataset: Dataset (provides widths, layer count, sparsity profile).
        variant: ``"gcn"``, ``"gin"``, or ``"sage"`` (paper Fig. 16).
    """
    variant = variant.lower()
    if variant not in GCN_VARIANTS:
        raise SimulationError(f"unknown GCN variant {variant!r}; choose from {GCN_VARIANTS}")
    edge_fraction = SAGE_EDGE_FRACTION if variant == "sage" else 1.0
    weighted = variant == "gcn"

    profile = dataset.layer_sparsities()
    hidden = dataset.hidden_width
    workloads: List[LayerWorkload] = []
    for index in range(dataset.num_layers):
        if index == 0:
            width_in = dataset.input_feature_width
            input_sparsity = dataset.input_sparsity
        else:
            width_in = hidden
            input_sparsity = profile[index - 1]
        workloads.append(
            LayerWorkload(
                layer_index=index,
                width_in=width_in,
                width_out=hidden,
                input_sparsity=float(input_sparsity),
                output_sparsity=float(profile[index]),
                is_first_layer=index == 0,
                edge_fraction=edge_fraction,
                weighted_aggregation=weighted,
            )
        )
    return workloads


@dataclass
class PhaseResult:
    """Cycle/traffic/compute accounting of one phase of one layer."""

    cycles: float = 0.0
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    macs: float = 0.0
    traffic: TrafficBreakdown = field(default_factory=TrafficBreakdown)
    cache_accesses: float = 0.0
    cache_hit_rate: float = 0.0


# --------------------------------------------------------------------------- #
# Stage 1: context construction
# --------------------------------------------------------------------------- #
@dataclass
class RunContext:
    """Objects built once per (design, dataset, config) run.

    Stage 1 (:func:`build_context`) fills everything except ``plan``, which
    holds the output of stage 2 (:func:`schedule`).
    """

    design: DesignPoint
    feature_format: FeatureFormat
    dataset: Dataset
    graph: CSRGraph
    config: SystemConfig
    cache_lines: int
    simd: SIMDAggregationEngine
    systolic: SystolicArray
    dram: DRAMModel
    energy_table: EnergyTable
    #: Cross-run memo (owned by the Session) for traces/engines/derived graphs.
    trace_cache: Optional[TraceCache] = None
    #: Source of the per-layer/row/slice sparsity tables; the synthetic
    #: provider (the historical behaviour, byte for byte) when ``None``.
    sparsity: Optional[SparsityProvider] = None
    #: The static schedule, set from :func:`schedule`'s result.
    plan: Optional[SchedulePlan] = None
    #: Sweep-provided cache capacities (in bytes) this run's trace will also
    #: be evaluated at.  The replay stage answers the whole vector in one
    #: :meth:`ReplayEngine.evaluate` call, seeding the engine's result memo
    #: so the sibling runs of a capacity sweep replay nothing at all.
    capacity_spectrum: Tuple[int, ...] = ()
    #: The trace's replay engine, built on first use (see :meth:`engine`).
    replay_engine: Optional[ReplayEngine] = None

    @property
    def scheduled(self) -> SchedulePlan:
        """The stage-2 plan; raises if :func:`schedule` has not run."""
        if self.plan is None:
            raise SimulationError("the run context has no schedule yet")
        return self.plan

    def engine(self) -> ReplayEngine:
        """Replay engine of the trace, shared through the trace cache."""
        if self.replay_engine is None:
            plan = self.scheduled
            # Only designs with a trace replay, and those carry a token.
            assert plan.trace_token is not None
            self.replay_engine = _trace_cache_get(
                self.trace_cache,
                ("engine",) + plan.trace_token,
                lambda: ReplayEngine(plan.trace),
            )
        return self.replay_engine


def _reordered_for_locality(graph: CSRGraph) -> CSRGraph:
    # Islandization reorders vertices so islands occupy consecutive ids.  On
    # graphs that already have a locality-friendly ordering the pass detects
    # no profitable islands and leaves the order alone, so the reordering
    # never degrades locality.
    # Timed here, inside the trace-cache builder, so cache hits cost no span.
    from repro.graphs.stats import clustering_score

    with span("reorder"):
        reordered = graph.reorder(locality_reordering(graph))
        if clustering_score(reordered) >= clustering_score(graph):
            return reordered
        return graph


def effective_cache_lines(dataset: Dataset, capacity_bytes: int, line_bytes: int) -> int:
    """Cache capacity (in lines) used for ``dataset``.

    Datasets are simulated at a reduced scale; the cache of
    ``capacity_bytes`` is scaled by the same factor so the
    working-set-to-cache ratio of the paper's configuration is preserved,
    with a floor of a few dozen feature rows so tiny scaled graphs still
    exercise the cache at all.  The replay maps its own capacity, each swept
    capacity, and the schedule maps its planning capacity through here.
    """
    num_lines = int(capacity_bytes) // line_bytes
    scaled = int(num_lines * dataset.cache_scale())
    dense_row_lines = bytes_to_lines(dataset.hidden_width * ELEMENT_BYTES)
    floor = 32 * dense_row_lines
    return int(min(num_lines, max(floor, scaled)))


def build_context(
    design: DesignPoint,
    fmt: FeatureFormat,
    dataset: Dataset,
    config: SystemConfig,
    trace_cache: Optional[TraceCache] = None,
    sparsity: Optional[SparsityProvider] = None,
    capacity_spectrum: Sequence[int] = (),
) -> RunContext:
    """Stage 1: resolve the graph, the scaled cache, and the engine models."""
    graph = dataset.graph
    if design.reorders_graph:
        original = graph
        graph = _trace_cache_get(
            trace_cache,
            ("reordered", original.fingerprint()),
            lambda: _reordered_for_locality(original),
        )
    if design.column_product:
        # Column-product execution walks the transposed adjacency: for every
        # destination column it gathers the corresponding input feature row,
        # so the random feature accesses follow A^T.
        graph = _trace_cache_get(
            trace_cache, ("transposed", graph.fingerprint()), graph.transpose
        )

    return RunContext(
        design=design,
        feature_format=fmt,
        dataset=dataset,
        graph=graph,
        config=config,
        cache_lines=effective_cache_lines(
            dataset, config.cache.capacity_bytes, config.cache.line_bytes
        ),
        simd=SIMDAggregationEngine(config.engines),
        systolic=SystolicArray(config.engines),
        dram=DRAMModel(config.dram),
        energy_table=EnergyTable(),
        trace_cache=trace_cache,
        sparsity=sparsity,
        capacity_spectrum=tuple(int(capacity) for capacity in capacity_spectrum),
    )


# --------------------------------------------------------------------------- #
# Stage 2: schedule (tiling plan, access trace, pinned partition)
# --------------------------------------------------------------------------- #
class SchedulePlan(NamedTuple):
    """Stage-2 output: the static schedule of one run (see :func:`schedule`).

    Attributes:
        tiling: The tiling plan.
        trace: The aggregation access trace (empty for column-product
            designs, which replay none).
        trace_token: Key prefix identifying the trace within the trace
            cache; ``None`` when there is no trace.
        pinned_vertices: Rows held in the pinned cache partition.
    """

    tiling: TilingPlan
    trace: np.ndarray
    trace_token: Optional[Tuple]
    pinned_vertices: np.ndarray


def _format_slices_cleanly(fmt: FeatureFormat, width: int, passes: int) -> bool:
    """Whether ``fmt`` can serve a ``passes``-way width split exactly.

    Dense rows split at cacheline granularity.  Sliced BEICSR splits at
    unit-slice (``C``) granularity, so it needs at least ``passes`` unit
    slices across the width.  Whole-row-bitmap BEICSR, CSR, and COO cannot
    locate a width slice without reading the preceding data, so they never
    split cleanly.
    """
    if passes <= 1:
        return True
    if fmt.name in ("dense", "blocked_ellpack"):
        return width // passes >= 1
    slice_size = getattr(fmt, "slice_size", None)
    if slice_size is None:
        return False
    return (width + slice_size - 1) // slice_size >= passes


def _pass_access_overhead(
    fmt: FeatureFormat, width: int, passes: int
) -> Tuple[int, bool]:
    """Per-access penalty of reading one width slice in ``fmt``.

    Returns ``(extra_lines, aligned)``: formats that slice cleanly pay
    nothing; formats that cannot (whole-row bitmaps, CSR, COO) must read
    their embedded index plus a partially unaligned span to extract the
    slice, costing roughly one extra cacheline per access and losing the
    alignment guarantee (paper Section V-B).
    """
    if passes <= 1 or _format_slices_cleanly(fmt, width, passes):
        return 0, fmt.aligned
    return 1, False


def _typical_row_lines(fmt: FeatureFormat, width: int, nnz: int) -> float:
    """Cachelines per feature row for the given non-zero count."""
    layout = fmt.build_layout(np.asarray([nnz], dtype=np.int64), width)
    return float(layout.row_read_line_counts()[0])


def _select_pinned_vertices(
    design: DesignPoint, graph: CSRGraph, cache_lines: int, row_lines: float
) -> np.ndarray:
    """Highest in-degree vertices whose rows fit the pinned cache share."""
    in_degrees = np.bincount(graph.indices, minlength=graph.num_vertices)
    budget_rows = int(cache_lines * design.pinned_cache_fraction / max(row_lines, 1.0))
    if budget_rows <= 0:
        return np.zeros(0, dtype=np.int64)
    return np.argsort(-in_degrees, kind="stable")[:budget_rows].astype(np.int64)


def schedule(
    design: DesignPoint,
    fmt: FeatureFormat,
    dataset: Dataset,
    graph: CSRGraph,
    config: ScheduleConfig,
    trace_cache: Optional[TraceCache] = None,
) -> SchedulePlan:
    """Stage 2: plan the tiling, build the access trace, pick pinned rows.

    ``graph`` is the graph the dataflow walks (:attr:`RunContext.graph`).
    The stage sees no configuration beyond ``config``, so runs whose
    :class:`~repro.core.config.ScheduleConfig` records are equal share one
    schedule, which is what makes that record the config half of a replay
    class key.
    """
    # The static schedule (tiling, psum split, pinned rows) is planned for the
    # schedule capacity; replay evaluates the physical one.  The two differ
    # only when a sweep resizes the cache under a fixed design.
    cache_lines = effective_cache_lines(
        dataset, config.schedule_capacity_bytes, config.line_bytes
    )

    hidden_width = dataset.hidden_width
    if design.assumed_tiling_sparsity is not None:
        assumed_sparsity = design.assumed_tiling_sparsity
    elif design.tile_with_average_sparsity:
        assumed_sparsity = dataset.intermediate_sparsity
    else:
        assumed_sparsity = 0.0
    assumed_nnz = int(round(hidden_width * (1.0 - assumed_sparsity)))
    assumed_row_lines = _typical_row_lines(fmt, hidden_width, assumed_nnz)
    output_row_lines = float(bytes_to_lines(hidden_width * ELEMENT_BYTES))
    psum_buffer_lines = max(
        int(cache_lines * design.psum_buffer_fraction), int(output_row_lines)
    )

    # GCNAX-style dataflows always process the feature matrix in width slices
    # (two logical slices in the modelled configuration, matching the
    # accumulation-buffer split); designs without source tiling (HyGCN)
    # sweep the full width in one pass.
    min_passes = design.dataflow_feature_passes if design.uses_source_tiling else 1
    tiling = plan_tiling(
        num_vertices=graph.num_vertices,
        average_degree=graph.average_degree,
        cache_lines=cache_lines,
        psum_buffer_lines=psum_buffer_lines,
        assumed_row_lines=assumed_row_lines,
        output_row_lines=output_row_lines,
        topology_bytes_per_edge=8.0,
        supports_feature_slicing=_format_slices_cleanly(fmt, hidden_width, min_passes),
        use_destination_tiling=design.uses_destination_tiling,
        use_source_tiling=design.uses_source_tiling,
        fill_fraction=design.tiling_fill_fraction,
        min_feature_passes=min_passes,
        max_feature_passes=max(min_passes, design.dataflow_feature_passes),
    )

    trace_token: Optional[Tuple] = None
    if design.column_product:
        # Column-product designs read every feature row exactly once per pass
        # and pay partial-sum traffic instead; no feature-read reuse trace is
        # needed.
        trace = np.zeros(0, dtype=np.int64)
    else:
        # The trace depends only on the topology and the schedule knobs,
        # never on the accelerator's timing parameters — key it on exactly
        # those so a sweep over timing configurations reuses it.
        trace_token = (
            graph.fingerprint(),
            tiling,
            config.num_aggregation_engines,
            design.engine_partition,
            config.sac_strip_height,
        )
        def build() -> np.ndarray:
            # Timed inside the builder so trace-cache hits cost no span.
            with span("trace_generation"):
                return aggregation_access_trace(
                    graph,
                    tiling,
                    num_engines=config.num_aggregation_engines,
                    engine_partition=design.engine_partition,
                    strip_height=config.sac_strip_height,
                )

        trace = _trace_cache_get(trace_cache, ("trace",) + trace_token, build)

    pinned = np.zeros(0, dtype=np.int64)
    if design.pins_high_degree_vertices:
        pinned = _select_pinned_vertices(design, graph, cache_lines, assumed_row_lines)
    return SchedulePlan(tiling, trace, trace_token, pinned)


# --------------------------------------------------------------------------- #
# Stage 3: replay (layer sampling, row tables, cache replays)
# --------------------------------------------------------------------------- #
@dataclass
class AggregateReplay:
    """Replay counters of one intermediate layer, summed over feature passes."""

    accesses: int = 0
    hits: int = 0
    hit_lines: int = 0
    miss_lines: int = 0


@dataclass
class ReplayedLayer:
    """One sampled intermediate layer, ready for the timing stage."""

    workload: LayerWorkload
    weight: float
    row_nnz: np.ndarray
    row_lines: np.ndarray
    pass_sizes: List[np.ndarray]
    #: ``None`` for column-product designs (no feature-read reuse trace).
    replay: Optional[AggregateReplay] = None


@dataclass
class ReplayOutcome:
    """Stage-3 output: every cache replay of the run, plus the row tables."""

    first_workload: LayerWorkload
    layers: List[ReplayedLayer]
    #: First-layer dense replay; ``None`` for column-product designs (the
    #: dense intermediate is streamed once and never re-read).
    first_stats: Optional[RowCacheStats] = None


def _sample_layers(
    workloads: Sequence[LayerWorkload], max_sampled: int
) -> List[Tuple[LayerWorkload, float]]:
    """Pick representative intermediate layers and their weights."""
    count = len(workloads)
    if count <= max_sampled:
        return [(workload, 1.0) for workload in workloads]
    positions = np.linspace(0, count - 1, max_sampled)
    indices = sorted(set(int(round(position)) for position in positions))
    weight = count / len(indices)
    return [(workloads[index], weight) for index in indices]


#: Provider used when a context carries none: the historical synthetic draw.
_SYNTHETIC_PROVIDER = SyntheticSparsityProvider()


def _layer_row_tables(
    fmt: FeatureFormat, workload: LayerWorkload, context: RunContext, seed: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row non-zero counts for the layer's input features, and the
    resulting per-row transfer sizes (in lines) under ``fmt``."""
    num_vertices = context.graph.num_vertices
    provider = context.sparsity or _SYNTHETIC_PROVIDER
    row_nnz, slice_nnz = provider.layer_tables(
        dataset=context.dataset,
        layer_index=workload.layer_index,
        num_rows=num_vertices,
        width=workload.width_in,
        sparsity=workload.input_sparsity,
        slice_size=getattr(fmt, "slice_size", None),
        seed=seed,
        # Reordering/transposing designs relabel vertex ids; tables must be
        # indexed by the graph the trace walks, not the dataset's original.
        graph=context.graph,
    )
    layout = fmt.build_layout(row_nnz, workload.width_in, slice_nnz=slice_nnz)
    return row_nnz, layout.row_read_line_counts()


def _pass_size_tables(
    fmt: FeatureFormat,
    workload: LayerWorkload,
    context: RunContext,
    row_lines: np.ndarray,
) -> List[np.ndarray]:
    """Lines transferred per access in each feature pass.

    The row's lines are spread across the passes as evenly as integers allow
    (a sliced format reads a different subset of unit slices per pass), so
    the per-pass sizes sum back to the full row.  Formats that cannot be
    read in width slices pay an extra (unaligned) line per access.
    """
    passes = context.scheduled.tiling.feature_passes
    extra_lines, _ = _pass_access_overhead(fmt, workload.width_in, passes)
    base_lines = row_lines // passes
    remainder = row_lines % passes
    return [
        np.maximum(1, base_lines + (pass_index < remainder).astype(np.int64))
        + extra_lines
        for pass_index in range(passes)
    ]


def _capacity_lines(context: RunContext) -> List[int]:
    """Capacity vector (in lines) every replay of the run is evaluated at.

    Leads with this run's own capacity, followed by each swept capacity
    (bytes) mapped through the same dataset scaling the real configs use,
    without duplicates.  Only element 0 feeds this run's result; the others
    seed the engine memo for the sibling runs of a capacity sweep.
    """
    lines = [context.cache_lines]
    line_bytes = context.config.cache.line_bytes
    for capacity_bytes in context.capacity_spectrum:
        lines.append(effective_cache_lines(context.dataset, capacity_bytes, line_bytes))
    return list(dict.fromkeys(lines))


def _layer_replay(
    context: RunContext, pass_sizes: List[np.ndarray], capacities: List[int]
) -> AggregateReplay:
    """Replay one intermediate layer's feature passes, summed over passes.

    The pinned rows live in a dedicated partition: their accesses always
    hit, and the lines they occupy (sized by the first pass) come out of
    the shared capacity.  The pinned set is planned at the schedule
    capacity, so within a capacity sweep the subtraction shifts the whole
    vector point for point.
    """
    pinned = context.scheduled.pinned_vertices
    if pinned.size:
        pinned_lines = int(pass_sizes[0][pinned].sum())
        offset = max(1, context.cache_lines - pinned_lines) - context.cache_lines
        capacities = [max(1, lines + offset) for lines in capacities]
    aggregate = AggregateReplay()
    for per_capacity in context.engine().evaluate(pass_sizes, capacities, pinned):
        stats = per_capacity[0]
        aggregate.accesses += stats.accesses
        aggregate.hits += stats.hits
        aggregate.hit_lines += stats.hit_lines
        aggregate.miss_lines += stats.miss_lines
    return aggregate


def replay(
    context: RunContext,
    workloads: Sequence[LayerWorkload],
    seed: int,
    max_sampled_layers: int,
) -> ReplayOutcome:
    """Stage 3: evaluate every cache replay of the run.

    The sampled intermediate layers (one size table per feature pass) and the
    first layer's dense replay all evaluate through the trace's one
    :class:`ReplayEngine`, whose memo collapses the repeated tables of a run
    and of its sweep siblings.  Column-product designs replay nothing (their
    feature reads stream once per pass).
    """
    fmt = context.feature_format
    first, *intermediate = workloads
    sampled = _sample_layers(intermediate, max_sampled_layers) if intermediate else []

    # The prepared tables depend on the schedule (feature passes) and the
    # sparsity draw but not on any capacity or timing knob, so the sibling
    # runs of a knob sweep share them through the trace cache — which also
    # keeps the arrays *identical objects* across runs, letting the replay
    # engine's id()-keyed token cache skip re-digesting them.  The key
    # carries the model depth because a measured provider's tables come from
    # the harvest of that depth's model: without it, a run would reuse the
    # tables of an earlier run of another depth whose layer happened to
    # share its index, width and input sparsity.
    provider = context.sparsity or _SYNTHETIC_PROVIDER
    plan = context.scheduled
    prepared: List[ReplayedLayer] = []
    for workload, weight in sampled:
        def build(workload: LayerWorkload = workload) -> Tuple[np.ndarray, np.ndarray, List[np.ndarray]]:
            row_nnz, row_lines = _layer_row_tables(fmt, workload, context, seed)
            return row_nnz, row_lines, _pass_size_tables(fmt, workload, context, row_lines)

        key = (
            "row_tables",
            provider,
            fmt.cache_token(),
            context.graph.fingerprint(),
            context.dataset.num_layers,
            workload.layer_index,
            workload.width_in,
            float(workload.input_sparsity),
            seed,
            plan.tiling.feature_passes,
        )
        row_nnz, row_lines, pass_sizes = _trace_cache_get(
            context.trace_cache, key, build
        )
        prepared.append(
            ReplayedLayer(
                workload=workload,
                weight=weight,
                row_nnz=row_nnz,
                row_lines=row_lines,
                pass_sizes=pass_sizes,
            )
        )

    design = context.design
    if design.column_product:
        return ReplayOutcome(first_workload=first, layers=prepared, first_stats=None)

    capacities = _capacity_lines(context)
    for layer in prepared:
        layer.replay = _layer_replay(context, layer.pass_sizes, capacities)
    # An edgeless graph yields an empty trace: the intermediate layers above
    # replay it to zero counters, but the first layer's dense re-read falls
    # back to the analytic streaming estimate.  Otherwise the dense
    # intermediate is re-read per edge with the hit rate a dense-format run
    # of this schedule achieves: one replay of the full (unpinned) trace with
    # dense rows at the full capacity.
    first_stats: Optional[RowCacheStats] = None
    if plan.trace.size:
        dense_row_lines = bytes_to_lines(first.width_out * ELEMENT_BYTES)
        dense = np.full(context.graph.num_vertices, dense_row_lines, dtype=np.int64)
        first_stats = context.engine().evaluate([dense], capacities)[0][0]
    return ReplayOutcome(first_workload=first, layers=prepared, first_stats=first_stats)


# --------------------------------------------------------------------------- #
# Stage 4: timing (cycles and traffic per layer)
# --------------------------------------------------------------------------- #
@dataclass
class TimedLayer:
    """Stage-4 output: one layer's cycles/traffic, pending energy pricing."""

    layer_index: int
    weight: float
    cycles: float
    aggregation_cycles: float
    combination_cycles: float
    aggregation_compute_cycles: float
    combination_compute_cycles: float
    memory_cycles: float
    macs: float
    traffic: TrafficBreakdown
    cache_accesses: float
    cache_hit_rate: float


def _topology_bytes(graph: CSRGraph, workload: LayerWorkload) -> float:
    """Bytes of topology streamed for one full sweep of the edges."""
    per_edge = 4 + (4 if workload.weighted_aggregation else 0)
    return (
        graph.num_edges * workload.edge_fraction * per_edge
        + (graph.num_vertices + 1) * 4
    )


def _output_write_bytes(
    fmt: FeatureFormat, num_vertices: int, width: int, sparsity: float
) -> float:
    """Bytes written for the layer's output features in ``fmt``."""
    nnz = int(round(width * (1.0 - sparsity)))
    layout = fmt.build_layout(np.asarray([max(nnz, 0)], dtype=np.int64), width)
    return float(num_vertices * layout.row_write_bytes(0))


def _aggregation_phase(context: RunContext, layer: ReplayedLayer) -> PhaseResult:
    design = context.design
    fmt = context.feature_format
    config = context.config
    graph = context.graph
    workload = layer.workload
    passes = context.scheduled.tiling.feature_passes
    edge_fraction = workload.edge_fraction
    _, aligned_reads = _pass_access_overhead(fmt, workload.width_in, passes)

    if design.column_product:
        # Column-product execution streams every input feature row exactly
        # once (per feature pass it streams 1/passes of each row), so the
        # read volume is one full pass over the compressed matrix and the
        # cache plays no role in the feature reads.
        total_lines = int(layer.row_lines.sum())
        feature_read_bytes = float(total_lines * CACHELINE_BYTES)
        cache_accesses = float(total_lines)
        hit_rate = 0.0
    else:
        replayed = layer.replay
        assert replayed is not None  # stage 3 replays every non-column design
        feature_read_bytes = replayed.miss_lines * CACHELINE_BYTES * edge_fraction
        cache_accesses = (replayed.hit_lines + replayed.miss_lines) * edge_fraction
        hit_rate = replayed.hits / replayed.accesses if replayed.accesses else 0.0

    num_edges = graph.num_edges * edge_fraction
    topology_bytes = _topology_bytes(graph, workload) * passes

    density = 1.0
    if design.sparse_aggregation_compute:
        density = max(1e-3, 1.0 - workload.input_sparsity)
    cost = context.simd.aggregation_cost(
        num_edges=num_edges,
        feature_width=workload.width_in,
        density=density,
    )
    compute_cycles = cost.cycles * design.aggregation_compute_scale
    macs = cost.mac_operations * design.aggregation_compute_scale

    psum_bytes = 0.0
    if design.psum_traffic_factor > 0:
        psum_bytes = (
            design.psum_traffic_factor
            * graph.num_vertices
            * workload.width_in
            * ELEMENT_BYTES
        )

    traffic = TrafficBreakdown(
        topology_bytes=topology_bytes,
        feature_read_bytes=feature_read_bytes,
        psum_bytes=psum_bytes,
    )
    pattern = TrafficPattern(
        average_burst_lines=float(np.mean(layer.pass_sizes[0])),
        aligned=aligned_reads,
        sequential_fraction=topology_bytes / max(traffic.total_bytes, 1.0),
    )
    memory_cycles = context.dram.transfer_cycles(
        traffic.total_bytes, config.engines.frequency_ghz, pattern
    )
    return PhaseResult(
        cycles=max(compute_cycles, memory_cycles),
        compute_cycles=compute_cycles,
        memory_cycles=memory_cycles,
        macs=macs,
        traffic=traffic,
        cache_accesses=cache_accesses,
        cache_hit_rate=hit_rate,
    )


def _combination_phase(context: RunContext, layer: ReplayedLayer) -> PhaseResult:
    design = context.design
    fmt = context.feature_format
    config = context.config
    graph = context.graph
    workload = layer.workload
    num_vertices = graph.num_vertices

    density = 1.0
    if design.combination_zero_skipping:
        density = max(1e-3, 1.0 - workload.input_sparsity)
    gemm = context.systolic.gemm_cost(
        m=num_vertices,
        k=workload.width_in,
        n=workload.width_out,
        density=density,
    )

    weight_bytes = context.systolic.weight_bytes(workload.width_in, workload.width_out)
    output_write_bytes = _output_write_bytes(
        fmt, num_vertices, workload.width_out, workload.output_sparsity
    )
    traffic = TrafficBreakdown(
        weight_bytes=weight_bytes,
        feature_write_bytes=output_write_bytes,
    )
    pattern = TrafficPattern(
        average_burst_lines=DRAMModel.SATURATION_BURST_LINES,
        aligned=True,
        sequential_fraction=1.0,
    )
    memory_cycles = context.dram.transfer_cycles(
        traffic.total_bytes, config.engines.frequency_ghz, pattern
    )
    return PhaseResult(
        cycles=max(gemm.cycles, memory_cycles),
        compute_cycles=gemm.cycles,
        memory_cycles=memory_cycles,
        macs=gemm.mac_operations,
        traffic=traffic,
        cache_accesses=0.0,
        cache_hit_rate=0.0,
    )


def _time_first_layer(context: RunContext, replayed: ReplayOutcome) -> TimedLayer:
    """First layer: combination of the given input features, then
    aggregation of the (dense) result.

    All modelled designs process the first layer combination-first, the
    standard optimisation when the width shrinks (Section III-A).  Input
    features are streamed once; ultra-sparse inputs (one-hot encodings) are
    stored in CSR, dense embeddings are stored densely.  Designs with
    sparsity-aware compute (SGCN's aggregation-engine combination, AWB-GCN's
    zero skipping) only compute on the non-zero inputs.
    """
    design = context.design
    fmt = context.feature_format
    config = context.config
    graph = context.graph
    workload = replayed.first_workload
    num_vertices = graph.num_vertices
    width_in = workload.width_in
    width_out = workload.width_out
    input_density = max(1e-4, 1.0 - workload.input_sparsity)

    # --- combination of X_0 @ W_0 --------------------------------------- #
    if workload.input_sparsity >= 0.5:
        input_read_bytes = num_vertices * width_in * input_density * (
            ELEMENT_BYTES + 4
        ) + (num_vertices + 1) * 4
    else:
        input_read_bytes = num_vertices * width_in * ELEMENT_BYTES

    if design.sparse_first_layer or design.combination_zero_skipping:
        # SGCN runs the first combination as a sparse gather-accumulate on
        # its aggregation engines; AWB-GCN's zero skipping achieves the same
        # compute reduction on ultra-sparse one-hot inputs.
        gemm_density = input_density
    else:
        # Other designs skip only the input feature columns that are zero
        # for every vertex in the current tile (coarse column skipping),
        # which captures part of the one-hot sparsity but leaves the
        # systolic array underutilised for scattered non-zeros; model the
        # residual work as the geometric mean of dense and fully sparse.
        gemm_density = float(np.sqrt(input_density))
    gemm = context.systolic.gemm_cost(
        m=num_vertices, k=width_in, n=width_out, density=gemm_density
    )
    weight_bytes = context.systolic.weight_bytes(width_in, width_out)

    # --- aggregation of the (dense) combination result ------------------ #
    num_edges = graph.num_edges * workload.edge_fraction
    agg_cost = context.simd.aggregation_cost(
        num_edges=num_edges, feature_width=width_out, density=1.0
    )
    dense_row_lines = bytes_to_lines(width_out * ELEMENT_BYTES)
    if replayed.first_stats is None:
        # Column-product first layer: the dense intermediate is streamed
        # once and partial sums absorb the reuse cost.
        agg_read_bytes = float(num_vertices * dense_row_lines * CACHELINE_BYTES)
        cache_accesses = float(num_vertices * dense_row_lines)
        first_layer_hit_rate = 0.0
    else:
        stats = replayed.first_stats
        agg_read_bytes = stats.miss_lines * CACHELINE_BYTES * workload.edge_fraction
        cache_accesses = float(stats.hit_lines + stats.miss_lines)
        first_layer_hit_rate = stats.hit_rate
    topology_bytes = _topology_bytes(graph, workload)

    output_write_bytes = _output_write_bytes(
        fmt, num_vertices, width_out, workload.output_sparsity
    )

    traffic = TrafficBreakdown(
        topology_bytes=topology_bytes,
        feature_read_bytes=input_read_bytes + agg_read_bytes,
        feature_write_bytes=output_write_bytes,
        weight_bytes=weight_bytes,
    )
    pattern = TrafficPattern(
        average_burst_lines=4.0, aligned=True, sequential_fraction=0.5
    )
    memory_cycles = context.dram.transfer_cycles(
        traffic.total_bytes, config.engines.frequency_ghz, pattern
    )
    compute_cycles = gemm.cycles + agg_cost.cycles
    if config.pipeline_phases:
        cycles = max(compute_cycles, memory_cycles)
    else:
        cycles = compute_cycles + memory_cycles

    return TimedLayer(
        layer_index=0,
        weight=1.0,
        cycles=cycles,
        aggregation_cycles=max(agg_cost.cycles, memory_cycles / 2),
        combination_cycles=max(gemm.cycles, memory_cycles / 2),
        aggregation_compute_cycles=agg_cost.cycles,
        combination_compute_cycles=gemm.cycles,
        memory_cycles=memory_cycles,
        macs=gemm.mac_operations + agg_cost.mac_operations,
        traffic=traffic,
        cache_accesses=cache_accesses,
        cache_hit_rate=first_layer_hit_rate,
    )


def _time_intermediate_layer(context: RunContext, layer: ReplayedLayer) -> TimedLayer:
    aggregation = _aggregation_phase(context, layer)
    combination = _combination_phase(context, layer)
    config = context.config
    if config.pipeline_phases:
        cycles = max(aggregation.cycles, combination.cycles)
    else:
        cycles = aggregation.cycles + combination.cycles
    return TimedLayer(
        layer_index=layer.workload.layer_index,
        weight=layer.weight,
        cycles=cycles,
        aggregation_cycles=aggregation.cycles,
        combination_cycles=combination.cycles,
        aggregation_compute_cycles=aggregation.compute_cycles,
        combination_compute_cycles=combination.compute_cycles,
        memory_cycles=aggregation.memory_cycles + combination.memory_cycles,
        macs=aggregation.macs + combination.macs,
        traffic=aggregation.traffic + combination.traffic,
        cache_accesses=aggregation.cache_accesses + combination.cache_accesses,
        cache_hit_rate=aggregation.cache_hit_rate,
    )


def timing(context: RunContext, replayed: ReplayOutcome) -> List[TimedLayer]:
    """Stage 4: per-layer cycles and traffic from replay stats and models."""
    timed = [_time_first_layer(context, replayed)]
    for layer in replayed.layers:
        timed.append(_time_intermediate_layer(context, layer))
    return timed


# --------------------------------------------------------------------------- #
# Stage 5: energy (price counted events, assemble LayerResults)
# --------------------------------------------------------------------------- #
def energy(context: RunContext, timed: Sequence[TimedLayer]) -> List[LayerResult]:
    """Stage 5: energy pricing and :class:`LayerResult` assembly."""
    results: List[LayerResult] = []
    for layer in timed:
        breakdown = context.energy_table.breakdown(
            num_macs=layer.macs,
            cache_accesses=layer.cache_accesses,
            dram_bytes=layer.traffic.total_bytes,
        )
        result = LayerResult(
            layer_index=layer.layer_index,
            cycles=layer.cycles,
            aggregation_cycles=layer.aggregation_cycles,
            combination_cycles=layer.combination_cycles,
            aggregation_compute_cycles=layer.aggregation_compute_cycles,
            combination_compute_cycles=layer.combination_compute_cycles,
            memory_cycles=layer.memory_cycles,
            macs=layer.macs,
            traffic=layer.traffic,
            cache_accesses=layer.cache_accesses,
            cache_hit_rate=layer.cache_hit_rate,
            energy=breakdown,
        )
        result.weight = layer.weight
        results.append(result)
    return results


# --------------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------------- #
def resolve_sparsity_dataset(
    dataset: Dataset, sparsity: Optional[SparsityProvider]
) -> Dataset:
    """Apply a provider's measured layer profile to ``dataset``.

    The synthetic provider (and ``None``) keeps the dataset untouched, so
    default runs stay byte-identical; a measured provider returns a copy
    whose :meth:`~repro.graphs.datasets.Dataset.layer_sparsities` is the
    harvested profile, which every downstream consumer (workload
    construction, output-write accounting) then picks up.
    """
    if sparsity is None:
        return dataset
    profile = sparsity.layer_profile(dataset)
    if profile is None:
        return dataset
    return dataset.with_sparsity_profile(profile)


def simulate_design(
    design: DesignPoint,
    dataset: Dataset,
    config: Optional[SystemConfig] = None,
    variant: str = "gcn",
    max_sampled_layers: int = 6,
    seed: int = 0,
    trace_cache: Optional[TraceCache] = None,
    sparsity: Optional[SparsityProvider] = None,
    capacity_spectrum: Sequence[int] = (),
) -> SimulationResult:
    """Run the full phase pipeline for one design on one dataset.

    Args:
        design: The accelerator design point to execute.
        dataset: Dataset to run.
        config: System configuration (Table III defaults when omitted).
        variant: Aggregation variant (``"gcn"``, ``"gin"``, ``"sage"``).
        max_sampled_layers: Intermediate layers are representative-sampled
            down to at most this many trace-driven simulations; each sampled
            layer is weighted by the number of layers it stands for, so
            totals still cover the whole network.
        seed: Seed for the per-row non-zero draws.
        trace_cache: Optional cross-run memo for access traces, replay
            structures, and derived (reordered/transposed) graphs.  These
            depend only on the topology and the schedule — not on timing
            knobs — so a :class:`~repro.core.session.Session` passes its own
            cache here and a sweep builds each trace once.
        sparsity: Optional :class:`~repro.gcn.providers.SparsityProvider`
            replacing the synthetic per-layer profile and per-row draws with
            its own tables (e.g. measured from a trained
            :class:`~repro.gcn.model.DeepGCN`); ``None`` keeps the synthetic
            behaviour byte for byte.
        capacity_spectrum: Optional cache capacities (in bytes) to evaluate
            the replay at *alongside* this run's own capacity.  The extra
            results land in the replay engine's memo (shared through
            ``trace_cache``), so the sibling runs of a cache-size sweep skip
            their replay evaluations entirely.  The returned result is
            byte-identical with or without a spectrum.

    Returns:
        A :class:`SimulationResult` covering every layer of the network.
    """
    config = config or SystemConfig()
    fmt = design.format_instance()
    dataset = resolve_sparsity_dataset(dataset, sparsity)
    workloads = build_workloads(dataset, variant=variant)
    with span("build_context"):
        context = build_context(
            design,
            fmt,
            dataset,
            config,
            trace_cache,
            sparsity=sparsity,
            capacity_spectrum=capacity_spectrum,
        )
    check_deadline("schedule")
    fault_point("stage:schedule")
    with span("schedule"):
        context.plan = schedule(
            design, fmt, dataset, context.graph, config.schedule, trace_cache
        )
    check_deadline("replay")
    fault_point("stage:replay")
    with span("replay"):
        replayed = replay(context, workloads, seed, max_sampled_layers)
    check_deadline("timing")
    with span("timing"):
        timed = timing(context, replayed)
    check_deadline("energy")
    with span("energy"):
        layers = energy(context, timed)

    return SimulationResult(
        accelerator=context.design.name,
        dataset=context.dataset.name,
        layers=layers,
        frequency_ghz=context.config.engines.frequency_ghz,
        metadata={
            "variant": variant,
            "num_layers": context.dataset.num_layers,
            "cache_lines": context.cache_lines,
            "feature_passes": context.scheduled.tiling.feature_passes,
            "dest_tile_vertices": context.scheduled.tiling.dest_tile_vertices,
        },
    )


__all__ = [
    "AggregateReplay",
    "GCN_VARIANTS",
    "LayerWorkload",
    "PhaseResult",
    "ReplayOutcome",
    "ReplayedLayer",
    "RunContext",
    "SAGE_EDGE_FRACTION",
    "SchedulePlan",
    "TimedLayer",
    "build_context",
    "build_workloads",
    "effective_cache_lines",
    "energy",
    "replay",
    "resolve_sparsity_dataset",
    "schedule",
    "simulate_design",
    "timing",
]
