"""Execution façade that resolves run specs and caches per-run work.

A :class:`Session` turns :class:`~repro.core.runspec.RunSpec` descriptions
into :class:`~repro.core.results.SimulationResult` objects.  It resolves a
spec's accelerator to a :class:`~repro.accelerator.design.DesignPoint`, and
it memoizes the expensive spec-independent work across runs:

* :meth:`Session.load_dataset` — synthetic-dataset construction is cached
  (LRU) on ``(name, max_vertices, num_layers, seed)``, so a batch that sweeps
  accelerators over one dataset builds the topology once;
* :meth:`Session.accelerator` — the design point of an accelerator name
  (with optional feature-format and design overrides) is derived once per
  session;
* :attr:`Session.trace_cache` — aggregation access traces, their replay
  structures (:class:`repro.memory.replay.ReplayEngine`), and derived
  reordered/transposed graphs are memoized across runs; they depend only on
  the topology and the schedule knobs, so a sweep over N accelerators x M
  cache sizes builds each trace once instead of N x M times.  They are
  held for one graph at a time: :meth:`Session.run` drops them when its
  graph differs from the previous run's;
* :meth:`Session.run` / :meth:`Session.run_many` — execute one spec or a
  batch (one topology at a time, :func:`topology_tasks`), optionally
  annotating results with the spec's identity for downstream exports;
* :meth:`Session.compare` — run one spec per accelerator and collect a
  normalised :class:`~repro.core.results.ComparisonResult`.

The classic helpers :func:`repro.core.api.simulate` and
:func:`repro.core.api.compare_accelerators` are thin shims that build
``RunSpec`` objects and run them on a shared default session
(:func:`default_session`), so every result comes from :meth:`Session.run`.

Example::

    from repro import RunSpec, Session

    session = Session()
    specs = [RunSpec(dataset="cora", accelerator=name, max_vertices=256)
             for name in ("gcnax", "hygcn", "sgcn")]
    results = session.run_many(specs)      # topology built once, reused 3x
    comparison = session.compare(specs, baseline="gcnax")
"""

from __future__ import annotations

import json
import logging
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.accelerator.design import DESIGN_KNOBS, DesignPoint
from repro.accelerator.pipeline import simulate_design
from repro.accelerator.registry import canonical_accelerator, get_design
from repro.core.config import ScheduleConfig, SystemConfig
from repro.core.results import ComparisonResult, SimulationResult
from repro.core.runspec import RunSpec, build_config
from repro.errors import ConfigurationError, SimulationError, SparsityHarvestError
from repro.formats.registry import fold_name
from repro.gcn.providers import (
    MeasuredSparsityCache,
    SparsityProvider,
    make_sparsity_provider,
    resolve_sparsity_mode,
)
from repro.graphs.datasets import DATASET_SPECS, DEFAULT_NUM_LAYERS, Dataset
from repro.graphs.datasets import load_dataset as _load_dataset
from repro.memory.replay import ROUTES, ReplayEngine, TraceCache
from repro.resilience.policy import active_policy
from repro.telemetry.metrics import MetricsSnapshot
from repro.telemetry.spans import is_enabled, span, span_snapshot

logger = logging.getLogger(__name__)

#: Counters of the ``replay_memo`` block of :meth:`Session.metrics_snapshot`.
_REPLAY_MEMO_COUNTERS = (
    "hits", "misses", "evictions", "entries", "engines", *ROUTES, "trees"
)

#: ``on_error`` callback signature of :meth:`Session.run_many`:
#: ``(index, spec, exception)``.
ErrorCallback = Callable[[int, RunSpec, Exception], None]


def replay_class_key(
    spec: RunSpec, base_config: Optional[SystemConfig] = None
) -> Tuple[str, object]:
    """Replay-knob equivalence class of ``spec``.

    Two specs share a class when their identities agree on every field but
    ``overrides`` and their configs (``base_config`` plus the spec's
    overrides) have equal :class:`~repro.core.config.ScheduleConfig`
    records.  The schedule stage reads nothing else, so class members share
    one schedule, trace and replay engine by construction; they differ only
    in what replay, timing and energy read (cache capacity and ways, DRAM,
    frequency, engine shapes).  A spec whose overrides do not build keys on
    its raw overrides instead, so it forms its own class and fails alone
    when it runs.
    """
    identity = spec.identity_fields()
    del identity["overrides"]
    record: object
    try:
        record = build_config(spec.overrides, base_config).schedule
    except (ConfigurationError, TypeError, ValueError):
        record = repr(sorted(spec.overrides.items()))
    return json.dumps(identity, sort_keys=True, default=repr), record


def replay_classes(
    specs: Sequence[RunSpec], base_config: Optional[SystemConfig] = None
) -> List[Tuple[List[int], Tuple[int, ...]]]:
    """Partition ``specs`` into replay-knob equivalence classes.

    Returns one ``(member indices, capacity spectrum)`` pair per class of
    :func:`replay_class_key`, in order of each class's first member; members
    keep their relative order.  The spectrum is the class's distinct
    effective cache capacities in bytes (``base_config``'s capacity, or the
    Table III default, unless a spec overrides it) — empty unless the class
    actually sweeps the capacity knob, and empty for a class of specs whose
    overrides do not build.
    """
    base = base_config if base_config is not None else SystemConfig()
    base_capacity = int(base.cache.capacity_bytes)
    groups: "OrderedDict[Tuple, List[int]]" = OrderedDict()
    for index, spec in enumerate(specs):
        groups.setdefault(replay_class_key(spec, base_config), []).append(index)
    classes: List[Tuple[List[int], Tuple[int, ...]]] = []
    for (_, record), members in groups.items():
        capacities: Tuple[int, ...] = ()
        if isinstance(record, ScheduleConfig):
            # The overrides built, so every capacity override is an int.
            swept = [
                specs[index].overrides.get("cache_capacity_bytes", base_capacity)
                for index in members
            ]
            capacities = tuple(dict.fromkeys(int(c) for c in swept))  # type: ignore[call-overload]
        classes.append((members, capacities if len(capacities) > 1 else ()))
    return classes


#: Identity of one synthetic topology: ``(dataset, max_vertices, seed)``.
Topology = Tuple[str, int, int]


def spec_topology(spec: RunSpec) -> Topology:
    """The topology ``spec`` runs on."""
    return (spec.dataset, spec.max_vertices, spec.seed)


class TopologyTask(NamedTuple):
    """Pending runs on one topology, dispatched as one unit.

    Attributes:
        topology: The ``(dataset, max_vertices, seed)`` all members share.
        members: ``(spec index, capacity spectrum)`` per member; each member
            keeps its own replay class's spectrum.
        predicted_cost: :func:`topology_cost` summed over the members.
    """

    topology: Topology
    members: List[Tuple[int, Tuple[int, ...]]]
    predicted_cost: float


def topology_cost(dataset: str, max_vertices: int) -> float:
    """Predicted cost of one run on a topology: its scaled edge count.

    An executable cost model: trace length, replay-structure size and
    dataset synthesis all grow with the simulated edge count, which is the
    simulated vertex count times the capped average degree
    (:meth:`~repro.graphs.datasets.DatasetSpec.scaled_size`, the same caps
    dataset loading applies).  Profiled sweeps record it next to the
    measured seconds per task (``tasks`` in ``metrics.json``).  An unknown
    dataset costs 0 rather than raising; its runs report the error.
    """
    spec = DATASET_SPECS.get(dataset.strip().lower())
    if spec is None:
        return 0.0
    num_vertices, average_degree = spec.scaled_size(max_vertices)
    return num_vertices * average_degree


def topology_tasks(
    specs: Sequence[RunSpec],
    base_config: Optional[SystemConfig] = None,
    workers: int = 1,
) -> List[TopologyTask]:
    """Group the replay classes of ``specs`` by topology.

    One task holds every class of one ``(dataset, max_vertices, seed)``
    topology, so a task pinned to one session loads the dataset and builds
    each trace and replay engine once.  Tasks come in order of first
    appearance, classes keep their :func:`replay_classes` order inside a
    task, and members their class order.

    For a pool of ``workers`` processes, a task predicted to cost more than
    the fair share (the total over ``workers``) is split back into one task
    per replay class: whole, it alone would set the finish time, or leave
    workers idle when there are fewer topologies than workers.  With one
    worker nothing is split.
    """
    groups: "OrderedDict[Topology, List[Tuple[List[int], Tuple[int, ...]]]]"
    groups = OrderedDict()
    for members, spectrum in replay_classes(specs, base_config):
        groups.setdefault(spec_topology(specs[members[0]]), []).append(
            (members, spectrum)
        )

    def task(
        topology: Topology, classes: List[Tuple[List[int], Tuple[int, ...]]]
    ) -> TopologyTask:
        members = [
            (index, spectrum) for indices, spectrum in classes for index in indices
        ]
        cost = len(members) * topology_cost(topology[0], topology[1])
        return TopologyTask(topology, members, cost)

    whole = [task(topology, classes) for topology, classes in groups.items()]
    share = sum(candidate.predicted_cost for candidate in whole) / workers
    tasks: List[TopologyTask] = []
    for candidate, classes in zip(whole, groups.values()):
        if candidate.predicted_cost > share:
            tasks.extend(task(candidate.topology, [one]) for one in classes)
        else:
            tasks.append(candidate)
    return tasks


class Session:
    """Executes :class:`RunSpec` runs with memoized design resolution.

    Args:
        config: Base :class:`SystemConfig` applied to every run (spec
            overrides are layered on top); paper Table III defaults when
            omitted.
        max_cached_datasets: LRU capacity of the dataset cache.  Each cached
            entry holds one scaled synthetic topology; the default comfortably
            covers a full paper-comparison sweep.
        max_cached_traces: LRU capacity of the trace cache (aggregation
            access traces, replay-engine structures, and derived
            reordered/transposed graphs).  Entries depend only on
            (topology, tiling plan, engine partition) — never on timing
            knobs — so a sweep over N accelerators x M cache sizes builds
            each trace once instead of N x M times.  Entries live while
            consecutive runs share one graph (see :meth:`run`).
        max_cached_measurements: LRU capacity of the measured-sparsity cache
            (trained :class:`~repro.gcn.model.DeepGCN` models plus their
            harvested non-zero masks); each entry covers every
            measured-sparsity run on one (topology, depth, residual, seed)
            cell.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        max_cached_datasets: int = 32,
        max_cached_traces: int = 256,
        max_cached_measurements: int = 8,
    ) -> None:
        if max_cached_datasets < 1:
            raise ConfigurationError("max_cached_datasets must be at least 1")
        self.base_config = config
        self.max_cached_datasets = max_cached_datasets
        self._traces = TraceCache(max_entries=max_cached_traces)
        # Fingerprint of the graph the trace cache is scoped to (see run()),
        # and the replay-memo counters of the engines its drops released.
        self._graph: Optional[str] = None
        self._dropped_replay_memo: Dict[str, int] = dict.fromkeys(
            _REPLAY_MEMO_COUNTERS, 0
        )
        # Measured-sparsity harvests (trained DeepGCN + non-zero masks) are
        # memoized per (topology fingerprint, depth, hidden width, residual,
        # epochs, calibration, seed) — see MeasuredSparsityProvider.measure —
        # so a sweep over accelerators / formats / cache sizes trains each
        # cell once.  The provider instances themselves are memoized per
        # canonical mode.
        self._measurements = MeasuredSparsityCache(
            max_entries=max_cached_measurements
        )
        self._sparsity_providers: Dict[str, SparsityProvider] = {}
        self._datasets: "OrderedDict[Tuple[str, int, int, int], Dataset]" = OrderedDict()
        # (canonical name, format, design overrides) -> design point.
        self._designs: Dict[
            Tuple[str, Optional[str], Optional[Tuple[Tuple[str, object], ...]]],
            DesignPoint,
        ] = {}
        # Observability counters of the two session-local LRUs (the trace
        # and measurement caches carry their own); surfaced through
        # metrics_snapshot().
        self._dataset_hits = 0
        self._dataset_misses = 0
        self._dataset_evictions = 0
        self._accelerator_hits = 0
        self._accelerator_misses = 0
        self._accelerator_evictions = 0

    # ------------------------------------------------------------------ #
    # Memoized resolution
    # ------------------------------------------------------------------ #
    def load_dataset(
        self,
        name: str,
        max_vertices: int = 2048,
        num_layers: int = DEFAULT_NUM_LAYERS,
        seed: int = 0,
    ) -> Dataset:
        """Memoized :func:`repro.graphs.datasets.load_dataset`.

        Dataset generation is deterministic in ``(name, max_vertices,
        num_layers, seed)``, so the cached instance is interchangeable with a
        fresh load; repeated runs over the same dataset reuse one topology.
        A miss is timed as the ``dataset_load`` span.
        """
        key = (name.strip().lower(), int(max_vertices), int(num_layers), int(seed))
        cached = self._datasets.get(key)
        if cached is not None:
            self._datasets.move_to_end(key)
            self._dataset_hits += 1
            return cached
        with span("dataset_load"):
            dataset = _load_dataset(
                key[0], max_vertices=key[1], num_layers=key[2], seed=key[3]
            )
        self._dataset_misses += 1
        self._datasets[key] = dataset
        while len(self._datasets) > self.max_cached_datasets:
            self._datasets.popitem(last=False)
            self._dataset_evictions += 1
        return dataset

    def accelerator(
        self,
        name: str,
        feature_format: Optional[str] = None,
        design: Optional[Mapping[str, object]] = None,
    ) -> DesignPoint:
        """Memoized design point of an accelerator (with optional overrides).

        Args:
            name: Accelerator name (aliases accepted).
            feature_format: Optional format name replacing the design's
                native intermediate-feature format.
            design: Optional :class:`~repro.accelerator.design.DesignPoint`
                knob overrides applied to the accelerator's design.

        Raises:
            ConfigurationError: For an unknown accelerator or design knob, or
                design format knobs next to a ``feature_format`` override.
        """
        base = get_design(name)
        if design:
            # Only simulation knobs may be overridden: identity/presentation
            # fields (name, display_name, ...) reaching derive() would make
            # the result document disagree with the spec that produced it.
            # RunSpec.validate() enforces the same bound for runs; this public
            # method is also called directly, without a spec.
            unknown = sorted(set(design) - set(DESIGN_KNOBS))
            if unknown:
                raise ConfigurationError(
                    f"unknown design knob(s) {unknown}; overridable knobs: "
                    f"{', '.join(DESIGN_KNOBS)}"
                )
            if feature_format is not None and (
                {"feature_format", "slice_size"} & set(design)
            ):
                # with_format runs after derive, so a design-axis format
                # would be silently discarded while still labelling the run.
                raise ConfigurationError(
                    "design format knobs conflict with the "
                    f"feature_format={feature_format!r} override; set the "
                    "format through one mechanism only"
                )
        design_key = (
            tuple(sorted(design.items())) if design else None
        )
        key = (
            canonical_accelerator(name),
            None if feature_format is None else fold_name(feature_format),
            design_key,
        )
        point = self._designs.get(key)
        if point is not None:
            self._accelerator_hits += 1
            return point
        self._accelerator_misses += 1
        point = base.derive(**dict(design)) if design else base
        if feature_format is not None:
            point = point.with_format(feature_format)
        self._designs[key] = point
        return point

    def config_for(self, spec: RunSpec) -> Optional[SystemConfig]:
        """Effective :class:`SystemConfig` of ``spec`` under this session.

        ``None`` (meaning "model defaults", i.e. ``SystemConfig()``) when the
        session has no base config and the spec carries no overrides.
        """
        if spec.overrides:
            return build_config(spec.overrides, base=self.base_config)
        return self.base_config

    @property
    def trace_cache(self) -> TraceCache:
        """The session's cross-run trace/replay-structure memo."""
        return self._traces

    @property
    def measurement_cache(self) -> MeasuredSparsityCache:
        """The session's cross-run measured-sparsity harvest memo."""
        return self._measurements

    def sparsity_provider(self, mode: Optional[str]) -> Optional[SparsityProvider]:
        """The (memoized) provider backing a spec's ``sparsity`` axis.

        ``None`` (the default axis value) returns ``None`` — the pipeline
        then runs its built-in synthetic path, byte-identical to the
        pre-provider behaviour.  Measured providers share the session's
        harvest memo, so every run (and every mode) on one topology reuses
        one trained model.
        """
        canonical = resolve_sparsity_mode(mode)
        if canonical is None:
            return None
        provider = self._sparsity_providers.get(canonical)
        if provider is None:
            provider = make_sparsity_provider(canonical, cache=self._measurements)
            self._sparsity_providers[canonical] = provider
        return provider

    def clear_caches(self) -> None:
        """Drop every memoized dataset, design point, trace, and measurement.

        Dropped entries count as evictions, so no counter of
        :meth:`metrics_snapshot` moves backwards.
        """
        self._dataset_evictions += len(self._datasets)
        self._datasets.clear()
        self._accelerator_evictions += len(self._designs)
        self._designs.clear()
        self._drop_traces()
        self._measurements.clear()
        self._sparsity_providers.clear()

    def _drop_traces(self) -> None:
        """Empty the trace cache, keeping the dropped engines' memo counters."""
        self._dropped_replay_memo = self._replay_memo_counters()
        self._traces.clear()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def metrics_snapshot(self) -> MetricsSnapshot:
        """Current telemetry state of this session (metrics schema v1).

        The snapshot combines the process-global span tree (empty unless
        telemetry was enabled via :func:`repro.telemetry.set_enabled`) with
        hit/miss/eviction counters of every session cache.  Counters are
        always maintained — they cost one integer increment per lookup — so
        the cache section is meaningful even when spans are off.
        ``replay_memo`` counts every engine this session built, including
        those dropped since.
        """
        return MetricsSnapshot(
            telemetry_enabled=is_enabled(),
            spans=span_snapshot(),
            caches={
                "trace": self._traces.stats(),
                "measurement": self._measurements.stats(),
                "dataset": {
                    "hits": self._dataset_hits,
                    "misses": self._dataset_misses,
                    "evictions": self._dataset_evictions,
                    "entries": len(self._datasets),
                },
                "accelerator": {
                    "hits": self._accelerator_hits,
                    "misses": self._accelerator_misses,
                    "evictions": self._accelerator_evictions,
                    "entries": len(self._designs),
                },
                "replay_memo": self._replay_memo_counters(),
            },
        )

    def _replay_memo_counters(self) -> Dict[str, int]:
        counters = dict(self._dropped_replay_memo)
        for value in self._traces.values():
            if isinstance(value, ReplayEngine):
                counters["engines"] += 1
                for counter, count in value.memo_stats().items():
                    counters[counter] += count
        return counters

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #
    def run(
        self,
        spec: RunSpec,
        *,
        annotate: bool = False,
        capacity_spectrum: Sequence[int] = (),
    ) -> SimulationResult:
        """Validate and execute one :class:`RunSpec` and return its result.

        Every result in :mod:`repro.core` is produced here: sweeps,
        :meth:`run_many`, :meth:`compare` and the classic ``simulate()``
        shims all pass a spec.  The spec is checked with
        :meth:`RunSpec.validate` first, so a bad field raises before any work.

        Every trace-cache key carries its graph's fingerprint, so no entry
        serves two graphs.  When this run's graph differs from the previous
        run's, the cache holds only dead entries and is emptied first
        (counted as evictions; the dropped engines' replay-memo counters
        stay in :meth:`metrics_snapshot`).  The session therefore holds one
        graph's traces and replay engines at a time, and a caller who
        alternates graphs rebuilds them on each switch.

        Args:
            spec: The run description.
            annotate: Record ``scenario_id``/``scenario`` in the result's
                metadata (the experiment harness convention).
            capacity_spectrum: Cache capacities (bytes) the replay should be
                evaluated at alongside this run's own — see
                :func:`repro.accelerator.pipeline.simulate_design`.  The
                result is byte-identical with or without a spectrum; the
                extra capacities only pre-seed the replay memo shared through
                the session's trace cache.
        """
        spec.validate()
        dataset_obj = self.load_dataset(
            spec.dataset,
            max_vertices=spec.max_vertices,
            num_layers=spec.num_layers,
            seed=spec.seed,
        )
        point = self.accelerator(
            spec.accelerator, feature_format=spec.feature_format, design=spec.design
        )
        effective = self.config_for(spec)
        graph = dataset_obj.graph.fingerprint()
        if graph != self._graph:
            self._drop_traces()
            self._graph = graph
        try:
            result = simulate_design(
                point,
                dataset_obj,
                config=effective,
                variant=spec.variant,
                max_sampled_layers=spec.max_sampled_layers,
                seed=spec.seed,
                trace_cache=self._traces,
                sparsity=self.sparsity_provider(spec.sparsity),
                capacity_spectrum=capacity_spectrum,
            )
        except SparsityHarvestError as exc:
            # Graceful degradation: when an ExecutionPolicy permitting it is
            # active (sweeps arm one), a failed measured harvest falls back
            # to the synthetic provider instead of failing the run.  Library
            # callers with no policy keep the raise — silent fallback would
            # change what "measured" means.
            policy = active_policy()
            if policy is None or not policy.degrade:
                raise
            logger.warning(
                "degrading %s to synthetic sparsity: %s", spec.scenario_id, exc
            )
            result = simulate_design(
                point,
                dataset_obj,
                config=effective,
                variant=spec.variant,
                max_sampled_layers=spec.max_sampled_layers,
                seed=spec.seed,
                trace_cache=self._traces,
                sparsity=self.sparsity_provider("synthetic"),
                capacity_spectrum=capacity_spectrum,
            )
            result.metadata["degraded"] = True
            result.metadata["degraded_reason"] = str(exc)
        if annotate:
            result.metadata["scenario_id"] = spec.scenario_id
            result.metadata["scenario"] = spec.to_dict()
        return result

    def run_many(
        self,
        specs: Sequence[RunSpec],
        *,
        annotate: bool = True,
        on_error: Optional[ErrorCallback] = None,
    ) -> List[Optional[SimulationResult]]:
        """Execute a batch of specs, one topology at a time.

        The batch runs task by task in :func:`topology_tasks` order, the
        order a serial sweep runs: each topology's runs go back to back, so
        its dataset, traces and replay engines are built once and dropped
        when the next topology starts (see :meth:`run`).  Inside a topology
        the runs visit their replay classes (:func:`replay_classes`) back to
        back, and a class sweeping the cache capacity passes the whole
        capacity vector to its runs, so the first one answers the spectrum in
        a single replay evaluation (:meth:`ReplayEngine.evaluate`).  Results
        are byte-identical to input-order execution and are returned in
        input order.

        Args:
            specs: Run descriptions.
            annotate: Record each spec's identity in its result metadata.
            on_error: Called as ``(index, spec, exception)`` when a run fails,
                with ``index`` the spec's position in ``specs``; the failed
                slot becomes ``None`` and the batch continues.  Without it
                the first failure propagates.

        Returns:
            One result per spec (``None`` for isolated failures), in input
            order.
        """
        specs = list(specs)
        results: List[Optional[SimulationResult]] = [None] * len(specs)
        for task in topology_tasks(specs, self.base_config):
            for index, spectrum in task.members:
                spec = specs[index]
                try:
                    results[index] = self.run(
                        spec, annotate=annotate, capacity_spectrum=spectrum
                    )
                except Exception as exc:  # noqa: BLE001 — isolation is opt-in
                    if on_error is None:
                        raise
                    on_error(index, spec, exc)
        return results

    def compare(
        self, specs: Sequence[RunSpec], baseline: str = "gcnax"
    ) -> ComparisonResult:
        """Run one spec per accelerator and collect a comparison.

        Every spec is validated and the baseline is checked against the
        specs' accelerators *before* any simulation runs, so a typo fails in
        milliseconds instead of after the whole batch.

        Raises:
            ConfigurationError: If a spec fails :meth:`RunSpec.validate`.
            SimulationError: If ``specs`` is empty, repeats an accelerator
                (the comparison is keyed by accelerator, so a duplicate would
                silently drop a run), spans more than one topology
                (:func:`spec_topology`: speedups across scales or seeds
                compare different graphs), or ``baseline`` is not among the
                specs' accelerators.
        """
        specs = [spec.validate() for spec in specs]
        if not specs:
            raise SimulationError("compare() needs at least one run spec")
        names = [spec.accelerator for spec in specs]
        if len(set(names)) != len(names):
            raise SimulationError(
                "compare() needs one spec per accelerator; got duplicates in "
                f"{names}"
            )
        topologies = sorted({spec_topology(spec) for spec in specs})
        if len(topologies) > 1:
            raise SimulationError(
                "compare() needs every spec on the same dataset, max_vertices "
                "and seed; got "
                + ", ".join(
                    f"{name}@{vertices} seed {seed}"
                    for name, vertices, seed in topologies
                )
            )
        baseline_key = canonical_accelerator(baseline)
        if baseline_key not in names:
            raise SimulationError(
                f"baseline {baseline!r} was not among the simulated accelerators"
            )
        comparison = ComparisonResult(dataset=specs[0].dataset, baseline=baseline_key)
        for result in self.run_many(specs, annotate=False):
            assert result is not None  # run_many without on_error raises
            comparison.add(result)
        return comparison


_DEFAULT_SESSION: Optional[Session] = None


def default_session() -> Session:
    """The process-wide session backing the classic ``simulate()`` shims."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = Session()
    return _DEFAULT_SESSION


def reset_default_session() -> None:
    """Drop the process-wide default session (tests, long-lived processes)."""
    global _DEFAULT_SESSION
    _DEFAULT_SESSION = None


__all__ = [
    "Session",
    "TopologyTask",
    "default_session",
    "replay_class_key",
    "replay_classes",
    "reset_default_session",
    "spec_topology",
    "topology_cost",
    "topology_tasks",
]
