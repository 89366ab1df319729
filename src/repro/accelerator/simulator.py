"""Accelerator model objects over the declarative design/pipeline split.

Historically this module was a 400+-line monolith fusing the description of
an accelerator (20 loose class attributes) with the machinery that simulates
it.  Both halves now live in dedicated modules:

* :mod:`repro.accelerator.design` — :class:`DesignPoint`, the frozen,
  validated description of *what* an accelerator is (paper Table I);
* :mod:`repro.accelerator.pipeline` — the explicit five-stage simulation
  pipeline (``build_context → schedule → replay → timing → energy``) that
  executes a design point.

What remains here is :class:`AcceleratorModel`, the thin runtime wrapper the
registry instantiates and a :class:`~repro.core.session.Session` memoizes: a
design point plus its resolved feature-format instance.  The historical
subclass API — declare a design by overriding class attributes — keeps
working: the constructor lifts the class attributes into a
:class:`DesignPoint` (validating them in the process), so existing custom
subclasses behave exactly as before.  New code should construct models from
design points directly (``AcceleratorModel(design)`` or
``register_design``).

The workload helpers (``build_workloads``, ``GCN_VARIANTS``, …) are
re-exported from :mod:`repro.accelerator.pipeline` for backward
compatibility.
"""

from __future__ import annotations

import copy
from typing import Dict, Optional, Sequence

from repro.accelerator.design import DesignPoint
from repro.accelerator.pipeline import (  # noqa: F401  (compat re-exports)
    GCN_VARIANTS,
    SAGE_EDGE_FRACTION,
    LayerWorkload,
    PhaseResult,
    RunContext,
    build_context,
    build_workloads,
    complete_run,
    resolve_sparsity_dataset,
    schedule,
    simulate_design,
)
from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.formats.base import FeatureFormat
from repro.gcn.providers import SparsityProvider
from repro.graphs.datasets import Dataset
from repro.memory.replay import TraceCache
from repro.telemetry.spans import span as _span


class AcceleratorModel:
    """A runtime accelerator model: a design point plus its feature format.

    Two construction styles are supported:

    * **Declarative (preferred):** ``AcceleratorModel(design_point)`` wraps
      an explicit :class:`~repro.accelerator.design.DesignPoint`.
    * **Subclassing (legacy):** subclasses override the class attributes
      below; the constructor lifts them into a validated design point.  The
      built-in subclasses in :mod:`repro.accelerator.baselines` /
      :mod:`repro.accelerator.sgcn` are kept only as deprecation shims over
      the registered design points.
    """

    #: Registry key.
    name: str = "abstract"
    #: Name used in tables/figures.
    display_name: str = "Abstract"
    #: Feature format used for intermediate features (registry name).
    feature_format_name: str = "dense"
    #: Execution order reported in Table I.
    execution_order: str = "aggregation-first"
    #: Whether the destination range is tiled to the cache.
    uses_destination_tiling: bool = True
    #: Whether the source range is tiled to the accumulation (psum) buffer.
    uses_source_tiling: bool = True
    #: Fraction of the cache a destination tile is sized to occupy.
    tiling_fill_fraction: float = 0.95
    #: Accumulation-buffer capacity relative to the cache capacity.
    psum_buffer_fraction: float = 0.25
    #: Engine partitioning of the source range ("contiguous" or "sac").
    engine_partition: str = "contiguous"
    #: Sparsity assumed when sizing tiles (None = assume dense rows).
    assumed_tiling_sparsity: Optional[float] = None
    #: Size tiles using the dataset's *average* intermediate sparsity.
    tile_with_average_sparsity: bool = False
    #: Whether the aggregation engines skip zero feature elements.
    sparse_aggregation_compute: bool = False
    #: Whether the combination engines skip zero input activations.
    combination_zero_skipping: bool = False
    #: Whether the graph is reordered for locality before execution (I-GCN).
    reorders_graph: bool = False
    #: Fraction of aggregation compute removed by redundancy elimination.
    aggregation_compute_scale: float = 1.0
    #: Whether high-degree vertices' rows are pinned in the cache (EnGN DAVC).
    pins_high_degree_vertices: bool = False
    #: Fraction of the cache reserved for pinned vertices.
    pinned_cache_fraction: float = 0.25
    #: Whether aggregation is executed as a column product on the transposed
    #: graph with partial-sum spills (AWB-GCN).
    column_product: bool = False
    #: Extra partial-sum traffic, as a multiple of the output matrix size.
    psum_traffic_factor: float = 0.0
    #: Whether the first (ultra-sparse input) layer's combination runs as a
    #: sparse operation (SGCN's aggregation-engine trick; AWB-GCN's zero skip).
    sparse_first_layer: bool = False
    #: Whether residual connections are supported without extra traffic.
    supports_residual: bool = True
    #: Maximum network depth the original design targeted (Table I).
    target_layers: str = "2"
    #: Width slices the GCNAX-style dataflow processes per layer.
    DATAFLOW_FEATURE_PASSES: int = 2

    # ------------------------------------------------------------------ #
    def __init__(self, design: Optional[DesignPoint] = None) -> None:
        if design is None:
            design = self._lift_design(type(self))
        self._set_design(design)

    @staticmethod
    def _lift_design(source: object, **extra: object) -> DesignPoint:
        """Build a :class:`DesignPoint` from ``source``'s knob attributes.

        ``source`` is either a model class (lifting the legacy subclass
        declaration) or a model instance (reading the live attributes);
        ``extra`` pre-supplies fields that have no attribute spelling
        (``slice_size``).  Every :class:`DesignPoint` field flows through
        automatically, so new fields cannot silently pin to defaults here.
        """
        from repro.accelerator.design import field_names

        values = dict(extra)
        for field_name in field_names():
            if field_name in values:
                continue
            attribute = AcceleratorModel._LEGACY_ATTRIBUTE_NAMES.get(
                field_name, field_name
            )
            if attribute is None:
                continue  # no legacy spelling; DesignPoint default applies
            values[field_name] = getattr(source, attribute)
        return DesignPoint(**values)  # type: ignore[arg-type]

    #: Design fields whose legacy class-attribute spelling differs.
    _LEGACY_ATTRIBUTE_NAMES = {
        "feature_format": "feature_format_name",
        "dataflow_feature_passes": "DATAFLOW_FEATURE_PASSES",
        "slice_size": None,  # never was a class attribute
    }

    def _set_design(self, design: DesignPoint) -> None:
        """Install ``design`` (and its format instance) on this model."""
        self._design = design
        self._format = design.format_instance()
        # Instance attributes shadow every legacy class attribute so a model
        # wrapping an arbitrary design point reports *its* knob values (not
        # the base-class defaults) through the documented attribute API.
        for field_name, value in design.to_dict().items():
            attribute = self._LEGACY_ATTRIBUTE_NAMES.get(field_name, field_name)
            if attribute is not None:
                setattr(self, attribute, value)
        self.feature_format_name = self._format.name
        # slice_size was never a class attribute, but SGCN models exposed it
        # as a property — mirror it on plain wrappers too (skipping classes
        # whose property already computes it from the live format).
        if not isinstance(getattr(type(self), "slice_size", None), property):
            self.slice_size = design.slice_size

    def _design_from_attributes(self) -> DesignPoint:
        """The design the model's *live* attributes currently describe.

        Normally identical to :attr:`design` (``_set_design`` mirrors every
        knob), but the legacy API allowed mutating knob attributes after
        construction and expected ``simulate()`` to honor the mutation —
        this rebuild preserves that contract.
        """
        return self._lift_design(
            self, slice_size=getattr(self, "slice_size", self._design.slice_size)
        )

    # ------------------------------------------------------------------ #
    @property
    def design(self) -> DesignPoint:
        """The design point this model executes."""
        return self._design

    @property
    def feature_format(self) -> FeatureFormat:
        """The feature format instance used for intermediate features."""
        return self._format

    def use_design(self, design: DesignPoint) -> "AcceleratorModel":
        """A copy of this model executing a different design point.

        The receiver is left untouched (sessions memoize and share model
        instances across runs); the reconfigured copy is returned.
        """
        model = copy.copy(self)
        model._set_design(design)
        return model

    def use_format(
        self, format_name: str, slice_size: Optional[int] = None
    ) -> "AcceleratorModel":
        """A copy of this model using a different intermediate-feature format.

        Used by :class:`repro.core.session.Session` to apply a
        :class:`~repro.core.runspec.RunSpec` feature-format override.  The
        copy's design point is normalised like any directly-constructed one,
        so overriding a design with its own native format yields an *equal*
        design (no duplicate session cache entries).  The copy starts from
        the *live* attributes, so legacy post-construction knob mutations
        carry over exactly as they did before the design split.
        """
        return self.use_design(
            self._design_from_attributes().with_format(format_name, slice_size)
        )

    def describe(self) -> Dict[str, object]:
        """Row of the paper's Table I for this accelerator."""
        description = self._design.describe()
        # The live format instance wins over the design's reference (they
        # only differ for exotic externally-injected formats).
        description["compressed_feature"] = self._format.compressed
        description["feature_format"] = self._format.name
        return description

    # ------------------------------------------------------------------ #
    # Simulation (delegates to the phase pipeline)
    # ------------------------------------------------------------------ #
    def simulate(
        self,
        dataset: Dataset,
        config: Optional[SystemConfig] = None,
        variant: str = "gcn",
        max_sampled_layers: int = 6,
        seed: int = 0,
        trace_cache: Optional[TraceCache] = None,
        sparsity: Optional[SparsityProvider] = None,
        capacity_spectrum: Sequence[int] = (),
    ) -> SimulationResult:
        """Simulate a full deep-GCN inference on ``dataset``.

        See :func:`repro.accelerator.pipeline.simulate_design` for the
        parameter semantics (including ``capacity_spectrum``, which seeds
        the replay memo for a whole capacity sweep); this wrapper supplies
        the model's design point and shared format instance.  If the legacy
        knob attributes were mutated after construction, the mutated values
        win (the historical subclass-attribute contract).
        """
        design = self._design
        fmt = self._format
        rebuilt = self._design_from_attributes()
        if rebuilt != design:
            if (rebuilt.feature_format, rebuilt.slice_size) != (
                design.feature_format,
                design.slice_size,
            ):
                fmt = rebuilt.format_instance()
            design = rebuilt
        if type(self)._build_context is not AcceleratorModel._build_context:
            # A legacy subclass overrides the old context-construction hook:
            # honor it (the pre-refactor simulate() always called it) and
            # finish the run through the shared pipeline stages.  The
            # sparsity provider is attached after the hook returns (the
            # historical signature cannot carry it).
            config = config or SystemConfig()
            dataset = resolve_sparsity_dataset(dataset, sparsity)
            workloads = build_workloads(dataset, variant=variant)
            # The legacy hook fuses stages 1 and 2; attribute it to
            # build_context so profiled legacy runs still report a stage.
            with _span("build_context"):
                context = self._build_context(dataset, config, workloads, trace_cache)
            if sparsity is not None:
                context.sparsity = sparsity
            if capacity_spectrum:
                context.capacity_spectrum = tuple(
                    int(capacity) for capacity in capacity_spectrum
                )
            return complete_run(
                context,
                workloads,
                variant=variant,
                seed=seed,
                max_sampled_layers=max_sampled_layers,
            )
        return simulate_design(
            design,
            dataset,
            config=config,
            variant=variant,
            max_sampled_layers=max_sampled_layers,
            seed=seed,
            trace_cache=trace_cache,
            feature_format=fmt,
            sparsity=sparsity,
            capacity_spectrum=capacity_spectrum,
        )

    # ------------------------------------------------------------------ #
    # Deprecated internals kept for backward compatibility
    # ------------------------------------------------------------------ #
    def _build_context(
        self,
        dataset: Dataset,
        config: SystemConfig,
        workloads: Sequence[LayerWorkload],
        trace_cache: Optional[TraceCache] = None,
    ) -> RunContext:
        """Deprecated: build + schedule a run context (pre-pipeline API)."""
        del workloads  # historical signature; the context never needed them
        return schedule(
            build_context(self._design, self._format, dataset, config, trace_cache)
        )


__all__ = [
    "AcceleratorModel",
    "GCN_VARIANTS",
    "LayerWorkload",
    "PhaseResult",
    "RunContext",
    "SAGE_EDGE_FRACTION",
    "build_workloads",
    "simulate_design",
]
