"""Declarative accelerator design points.

The paper's Table I characterises every evaluated accelerator as a small set
of design choices — execution order, tiling policy, feature format, zero
skipping, reordering.  :class:`DesignPoint` captures exactly those choices as
a frozen, validated, hashable, JSON-round-trippable dataclass, separated from
the simulation machinery that executes them
(:mod:`repro.accelerator.pipeline`).

A design point is *pure data*: two points constructed with the same knobs —
whether directly, via :meth:`DesignPoint.derive`, or via
:meth:`DesignPoint.with_format` — compare and hash equal, so a sweep over
hypothetical designs (the ``design-space`` scenario pack) can deduplicate
grid points.

A design point *is* the accelerator: the simulator runs points directly
(:func:`repro.accelerator.pipeline.simulate_design`).  The nine built-in
accelerators are declared here (:data:`BUILTIN_DESIGNS`) and named by the
fixed table of :mod:`repro.accelerator.registry`; a variant is a new point
built with :meth:`DesignPoint.derive` or :meth:`DesignPoint.with_format`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.formats.base import FeatureFormat
from repro.formats.registry import get_format

#: Execution orders reported in the paper's Table I (display metadata; the
#: simulated dataflow is determined by the tiling/column-product knobs).
EXECUTION_ORDERS = ("aggregation-first", "combination-first", "both")

#: Engine partitionings of the source range understood by the scheduler.
ENGINE_PARTITIONS = ("contiguous", "sac")

#: Upper bound accepted for ``tiling_fill_fraction``.  Values in ``(0, 1]``
#: size the destination tile to (a fraction of) the cache; values above 1
#: model deliberately coarse vertex tiling that overflows the cache on
#: purpose (EnGN uses 3.0).  Anything beyond this bound is treated as a
#: configuration error rather than a design choice.
MAX_TILING_FILL_FRACTION = 8.0


#: Float-typed design knobs (coerced to ``float`` after validation, so an
#: int spelling like ``tiling_fill_fraction=1`` and ``1.0`` build the same
#: point — equal, same hash, same serialised form).
_FLOAT_KNOBS = (
    "tiling_fill_fraction",
    "psum_buffer_fraction",
    "aggregation_compute_scale",
    "pinned_cache_fraction",
    "psum_traffic_factor",
)

#: Boolean design knobs (validated to be actual ``bool`` values).
_BOOL_KNOBS = (
    "uses_destination_tiling",
    "uses_source_tiling",
    "tile_with_average_sparsity",
    "sparse_aggregation_compute",
    "combination_zero_skipping",
    "reorders_graph",
    "pins_high_degree_vertices",
    "column_product",
    "sparse_first_layer",
    "supports_residual",
)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _unit_fraction(value: float, knob: str) -> None:
    """Validate ``value`` is a real number in ``(0, 1]``."""
    _require(
        isinstance(value, (int, float)) and math.isfinite(value) and 0.0 < value <= 1.0,
        f"{knob} must be in (0, 1]; got {value!r}",
    )


@dataclass(frozen=True)
class DesignPoint:
    """One point in the GCN-accelerator design space (paper Table I).

    Attributes:
        name: Lookup/report key of the design.
        display_name: Name used in tables and figures (defaults to ``name``).
        feature_format: Name of the format used for intermediate
            features (normalised to the canonical instance name).
        slice_size: Unit slice size ``C`` for sliced formats (normalised to
            the format instance's resolved value; ``None`` for formats
            without a slice knob).
        execution_order: Execution order reported in Table I.
        uses_destination_tiling: Whether the destination range is tiled to
            the cache.
        uses_source_tiling: Whether the source range is tiled to the
            accumulation (psum) buffer.
        tiling_fill_fraction: Fraction of the cache a destination tile is
            sized to occupy; values above 1 model deliberately coarse tiling
            that overflows the cache (EnGN).
        psum_buffer_fraction: Accumulation-buffer capacity relative to the
            cache capacity.
        engine_partition: Engine partitioning of the source range
            (``"contiguous"`` or ``"sac"``).
        assumed_tiling_sparsity: Sparsity assumed when sizing tiles
            (``None`` = assume dense rows).
        tile_with_average_sparsity: Size tiles from the dataset's *average*
            intermediate sparsity (static off-line analysis).
        sparse_aggregation_compute: Aggregation engines skip zero feature
            elements.
        combination_zero_skipping: Combination engines skip zero input
            activations.
        reorders_graph: The graph is reordered for locality before execution
            (I-GCN islandization).
        aggregation_compute_scale: Fraction of aggregation compute remaining
            after redundancy elimination.
        pins_high_degree_vertices: High-degree vertices' rows are pinned in
            the cache (EnGN DAVC).
        pinned_cache_fraction: Fraction of the cache reserved for pinned
            vertices.
        column_product: Aggregation executes as a column product on the
            transposed graph with partial-sum spills (AWB-GCN dataflow).
        psum_traffic_factor: Extra partial-sum traffic as a multiple of the
            output matrix size.
        sparse_first_layer: The ultra-sparse first-layer combination runs as
            a sparse operation.
        supports_residual: Residual connections are supported without extra
            traffic.
        target_layers: Network depth the original design targeted (Table I).
        dataflow_feature_passes: Width slices the dataflow processes per
            layer when source tiling is active.
    """

    name: str
    display_name: str = ""
    feature_format: str = "dense"
    slice_size: Optional[int] = None
    execution_order: str = "aggregation-first"
    uses_destination_tiling: bool = True
    uses_source_tiling: bool = True
    tiling_fill_fraction: float = 0.95
    psum_buffer_fraction: float = 0.25
    engine_partition: str = "contiguous"
    assumed_tiling_sparsity: Optional[float] = None
    tile_with_average_sparsity: bool = False
    sparse_aggregation_compute: bool = False
    combination_zero_skipping: bool = False
    reorders_graph: bool = False
    aggregation_compute_scale: float = 1.0
    pins_high_degree_vertices: bool = False
    pinned_cache_fraction: float = 0.25
    column_product: bool = False
    psum_traffic_factor: float = 0.0
    sparse_first_layer: bool = False
    supports_residual: bool = True
    target_layers: str = "2"
    dataflow_feature_passes: int = 2

    # ------------------------------------------------------------------ #
    def __post_init__(self) -> None:
        _require(
            isinstance(self.name, str) and bool(self.name.strip()),
            "design point name must be a non-empty string",
        )
        # Flag knobs must be actual booleans: a stray string like "False" is
        # truthy, which would silently invert the requested design while the
        # run identity, label, and cache key all claim the opposite.
        for knob in _BOOL_KNOBS:
            value = getattr(self, knob)
            _require(
                isinstance(value, bool),
                f"{knob} must be a boolean; got {value!r}",
            )
        if not self.display_name:
            object.__setattr__(self, "display_name", self.name)

        # Normalise the format reference through the format table so two
        # points that build the same format instance compare equal: the
        # canonical instance name replaces odd spellings, and the slice size is
        # resolved to the instance's actual value (e.g. plain "beicsr" and
        # "beicsr" with an explicit slice_size=96 are the same point, while
        # formats without a slice knob normalise it away entirely).
        if self.slice_size is not None:
            _require(
                isinstance(self.slice_size, int) and self.slice_size > 0,
                f"slice_size must be a positive integer; got {self.slice_size!r}",
            )
        instance = get_format(self.feature_format, slice_size=self.slice_size)
        object.__setattr__(self, "feature_format", instance.name)
        object.__setattr__(self, "slice_size", getattr(instance, "slice_size", None))

        _require(
            self.execution_order in EXECUTION_ORDERS,
            f"execution_order must be one of {EXECUTION_ORDERS}; "
            f"got {self.execution_order!r}",
        )
        _require(
            self.engine_partition in ENGINE_PARTITIONS,
            f"engine_partition must be one of {ENGINE_PARTITIONS}; "
            f"got {self.engine_partition!r}",
        )
        _require(
            isinstance(self.tiling_fill_fraction, (int, float))
            and math.isfinite(self.tiling_fill_fraction)
            and 0.0 < self.tiling_fill_fraction <= MAX_TILING_FILL_FRACTION,
            "tiling_fill_fraction must be in (0, "
            f"{MAX_TILING_FILL_FRACTION:g}] (values above 1 model deliberate "
            f"cache overflow); got {self.tiling_fill_fraction!r}",
        )
        _unit_fraction(self.psum_buffer_fraction, "psum_buffer_fraction")
        _unit_fraction(self.pinned_cache_fraction, "pinned_cache_fraction")
        _unit_fraction(self.aggregation_compute_scale, "aggregation_compute_scale")
        if self.assumed_tiling_sparsity is not None:
            _require(
                isinstance(self.assumed_tiling_sparsity, (int, float))
                and 0.0 <= self.assumed_tiling_sparsity < 1.0,
                "assumed_tiling_sparsity must be in [0, 1) or None; "
                f"got {self.assumed_tiling_sparsity!r}",
            )
        _require(
            isinstance(self.psum_traffic_factor, (int, float))
            and math.isfinite(self.psum_traffic_factor)
            and self.psum_traffic_factor >= 0.0,
            f"psum_traffic_factor must be >= 0; got {self.psum_traffic_factor!r}",
        )
        _require(
            isinstance(self.dataflow_feature_passes, int)
            and self.dataflow_feature_passes >= 1,
            "dataflow_feature_passes must be a positive integer; "
            f"got {self.dataflow_feature_passes!r}",
        )
        for knob in _FLOAT_KNOBS:
            object.__setattr__(self, knob, float(getattr(self, knob)))
        if self.assumed_tiling_sparsity is not None:
            object.__setattr__(
                self, "assumed_tiling_sparsity", float(self.assumed_tiling_sparsity)
            )

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def derive(self, **knobs: object) -> "DesignPoint":
        """A copy of this point with ``knobs`` replaced (and re-validated).

        Raises:
            ConfigurationError: For unknown knob names or illegal values.
        """
        unknown = sorted(set(knobs) - set(field_names()))
        if unknown:
            raise ConfigurationError(
                f"unknown design knob(s) {unknown}; knobs: {', '.join(DESIGN_KNOBS)}"
            )
        return replace(self, **knobs)  # type: ignore[arg-type]

    def with_format(
        self, format_name: str, slice_size: Optional[int] = None
    ) -> "DesignPoint":
        """This design with a different intermediate-feature format.

        The copy is normalised exactly like a directly-constructed point, so
        it compares and hashes equal to an identically-configured one —
        including the no-op case (``sgcn.with_format("beicsr") == sgcn``).
        """
        return replace(self, feature_format=format_name, slice_size=slice_size)

    def format_instance(self) -> FeatureFormat:
        """Build the configured feature-format instance."""
        return get_format(self.feature_format, slice_size=self.slice_size)

    # ------------------------------------------------------------------ #
    # Presentation / serialisation
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, object]:
        """Row of the paper's Table I for this design."""
        instance = self.format_instance()
        return {
            "accelerator": self.display_name,
            "compressed_feature": instance.compressed,
            "feature_format": instance.name,
            "target_layers": self.target_layers,
            "residual": self.supports_residual,
            "execution_order": self.execution_order,
        }

    def to_dict(self) -> Dict[str, object]:
        """Round-trip serialisation (see :meth:`from_dict`)."""
        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "DesignPoint":
        """Rebuild a point produced by :meth:`to_dict`.

        Raises:
            ConfigurationError: For unknown keys or illegal knob values.
        """
        unknown = sorted(set(data) - set(field_names()))
        if unknown:
            raise ConfigurationError(
                f"unknown design point field(s) {unknown}; "
                f"fields: {', '.join(field_names())}"
            )
        return cls(**dict(data))  # type: ignore[arg-type]


def field_names() -> Tuple[str, ...]:
    """Names of every :class:`DesignPoint` field, in declaration order."""
    return tuple(spec.name for spec in fields(DesignPoint))


#: Design knobs overridable through the :class:`~repro.core.runspec.RunSpec`
#: ``design`` axis and the CLI's ``--set`` flag: every field that changes the
#: simulated behaviour.  The identity/presentation fields (``name``,
#: ``display_name``) and the Table-I display metadata (``execution_order``,
#: ``supports_residual``, ``target_layers``) are excluded — overriding them
#: would mint distinct scenario identities for byte-identical results.
DESIGN_KNOBS: Tuple[str, ...] = tuple(
    name
    for name in field_names()
    if name
    not in (
        "name",
        "display_name",
        "execution_order",
        "supports_residual",
        "target_layers",
    )
)


# --------------------------------------------------------------------------- #
# The nine built-in designs (paper Table I, Sections VI-B and Fig. 12)
# --------------------------------------------------------------------------- #
GCNAX_DESIGN = DesignPoint(
    name="gcnax",
    display_name="GCNAX",
    feature_format="dense",
    execution_order="both",
    target_layers="2",
)

HYGCN_DESIGN = DesignPoint(
    name="hygcn",
    display_name="HyGCN",
    feature_format="dense",
    execution_order="aggregation-first",
    uses_destination_tiling=False,
    uses_source_tiling=False,
    target_layers="1-2",
)

AWB_GCN_DESIGN = DesignPoint(
    name="awb_gcn",
    display_name="AWB-GCN",
    feature_format="dense",
    execution_order="combination-first",
    combination_zero_skipping=True,
    sparse_first_layer=True,
    # Column-product execution spills partial output sums and refills them:
    # roughly one extra transfer of the output matrix per layer.
    psum_traffic_factor=1.0,
    target_layers="2",
)

ENGN_DESIGN = DesignPoint(
    name="engn",
    display_name="EnGN",
    feature_format="dense",
    execution_order="combination-first",
    pins_high_degree_vertices=True,
    pinned_cache_fraction=0.25,
    # EnGN's vertex tiling is coarser than GCNAX's perfect tiling: the
    # working set of one tile deliberately overflows the cache, and the
    # pinned degree-aware vertex cache claws part of the loss back.
    tiling_fill_fraction=3.0,
    target_layers="2",
)

IGCN_DESIGN = DesignPoint(
    name="igcn",
    display_name="I-GCN",
    feature_format="dense",
    execution_order="combination-first",
    reorders_graph=True,
    aggregation_compute_scale=0.85,
    target_layers="2",
)

SGCN_DESIGN = DesignPoint(
    name="sgcn",
    display_name="SGCN",
    feature_format="beicsr",
    execution_order="aggregation-first",
    engine_partition="sac",
    tile_with_average_sparsity=True,
    tiling_fill_fraction=1.0,
    sparse_aggregation_compute=True,
    sparse_first_layer=True,
    supports_residual=True,
    target_layers=">5",
)

SGCN_NO_SAC_DESIGN = replace(
    SGCN_DESIGN,
    name="sgcn_no_sac",
    display_name="SGCN (BEICSR, no SAC)",
    engine_partition="contiguous",
)

SGCN_NONSLICED_DESIGN = replace(
    SGCN_DESIGN,
    name="sgcn_nonsliced",
    display_name="SGCN (non-sliced BEICSR)",
    feature_format="beicsr_nonsliced",
    slice_size=None,
    engine_partition="contiguous",
)

SGCN_PACKED_DESIGN = replace(
    SGCN_DESIGN,
    name="sgcn_packed",
    display_name="SGCN (packed BEICSR)",
    feature_format="beicsr_packed",
)

#: The built-in designs by canonical name, in Table I order.
BUILTIN_DESIGNS: Dict[str, DesignPoint] = {
    design.name: design
    for design in (
        GCNAX_DESIGN,
        HYGCN_DESIGN,
        AWB_GCN_DESIGN,
        ENGN_DESIGN,
        IGCN_DESIGN,
        SGCN_DESIGN,
        SGCN_NO_SAC_DESIGN,
        SGCN_NONSLICED_DESIGN,
        SGCN_PACKED_DESIGN,
    )
}


__all__ = [
    "AWB_GCN_DESIGN",
    "BUILTIN_DESIGNS",
    "DESIGN_KNOBS",
    "DesignPoint",
    "ENGINE_PARTITIONS",
    "ENGN_DESIGN",
    "EXECUTION_ORDERS",
    "GCNAX_DESIGN",
    "HYGCN_DESIGN",
    "IGCN_DESIGN",
    "MAX_TILING_FILL_FRACTION",
    "SGCN_DESIGN",
    "SGCN_NONSLICED_DESIGN",
    "SGCN_NO_SAC_DESIGN",
    "SGCN_PACKED_DESIGN",
    "field_names",
]
