"""The canonical description of one simulation run.

A :class:`RunSpec` is the *single* source of truth for everything that can
change a simulation's output: dataset reference and scale caps, GCN depth,
accelerator reference, aggregation variant, optional feature-format override,
layer-sampling budget, seed, and flat :class:`~repro.core.config.SystemConfig`
overrides.  It is plain data: validated against the library's name tables,
hashable, deterministic in identity (:attr:`RunSpec.scenario_id`), JSON
round-trippable (:meth:`to_dict` / :meth:`from_dict`), and cheap to pickle
for multiprocessing sweeps.

Every surface of the library consumes it:

* :class:`repro.core.session.Session` executes ``RunSpec``s (one at a time or
  as memoized batches);
* :func:`repro.core.api.simulate` / ``compare_accelerators`` are thin shims
  that build a ``RunSpec`` and delegate to a default session;
* ``repro.experiments.spec.Scenario`` *is* ``RunSpec`` (an alias), so grid
  expansion, the content-addressed result cache, and the CLI all share this
  one definition.

Identity note: :attr:`scenario_id` hashes exactly the fields that existed
before this class unified the surfaces; optional new axes (the feature-format
override) only enter the identity when they are actually set, so existing
:class:`~repro.experiments.store.ResultStore` caches keep hitting.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.accelerator.design import DESIGN_KNOBS
from repro.accelerator.pipeline import GCN_VARIANTS
from repro.accelerator.registry import (
    DESIGN_POINTS,
    canonical_accelerator,
    get_design,
)
from repro.core.config import HBM1, HBM2, DRAMConfig, SystemConfig
from repro.errors import ConfigurationError
from repro.formats.registry import fold_name, get_format
from repro.gcn.providers import fold_sparsity_mode, resolve_sparsity_mode
from repro.graphs.datasets import DATASET_SPECS, DEFAULT_NUM_LAYERS

#: Named DRAM generations accepted by the ``"dram"`` override.
DRAM_GENERATIONS: Dict[str, DRAMConfig] = {"hbm1": HBM1, "hbm2": HBM2}

#: Default dataset scale cap shared by :class:`RunSpec` and the classic
#: :func:`repro.core.api.simulate` shims (one definition, so they cannot
#: silently diverge).
DEFAULT_MAX_VERTICES = 2048

#: Flat SystemConfig override keys accepted by :meth:`RunSpec.build_config`.
SUPPORTED_OVERRIDES: Tuple[str, ...] = (
    "cache_capacity_bytes",
    "cache_ways",
    "num_engines",
    "num_aggregation_engines",
    "num_combination_engines",
    "frequency_ghz",
    "simd_width",
    "systolic_rows",
    "systolic_cols",
    "dram",
    "dram_bandwidth_gbps",
    "sac_strip_height",
    "pipeline_phases",
)


def _normalise_overrides(overrides: Mapping[str, Any]) -> Dict[str, object]:
    """Validate override keys and return a plain, sorted dictionary."""
    unknown = sorted(set(overrides) - set(SUPPORTED_OVERRIDES))
    if unknown:
        raise ConfigurationError(
            f"unknown SystemConfig override(s) {unknown}; supported: "
            f"{', '.join(SUPPORTED_OVERRIDES)}"
        )
    return {key: overrides[key] for key in sorted(overrides)}


def build_config(
    overrides: Mapping[str, Any], base: Optional[SystemConfig] = None
) -> SystemConfig:
    """Apply flat override keys to a base :class:`SystemConfig`.

    The frozen config dataclasses perform their own validation, so illegal
    combinations (e.g. a cache capacity that is not a multiple of
    ``ways * line_bytes``) surface as :class:`ConfigurationError` here rather
    than mid-sweep.
    """
    overrides = _normalise_overrides(overrides)
    config = base or SystemConfig()
    engines = config.engines
    cache = config.cache
    dram = config.dram

    if "num_engines" in overrides:
        count = int(overrides["num_engines"])
        engines = replace(
            engines,
            num_aggregation_engines=count,
            num_combination_engines=count,
        )
    for key in ("num_aggregation_engines", "num_combination_engines"):
        if key in overrides:
            engines = replace(engines, **{key: int(overrides[key])})
    for key in ("simd_width", "systolic_rows", "systolic_cols"):
        if key in overrides:
            engines = replace(engines, **{key: int(overrides[key])})
    if "frequency_ghz" in overrides:
        engines = replace(engines, frequency_ghz=float(overrides["frequency_ghz"]))

    if "cache_capacity_bytes" in overrides:
        capacity = int(overrides["cache_capacity_bytes"])
        if capacity != cache.capacity_bytes:
            # A capacity override models resizing the physical cache under the
            # design's nominal schedule: tiling/psum/pinned planning stays at
            # the base capacity so every point of a capacity sweep shares one
            # trace, and only the replay hit test sees the new size.
            cache = replace(
                cache,
                capacity_bytes=capacity,
                schedule_capacity_bytes=cache.schedule_capacity,
            )
    if "cache_ways" in overrides:
        cache = replace(cache, ways=int(overrides["cache_ways"]))

    if "dram" in overrides:
        name = str(overrides["dram"]).lower()
        if name not in DRAM_GENERATIONS:
            raise ConfigurationError(
                f"unknown DRAM generation {overrides['dram']!r}; "
                f"choose from {', '.join(sorted(DRAM_GENERATIONS))}"
            )
        dram = DRAM_GENERATIONS[name]
    if "dram_bandwidth_gbps" in overrides:
        dram = replace(
            dram, peak_bandwidth_gbps=float(overrides["dram_bandwidth_gbps"])
        )

    config = replace(config, engines=engines, cache=cache, dram=dram)
    if "sac_strip_height" in overrides:
        config = replace(config, sac_strip_height=int(overrides["sac_strip_height"]))
    if "pipeline_phases" in overrides:
        config = replace(config, pipeline_phases=bool(overrides["pipeline_phases"]))
    return config


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined simulation run.

    Attributes:
        dataset: Dataset key (``"cora"``, ... — see Table II).
        accelerator: Accelerator name (``"sgcn"``, ``"gcnax"``, ...).
        variant: Aggregation variant (``"gcn"``, ``"gin"``, ``"sage"``).
        seed: Seed for topology generation and per-row sparsity draws.
        max_vertices: Scale cap applied when loading the dataset.
        max_sampled_layers: Representative-layer sampling budget.
        num_layers: GCN depth (paper default 28).
        overrides: Flat :class:`SystemConfig` overrides (see
            :data:`SUPPORTED_OVERRIDES`); empty means Table III defaults.
        feature_format: Optional feature-format name that replaces
            the accelerator's native intermediate-feature format (``None``
            keeps the design's own format and, for cache-compatibility, stays
            out of the run identity).
        design: Optional mapping of :class:`~repro.accelerator.design.DesignPoint`
            knob overrides applied on top of the accelerator's design point
            (see :data:`~repro.accelerator.design.DESIGN_KNOBS`).  ``None``
            (or an empty mapping) runs the design as declared and — like
            ``feature_format`` — stays out of the run identity, so caches
            written before the axis existed keep hitting.
        sparsity: Optional sparsity mode (see
            :data:`~repro.gcn.providers.SPARSITY_MODES`): ``"synthetic"``
            runs the calibrated synthetic profile (identical results to
            leaving the axis unset), ``"measured"`` /
            ``"measured-traditional"`` harvest the tables from a
            trained :class:`~repro.gcn.model.DeepGCN` (with / without
            residual connections).  ``None`` keeps the axis out of the run
            identity, so caches written before it existed keep hitting.
        tag: Optional free-form label carried into exports (e.g. the sweep
            axis value the run represents).
    """

    dataset: str
    accelerator: str
    variant: str = "gcn"
    seed: int = 0
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_sampled_layers: int = 6
    num_layers: int = DEFAULT_NUM_LAYERS
    overrides: Mapping[str, object] = field(default_factory=dict)
    feature_format: Optional[str] = None
    design: Optional[Mapping[str, object]] = None
    sparsity: Optional[str] = None
    tag: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "dataset", self.dataset.strip().lower())
        # Fold accelerator spellings to the canonical name (including
        # aliases) so e.g. "i-gcn" and "igcn" share one run identity and
        # cache entry.
        object.__setattr__(
            self, "accelerator", canonical_accelerator(self.accelerator)
        )
        object.__setattr__(self, "variant", self.variant.strip().lower())
        object.__setattr__(self, "overrides", dict(self.overrides))
        if self.feature_format is not None:
            object.__setattr__(
                self, "feature_format", fold_name(self.feature_format)
            )
        if self.sparsity is not None:
            # Case/alias-fold ("measured-residual" -> "measured") so
            # equivalent specs share one identity; unknown modes survive the
            # fold for validate() to reject with a precise error.
            object.__setattr__(self, "sparsity", fold_sparsity_mode(self.sparsity))
        # Normalise the design override axis: a key-sorted plain dict, with
        # "no overrides" collapsing to None so empty mappings do not mint a
        # distinct run identity.  When the accelerator (and every key) is
        # resolvable, values are canonicalised through a derived DesignPoint
        # and redundant knobs — ones whose removal leaves the derived point
        # unchanged, including explicit format defaults like a slice_size of
        # 96 on BEICSR — are dropped, so equivalent spellings share one
        # scenario_id and one cache entry.  Unknown accelerators/knobs keep
        # the raw mapping for validate() to reject with a precise error.
        if self.design is not None:
            design = {key: self.design[key] for key in sorted(self.design)}
            if (
                design
                and self.feature_format is not None
                and {"feature_format", "slice_size"} & set(design)
            ):
                # Checked before normalisation: deriving format knobs against
                # the *base* design while a feature_format axis would replace
                # the format afterwards produces misleading errors (and, if
                # it succeeded, a mislabeled run).
                raise ConfigurationError(
                    "design format knobs "
                    f"{sorted({'feature_format', 'slice_size'} & set(design))} "
                    f"conflict with the feature_format={self.feature_format!r} "
                    "axis; set the format through one mechanism only"
                )
            if (
                design
                and self.accelerator in DESIGN_POINTS
                and set(design) <= set(DESIGN_KNOBS)
            ):
                base = DESIGN_POINTS[self.accelerator]
                derived = base.derive(**design)
                if design.get("slice_size") is not None and derived.slice_size is None:
                    raise ConfigurationError(
                        f"slice_size={design['slice_size']} has no effect: "
                        f"format {derived.feature_format!r} has no slice knob"
                    )
                kept = dict(design)
                for key in list(kept):
                    reduced = {k: v for k, v in kept.items() if k != key}
                    if base.derive(**reduced) == derived:
                        del kept[key]
                design = {key: getattr(derived, key) for key in sorted(kept)}
            object.__setattr__(self, "design", design or None)

    def __hash__(self) -> int:
        # The frozen dataclass's generated __hash__ would hash the overrides
        # dict and raise; hash the canonical identity instead so run specs
        # work in sets and as dict keys (consistent with field equality:
        # equal specs have equal keys, hence equal hashes).
        return hash((self.scenario_id, self.tag))

    # ------------------------------------------------------------------ #
    def validate(self) -> "RunSpec":
        """Check every field against the library's name tables.

        Returns ``self`` so the call chains; raises
        :class:`ConfigurationError` (or :class:`~repro.errors.FormatError`
        for a bad format override) on the first problem.
        """
        if self.dataset not in DATASET_SPECS:
            raise ConfigurationError(
                f"unknown dataset {self.dataset!r}; available: "
                f"{', '.join(sorted(DATASET_SPECS))}"
            )
        get_design(self.accelerator)
        if self.variant not in GCN_VARIANTS:
            raise ConfigurationError(
                f"unknown GCN variant {self.variant!r}; supported: "
                f"{', '.join(GCN_VARIANTS)}"
            )
        if self.feature_format is not None:
            get_format(self.feature_format)
        resolve_sparsity_mode(self.sparsity)
        if self.design:
            unknown = sorted(set(self.design) - set(DESIGN_KNOBS))
            if unknown:
                raise ConfigurationError(
                    f"unknown design knob(s) {unknown}; overridable knobs: "
                    f"{', '.join(DESIGN_KNOBS)}"
                )
            # (The feature_format-axis vs design-format-knob conflict is
            # rejected in __post_init__, before normalisation could derive
            # against the wrong base format.)
            get_design(self.accelerator).derive(**self.design)
        if self.num_layers <= 0:
            raise ConfigurationError("num_layers must be positive")
        if self.max_vertices < 2:
            raise ConfigurationError("max_vertices must be at least 2")
        if self.max_sampled_layers <= 0:
            raise ConfigurationError("max_sampled_layers must be positive")
        build_config(self.overrides)
        return self

    def build_config(self, base: Optional[SystemConfig] = None) -> SystemConfig:
        """The :class:`SystemConfig` this run executes under."""
        return build_config(self.overrides, base=base)

    # ------------------------------------------------------------------ #
    def identity_fields(self) -> Dict[str, object]:
        """Every field of the run's identity, ``overrides`` as given.

        Built from the dataclass fields, so a new field joins the identity
        without further edits.  The display-only ``tag`` is left out, and so
        are the optional axes (``feature_format``, ``design``, ``sparsity``)
        while unset: identities, and with them the content-addressed cache
        entries, of runs written before an axis existed are unchanged.
        ``overrides`` is copied but not validated; :meth:`key` normalises it.
        """
        data: Dict[str, object] = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name == "tag" or (
                spec_field.default is None and value is None
            ):
                continue
            if isinstance(value, Mapping):
                value = dict(value)
            elif spec_field.type == "int":
                value = int(value)
            data[spec_field.name] = value
        return data

    def key(self) -> Dict[str, object]:
        """Canonical mapping that determines the run's identity.

        Everything that can change the simulation output is included (see
        :meth:`identity_fields`), with ``overrides`` validated and sorted.
        """
        data = self.identity_fields()
        data["overrides"] = _normalise_overrides(self.overrides)
        return data

    @property
    def scenario_id(self) -> str:
        """Deterministic 12-hex-digit identity derived from :meth:`key`."""
        payload = json.dumps(self.key(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:12]

    @property
    def run_id(self) -> str:
        """Alias of :attr:`scenario_id` under the RunSpec vocabulary."""
        return self.scenario_id

    def label(self) -> str:
        """Human-readable one-line description used in logs."""
        parts = [self.dataset, self.accelerator]
        if self.variant != "gcn":
            parts.append(self.variant)
        if self.feature_format is not None:
            parts.append(self.feature_format)
        if self.sparsity is not None:
            parts.append(self.sparsity)
        if self.num_layers != DEFAULT_NUM_LAYERS:
            parts.append(f"L{self.num_layers}")
        if self.seed:
            parts.append(f"seed{self.seed}")
        for key, value in sorted(self.overrides.items()):
            parts.append(f"{key}={value}")
        if self.design:
            for key, value in self.design.items():
                parts.append(f"{key}={value}")
        return "/".join(str(part) for part in parts)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Round-trip serialisation (see :meth:`from_dict`)."""
        data = self.key()
        data["tag"] = self.tag
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec produced by :meth:`to_dict`."""
        raw_format = data.get("feature_format")
        raw_design = data.get("design")
        raw_sparsity = data.get("sparsity")
        return cls(
            dataset=str(data["dataset"]),
            accelerator=str(data["accelerator"]),
            variant=str(data.get("variant", "gcn")),
            seed=int(data.get("seed", 0)),
            max_vertices=int(data.get("max_vertices", DEFAULT_MAX_VERTICES)),
            max_sampled_layers=int(data.get("max_sampled_layers", 6)),
            num_layers=int(data.get("num_layers", DEFAULT_NUM_LAYERS)),
            overrides=dict(data.get("overrides", {})),
            feature_format=None if raw_format is None else str(raw_format),
            design=None if raw_design is None else dict(raw_design),
            sparsity=None if raw_sparsity is None else str(raw_sparsity),
            tag=str(data.get("tag", "")),
        )


__all__ = [
    "DEFAULT_MAX_VERTICES",
    "DRAM_GENERATIONS",
    "RunSpec",
    "SUPPORTED_OVERRIDES",
    "build_config",
]
