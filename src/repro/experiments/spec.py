"""Declarative experiment specifications.

A :class:`Scenario` is one fully-determined simulation run.  Historically
this module owned that dataclass; it is now literally the canonical
:class:`repro.core.runspec.RunSpec` — ``Scenario`` is an alias, kept so
experiment code, cached sweep output, and pickled payloads keep working while
validation, identity (``scenario_id``), and ``to_dict``/``from_dict`` exist
exactly once in :mod:`repro.core.runspec`.

A :class:`SweepSpec` declares axes (datasets x accelerators x variants x
seeds x depths x sparsity modes x config overrides x design overrides) and
expands them into the cartesian grid of run specs, validating every axis
value up front so a sweep fails before the first simulation rather than
hours in.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.runspec import (
    DRAM_GENERATIONS,
    SUPPORTED_OVERRIDES,
    RunSpec,
    build_config,
)
from repro.errors import ConfigurationError
from repro.graphs.datasets import DEFAULT_NUM_LAYERS

#: One fully-determined simulation run — the canonical
#: :class:`repro.core.runspec.RunSpec` under its historical experiment name.
Scenario = RunSpec


@dataclass(frozen=True)
class SweepSpec:
    """A declarative grid of scenarios.

    The grid is the cartesian product of the axes (``datasets`` x
    ``accelerators`` x ``variants`` x ``seeds`` x ``depths`` x
    ``sparsities`` x ``override_grid`` x ``design_grid``); scalar run
    parameters (``max_vertices``, ``max_sampled_layers``) are shared by
    every scenario.

    Attributes:
        name: Sweep name (used for output directories).
        datasets: Dataset keys to sweep.
        accelerators: Accelerator names to sweep.
        variants: Aggregation variants to sweep.
        seeds: RNG seeds to sweep.
        depths: GCN depths (``num_layers``) to sweep.
        sparsities: Sparsity modes to sweep (see
            :data:`~repro.gcn.providers.SPARSITY_MODES`); ``(None,)`` — the
            default — runs the synthetic profile with the axis left out of
            every scenario identity.
        override_grid: One :class:`SystemConfig` override mapping per grid
            point; ``[{}]`` means a single point at Table III defaults.
        override_tags: Optional display tag per override grid point (same
            length as ``override_grid``).
        design_grid: One :class:`~repro.accelerator.design.DesignPoint` knob
            override mapping per grid point; ``[{}]`` means a single point
            running each accelerator's design as registered.
        design_tags: Optional display tag per design grid point (same length
            as ``design_grid``).
        max_vertices: Scale cap shared by every scenario.
        max_sampled_layers: Layer-sampling budget shared by every scenario.
        description: One-line description shown by ``repro list``.
    """

    name: str
    datasets: Sequence[str]
    accelerators: Sequence[str]
    variants: Sequence[str] = ("gcn",)
    seeds: Sequence[int] = (0,)
    depths: Sequence[int] = (DEFAULT_NUM_LAYERS,)
    sparsities: Sequence[Optional[str]] = (None,)
    override_grid: Sequence[Mapping[str, object]] = (
        field(default_factory=lambda: [{}])
    )
    override_tags: Sequence[str] = ()
    design_grid: Sequence[Mapping[str, object]] = (
        field(default_factory=lambda: [{}])
    )
    design_tags: Sequence[str] = ()
    max_vertices: int = 2048
    max_sampled_layers: int = 6
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("sweep name must not be empty")
        for axis_name in (
            "datasets",
            "accelerators",
            "variants",
            "seeds",
            "depths",
            "sparsities",
        ):
            if not list(getattr(self, axis_name)):
                raise ConfigurationError(f"sweep axis {axis_name!r} must not be empty")
        for grid_name in ("override_grid", "design_grid"):
            grid = [dict(point) for point in getattr(self, grid_name)]
            if not grid:
                raise ConfigurationError(
                    f"{grid_name} must not be empty (use [{{}}])"
                )
            object.__setattr__(self, grid_name, grid)
            tags_name = grid_name.replace("_grid", "_tags")
            tags = list(getattr(self, tags_name))
            if tags and len(tags) != len(grid):
                raise ConfigurationError(
                    f"{tags_name} must match {grid_name} in length "
                    f"(got {len(tags)} tags for {len(grid)} grid points)"
                )
            object.__setattr__(self, tags_name, tags)

    # ------------------------------------------------------------------ #
    @property
    def num_scenarios(self) -> int:
        """Size of the expanded grid."""
        return (
            len(list(self.datasets))
            * len(list(self.accelerators))
            * len(list(self.variants))
            * len(list(self.seeds))
            * len(list(self.depths))
            * len(list(self.sparsities))
            * len(list(self.override_grid))
            * len(list(self.design_grid))
        )

    def expand(self, validate: bool = True) -> List[Scenario]:
        """Expand the axes into the cartesian grid of run specs.

        Args:
            validate: Check every spec against the registries (datasets,
                accelerators, variants, config legality) before returning.

        Returns:
            The specs in deterministic axis order (design overrides
            outermost, then config overrides, dataset, accelerator, variant,
            seed, depth, sparsity mode).
        """
        scenarios: List[Scenario] = []
        for design_index, design in enumerate(self.design_grid):
            design_tag = self.design_tags[design_index] if self.design_tags else ""
            for grid_index, overrides in enumerate(self.override_grid):
                tag = self.override_tags[grid_index] if self.override_tags else ""
                combined_tag = "/".join(part for part in (tag, design_tag) if part)
                for (
                    dataset,
                    accelerator,
                    variant,
                    seed,
                    depth,
                    sparsity,
                ) in itertools.product(
                    self.datasets,
                    self.accelerators,
                    self.variants,
                    self.seeds,
                    self.depths,
                    self.sparsities,
                ):
                    scenarios.append(
                        Scenario(
                            dataset=dataset,
                            accelerator=accelerator,
                            variant=variant,
                            seed=seed,
                            max_vertices=self.max_vertices,
                            max_sampled_layers=self.max_sampled_layers,
                            num_layers=depth,
                            overrides=overrides,
                            design=design or None,
                            sparsity=sparsity,
                            tag=combined_tag,
                        )
                    )
        if validate:
            for scenario in scenarios:
                scenario.validate()
        unique = {scenario.scenario_id for scenario in scenarios}
        if len(unique) != len(scenarios):
            raise ConfigurationError(
                f"sweep {self.name!r} expands to duplicate scenarios; "
                "check the axes for repeated values"
            )
        return scenarios

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """Round-trip serialisation (see :meth:`from_dict`)."""
        return {
            "name": self.name,
            "datasets": list(self.datasets),
            "accelerators": list(self.accelerators),
            "variants": list(self.variants),
            "seeds": [int(seed) for seed in self.seeds],
            "depths": [int(depth) for depth in self.depths],
            "sparsities": [
                None if mode is None else str(mode) for mode in self.sparsities
            ],
            "override_grid": [dict(point) for point in self.override_grid],
            "override_tags": list(self.override_tags),
            "design_grid": [dict(point) for point in self.design_grid],
            "design_tags": list(self.design_tags),
            "max_vertices": int(self.max_vertices),
            "max_sampled_layers": int(self.max_sampled_layers),
            "description": self.description,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SweepSpec":
        """Rebuild a spec produced by :meth:`to_dict`."""
        return cls(
            name=str(data["name"]),
            datasets=list(data["datasets"]),
            accelerators=list(data["accelerators"]),
            variants=list(data.get("variants", ["gcn"])),
            seeds=[int(seed) for seed in data.get("seeds", [0])],
            depths=[int(depth) for depth in data.get("depths", [DEFAULT_NUM_LAYERS])],
            sparsities=[
                None if mode is None else str(mode)
                for mode in data.get("sparsities", [None])
            ],
            override_grid=[dict(point) for point in data.get("override_grid", [{}])],
            override_tags=list(data.get("override_tags", [])),
            design_grid=[dict(point) for point in data.get("design_grid", [{}])],
            design_tags=list(data.get("design_tags", [])),
            max_vertices=int(data.get("max_vertices", 2048)),
            max_sampled_layers=int(data.get("max_sampled_layers", 6)),
            description=str(data.get("description", "")),
        )

__all__ = [
    "DRAM_GENERATIONS",
    "SUPPORTED_OVERRIDES",
    "RunSpec",
    "Scenario",
    "SweepSpec",
    "build_config",
]
