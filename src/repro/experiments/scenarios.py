"""Built-in scenario packs reproducing the paper's evaluation shapes.

Each pack is a factory returning a :class:`~repro.experiments.spec.SweepSpec`
shaped like one of the SGCN paper's studies:

* ``paper-comparison`` — the main accelerator x dataset grid behind the
  speedup / traffic / energy figures (Figs. 11, 13, 14);
* ``cache-size`` — global cache capacity sensitivity;
* ``engine-count`` — aggregation/combination engine-count scalability;
* ``hbm-generation`` — HBM1 vs HBM2 bandwidth sensitivity (Fig. 18);
* ``depth-sweep`` — GCN depth 4-28 layers (the deep-GCN scaling story);
* ``variant-sweep`` — GCN / GINConv / GraphSAGE aggregation variants
  (Fig. 16);
* ``design-space`` — a grid of *hypothetical* design points (execution
  order x tiling x feature format x zero skipping) the paper only sampled,
  expressed as :class:`~repro.accelerator.design.DesignPoint` knob
  overrides over the GCNAX base design;
* ``sparsity-depth`` — the Fig. 1 / Fig. 2a story as accelerator scenarios:
  a depth x residual grid in *measured* sparsity mode, where every run
  trains/forwards a :class:`~repro.gcn.model.DeepGCN` on the dataset's
  topology (calibrated along :func:`~repro.gcn.sparsity.sparsity_vs_depth`)
  and feeds the harvested per-row/per-slice tables to the formats.

Packs default to scaled-down datasets (``max_vertices``) so a full sweep
stays tractable on a laptop; pass a larger cap for higher fidelity.  Every
pack also has a ``quick`` variant (``get_pack(name, quick=True)``, CLI
``repro sweep <pack> --quick``) shrinking it to a CI-smoke-sized grid.
"""

from __future__ import annotations

import itertools

from typing import Callable, Dict, List, Optional

from repro.accelerator.registry import PAPER_COMPARISON
from repro.errors import ConfigurationError
from repro.experiments.spec import SweepSpec
from repro.graphs.datasets import FIGURE_ORDER

#: Default scale cap of the built-in packs; small enough that the full
#: paper-comparison grid finishes in seconds, large enough to exercise the
#: cache/tiling machinery.
DEFAULT_PACK_MAX_VERTICES = 512

#: Medium-sized datasets used by the sensitivity packs (one low-sparsity,
#: one clustered, one hub-heavy graph).
SENSITIVITY_DATASETS = ("pubmed", "dblp", "github")

#: Accelerators contrasted in the sensitivity packs: the paper's design and
#: its strongest dense-format baseline.
SENSITIVITY_ACCELERATORS = ("gcnax", "sgcn")

#: Cache capacities of the cache-size sensitivity pack (bytes):
#: half-octave steps from 128 KB to 2 MB around the paper's 512 KB point.
#: Spectrum replay answers a whole capacity column in one grouped
#: evaluation, so the dense grid costs barely more than a sparse one.
CACHE_CAPACITIES = tuple(
    kb * 1024 for kb in (128, 192, 256, 384, 512, 768, 1024, 1536, 2048)
)

#: Engine counts of the engine-count scalability pack.
ENGINE_COUNTS = (2, 4, 8, 16, 32)

#: GCN depths of the depth sweep (paper evaluates up to 28 layers).
DEPTHS = (4, 8, 12, 16, 20, 24, 28)

#: Scale cap used by the ``quick`` (CI smoke) variant of every pack.
QUICK_MAX_VERTICES = 128


def _quick_cap(max_vertices: int, quick: bool) -> int:
    """The effective scale cap: quick variants never exceed the smoke cap."""
    return min(max_vertices, QUICK_MAX_VERTICES) if quick else max_vertices

#: Base accelerator whose design point the ``design-space`` pack derives
#: from (the paper's strongest dense baseline).
DESIGN_SPACE_BASE = "gcnax"

#: Destination-tile fill fraction shared by every ``design-space`` grid
#: point.  No built-in design uses this value, so every grid point is
#: guaranteed to be a *non-built-in* design point even when the other knobs
#: happen to coincide with a registered design.
DESIGN_SPACE_FILL_FRACTION = 0.9

#: Axes of the ``design-space`` grid: (tag fragment, design knob overrides).
DESIGN_SPACE_ORDERS = (
    ("row", {}),
    ("col", {"column_product": True, "psum_traffic_factor": 1.0}),
)
DESIGN_SPACE_TILINGS = (
    ("tiled", {}),
    ("untiled", {"uses_destination_tiling": False, "uses_source_tiling": False}),
)
DESIGN_SPACE_FORMATS = (
    ("dense", {"feature_format": "dense"}),
    ("beicsr", {"feature_format": "beicsr"}),
    ("nonsliced", {"feature_format": "beicsr_nonsliced"}),
)
DESIGN_SPACE_SKIPPING = (
    ("noskip", {}),
    (
        "zskip",
        {"sparse_aggregation_compute": True, "combination_zero_skipping": True},
    ),
)


def paper_comparison_pack(
    max_vertices: int = DEFAULT_PACK_MAX_VERTICES, quick: bool = False
) -> SweepSpec:
    """Main comparison grid: every paper dataset x every paper accelerator."""
    return SweepSpec(
        name="paper-comparison",
        description=(
            "Main accelerator comparison over all nine datasets "
            "(Figs. 11/13/14 grid)"
        ),
        datasets=FIGURE_ORDER,
        accelerators=PAPER_COMPARISON,
        max_vertices=_quick_cap(max_vertices, quick),
    )


def cache_size_pack(
    max_vertices: int = DEFAULT_PACK_MAX_VERTICES, quick: bool = False
) -> SweepSpec:
    """Global cache capacity sensitivity around the paper's 512 KB point."""
    return SweepSpec(
        name="cache-size",
        description="Cache-capacity sensitivity (128 KB - 2 MB)",
        datasets=SENSITIVITY_DATASETS,
        accelerators=SENSITIVITY_ACCELERATORS,
        override_grid=[
            {"cache_capacity_bytes": capacity} for capacity in CACHE_CAPACITIES
        ],
        override_tags=[f"{capacity // 1024}KB" for capacity in CACHE_CAPACITIES],
        max_vertices=_quick_cap(max_vertices, quick),
    )


def engine_count_pack(
    max_vertices: int = DEFAULT_PACK_MAX_VERTICES, quick: bool = False
) -> SweepSpec:
    """Engine-count scalability around the paper's 8+8 configuration."""
    return SweepSpec(
        name="engine-count",
        description="Aggregation/combination engine-count scalability (2-32)",
        datasets=SENSITIVITY_DATASETS,
        accelerators=SENSITIVITY_ACCELERATORS,
        override_grid=[{"num_engines": count} for count in ENGINE_COUNTS],
        override_tags=[f"{count}eng" for count in ENGINE_COUNTS],
        max_vertices=_quick_cap(max_vertices, quick),
    )


def hbm_generation_pack(
    max_vertices: int = DEFAULT_PACK_MAX_VERTICES, quick: bool = False
) -> SweepSpec:
    """HBM1 vs HBM2 bandwidth sensitivity (Fig. 18)."""
    return SweepSpec(
        name="hbm-generation",
        description="HBM generation sweep (HBM1 128 GB/s vs HBM2 256 GB/s)",
        datasets=SENSITIVITY_DATASETS,
        accelerators=("gcnax", "hygcn", "sgcn"),
        override_grid=[{"dram": "hbm1"}, {"dram": "hbm2"}],
        override_tags=["HBM1", "HBM2"],
        max_vertices=_quick_cap(max_vertices, quick),
    )


def depth_sweep_pack(
    max_vertices: int = DEFAULT_PACK_MAX_VERTICES, quick: bool = False
) -> SweepSpec:
    """GCN depth sweep from shallow (4) to the paper's deep 28-layer models."""
    return SweepSpec(
        name="depth-sweep",
        description="GCN depth sweep, 4-28 layers",
        datasets=("cora", "pubmed"),
        accelerators=SENSITIVITY_ACCELERATORS,
        depths=DEPTHS,
        max_vertices=_quick_cap(max_vertices, quick),
    )


def variant_sweep_pack(
    max_vertices: int = DEFAULT_PACK_MAX_VERTICES, quick: bool = False
) -> SweepSpec:
    """Aggregation-variant sweep: GCN vs GINConv vs GraphSAGE (Fig. 16)."""
    return SweepSpec(
        name="variant-sweep",
        description="Aggregation variant sweep (GCN / GINConv / GraphSAGE)",
        datasets=SENSITIVITY_DATASETS,
        accelerators=SENSITIVITY_ACCELERATORS,
        variants=("gcn", "gin", "sage"),
        max_vertices=_quick_cap(max_vertices, quick),
    )


#: Depth x residual grid of the ``sparsity-depth`` pack: the two measured
#: modes are the "Residual" and "Traditional" curves of Fig. 1 / Fig. 2a.
SPARSITY_DEPTH_MODES = ("measured", "measured-traditional")

#: GCN depths of the ``sparsity-depth`` pack (a coarser ladder than the
#: synthetic ``depth-sweep``: every cell trains a model).
SPARSITY_DEPTH_DEPTHS = (4, 8, 16, 28)


def sparsity_depth_pack(
    max_vertices: int = DEFAULT_PACK_MAX_VERTICES, quick: bool = False
) -> SweepSpec:
    """Measured-sparsity depth x residual grid (Fig. 1 / Fig. 2a story).

    Runs SGCN on the three medium datasets with the ``measured`` and
    ``measured-traditional`` sparsity providers across the depth ladder:
    each cell trains/forwards a DeepGCN on the dataset's topology and the
    accelerator consumes its harvested per-row/per-slice non-zero tables.
    The ``quick`` variant shrinks to one dataset and the two endpoint depths
    for CI smoke runs.
    """
    datasets = SENSITIVITY_DATASETS
    depths = SPARSITY_DEPTH_DEPTHS
    if quick:
        datasets = ("pubmed",)
        depths = (4, 28)
    return SweepSpec(
        name="sparsity-depth",
        description=(
            "Measured-sparsity depth x residual grid (trained DeepGCN "
            "tables, Fig. 1/2a)"
        ),
        datasets=datasets,
        accelerators=("sgcn",),
        depths=depths,
        sparsities=SPARSITY_DEPTH_MODES,
        max_vertices=_quick_cap(max_vertices, quick),
    )


def design_space_pack(
    max_vertices: int = DEFAULT_PACK_MAX_VERTICES, quick: bool = False
) -> SweepSpec:
    """Design-space exploration: a grid of hypothetical design points.

    Sweeps execution order (row vs column product) x destination tiling x
    feature format (dense / sliced BEICSR / non-sliced BEICSR) x compute
    zero skipping as design overrides on the GCNAX base design — 24 distinct
    non-built-in design points over the medium datasets.  The ``quick``
    variant shrinks the grid (one dataset, dense + sliced BEICSR only) for
    CI smoke runs.
    """
    orders = DESIGN_SPACE_ORDERS
    tilings = DESIGN_SPACE_TILINGS
    formats = DESIGN_SPACE_FORMATS
    skipping = DESIGN_SPACE_SKIPPING
    datasets = SENSITIVITY_DATASETS
    if quick:
        formats = formats[:2]
        tilings = tilings[:1]
        datasets = ("pubmed",)
    grid = []
    tags = []
    for (order_tag, order), (tile_tag, tile), (fmt_tag, fmt), (skip_tag, skip) in (
        itertools.product(orders, tilings, formats, skipping)
    ):
        point = {"tiling_fill_fraction": DESIGN_SPACE_FILL_FRACTION}
        point.update(order)
        point.update(tile)
        point.update(fmt)
        point.update(skip)
        grid.append(point)
        tags.append("-".join((order_tag, tile_tag, fmt_tag, skip_tag)))
    return SweepSpec(
        name="design-space",
        description=(
            "Design-space exploration grid (execution order x tiling x "
            "format x zero skipping) over hypothetical design points"
        ),
        datasets=datasets,
        accelerators=(DESIGN_SPACE_BASE,),
        design_grid=grid,
        design_tags=tags,
        max_vertices=_quick_cap(max_vertices, quick),
    )


#: The built-in packs by CLI name.
SCENARIO_PACKS: Dict[str, Callable[..., SweepSpec]] = {
    "paper-comparison": paper_comparison_pack,
    "cache-size": cache_size_pack,
    "engine-count": engine_count_pack,
    "hbm-generation": hbm_generation_pack,
    "depth-sweep": depth_sweep_pack,
    "variant-sweep": variant_sweep_pack,
    "design-space": design_space_pack,
    "sparsity-depth": sparsity_depth_pack,
}


def available_packs() -> List[str]:
    """Names of the built-in scenario packs."""
    return sorted(SCENARIO_PACKS)


def get_pack(
    name: str, max_vertices: Optional[int] = None, quick: bool = False
) -> SweepSpec:
    """Build the named scenario pack.

    Args:
        name: Pack name (see :func:`available_packs`); case-insensitive,
            underscores accepted in place of dashes.
        max_vertices: Optional scale-cap override for every scenario.
        quick: Build the pack's CI-smoke variant: a reduced scale cap
            (:data:`QUICK_MAX_VERTICES`) and, where the pack defines one, a
            smaller grid (``design-space`` drops to one dataset and a
            2x1x2x2 knob grid; ``sparsity-depth`` to one dataset and the
            endpoint depths).
    """
    key = name.strip().lower().replace("_", "-")
    if key not in SCENARIO_PACKS:
        raise ConfigurationError(
            f"unknown scenario pack {name!r}; available: "
            f"{', '.join(available_packs())}"
        )
    factory = SCENARIO_PACKS[key]
    cap = max_vertices if max_vertices is not None else DEFAULT_PACK_MAX_VERTICES
    return factory(cap, quick=quick)


__all__ = [
    "DEFAULT_PACK_MAX_VERTICES",
    "QUICK_MAX_VERTICES",
    "SCENARIO_PACKS",
    "available_packs",
    "cache_size_pack",
    "depth_sweep_pack",
    "design_space_pack",
    "engine_count_pack",
    "get_pack",
    "hbm_generation_pack",
    "paper_comparison_pack",
    "sparsity_depth_pack",
    "variant_sweep_pack",
]
