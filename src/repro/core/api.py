"""High-level simulation API (classic function shims).

These helpers remain the quickest way to run one simulation, but they are now
thin shims over the canonical run-description API: each call builds a
:class:`~repro.core.runspec.RunSpec` and delegates to a shared default
:class:`~repro.core.session.Session`.  New code — and anything that runs
*batches* of simulations — should use ``RunSpec``/``Session`` directly::

    from repro import RunSpec, Session

    session = Session()
    result = session.run(RunSpec(dataset="pubmed", accelerator="sgcn",
                                 max_vertices=1024))
    comparison = session.compare(
        [RunSpec(dataset="pubmed", accelerator=name, max_vertices=1024)
         for name in ("gcnax", "hygcn", "sgcn")],
        baseline="gcnax",
    )

The shims:

* :func:`simulate` — run one accelerator on one dataset;
* :func:`compare_accelerators` — run several accelerators on the same dataset
  and collect normalised speedups / traffic / energy;
* :func:`available_accelerators` — list the modelled designs.

Example::

    from repro import load_dataset, simulate, compare_accelerators

    dataset = load_dataset("pubmed", max_vertices=1024)
    sgcn = simulate(dataset, "sgcn")
    comparison = compare_accelerators(dataset, ["gcnax", "hygcn", "sgcn"])
    print(comparison.speedups("gcnax"))
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Union

from repro.accelerator.design import DesignPoint
from repro.accelerator.pipeline import GCN_VARIANTS

# available_accelerators is re-exported as part of this module's API.
from repro.accelerator.registry import (
    PAPER_COMPARISON,
    available_accelerators,
    canonical_accelerator,
)
from repro.core.config import SystemConfig
from repro.core.results import ComparisonResult, SimulationResult
from repro.core.runspec import DEFAULT_MAX_VERTICES, RunSpec
from repro.core.session import Session, default_session
from repro.errors import ConfigurationError, SimulationError
from repro.graphs.datasets import Dataset


def _validate_variant(variant: str) -> str:
    """Check ``variant`` at the API boundary so bad input fails fast.

    Returns:
        The normalised (lower-case) variant name.

    Raises:
        ConfigurationError: If ``variant`` is not one of the supported
            aggregation variants.
    """
    key = variant.lower() if isinstance(variant, str) else variant
    if key not in GCN_VARIANTS:
        raise ConfigurationError(
            f"unknown GCN variant {variant!r}; supported variants: "
            f"{', '.join(GCN_VARIANTS)}"
        )
    return key


def _resolve_dataset(
    session: Session, dataset: Union[Dataset, str], max_vertices: Optional[int]
) -> Dataset:
    """Resolve a dataset argument, rejecting a cap that cannot apply.

    A :class:`Dataset` instance is already scaled, so an *explicit*
    ``max_vertices`` alongside one is a contradiction — it used to be silently
    dropped; now it raises so the caller notices the cap never applied.
    """
    if isinstance(dataset, Dataset):
        if max_vertices is not None:
            raise ConfigurationError(
                f"max_vertices={max_vertices} conflicts with an explicit "
                f"Dataset instance ({dataset.name!r} is already loaded with "
                f"{dataset.num_vertices} vertices); pass the cap to "
                "load_dataset() instead, or drop it"
            )
        return dataset
    return session.load_dataset(
        dataset,
        max_vertices=DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices,
    )


def _resolve_accelerator(
    session: Session, accelerator: Union[DesignPoint, str]
) -> DesignPoint:
    if isinstance(accelerator, DesignPoint):
        return accelerator
    return session.accelerator(accelerator)


def _shim_spec(
    dataset: Dataset,
    accelerator: DesignPoint,
    variant: str,
    max_sampled_layers: int,
    seed: int,
) -> RunSpec:
    return RunSpec(
        dataset=dataset.name,
        accelerator=accelerator.name,
        variant=variant,
        seed=seed,
        max_vertices=dataset.num_vertices,
        max_sampled_layers=max_sampled_layers,
        num_layers=dataset.num_layers,
    )


def simulate(
    dataset: Union[Dataset, str],
    accelerator: Union[DesignPoint, str] = "sgcn",
    config: Optional[SystemConfig] = None,
    variant: str = "gcn",
    max_vertices: Optional[int] = None,
    max_sampled_layers: int = 6,
    seed: int = 0,
) -> SimulationResult:
    """Simulate one accelerator running a deep GCN on one dataset.

    A shim over :meth:`repro.core.session.Session.run`; with a pre-loaded
    :class:`Dataset` the result is byte-identical to running the equivalent
    :class:`~repro.core.runspec.RunSpec` through a session.  One historical
    quirk is preserved when the dataset is given by *name*: ``seed`` here
    seeds only the per-row sparsity draws (the topology is generated with
    seed 0, as this function always did), whereas a ``RunSpec``'s seed drives
    both.  Load the dataset yourself — or use ``RunSpec`` — when you want the
    seed to vary the topology too.

    Args:
        dataset: A :class:`~repro.graphs.datasets.Dataset` or a dataset name.
        accelerator: A design point (any, built-in or derived) or an
            accelerator name.
        config: System configuration (paper Table III defaults when omitted).
        variant: Aggregation variant (``"gcn"``, ``"gin"``, ``"sage"``).
        max_vertices: Scale cap applied when ``dataset`` is given by name
            (default 2048).  Passing it together with a ``Dataset`` instance
            raises :class:`ConfigurationError` — the instance is already
            scaled, so the cap could never apply.
        max_sampled_layers: Representative-layer sampling budget.
        seed: Seed for the synthetic per-row sparsity draws.

    Returns:
        The :class:`~repro.core.results.SimulationResult` of the run.
    """
    session = default_session()
    variant = _validate_variant(variant)
    dataset_obj = _resolve_dataset(session, dataset, max_vertices)
    design = _resolve_accelerator(session, accelerator)
    spec = _shim_spec(dataset_obj, design, variant, max_sampled_layers, seed)
    return session.run(spec, dataset=dataset_obj, accelerator=design, config=config)


def compare_accelerators(
    dataset: Union[Dataset, str],
    accelerators: Optional[Sequence[Union[DesignPoint, str]]] = None,
    config: Optional[SystemConfig] = None,
    variant: str = "gcn",
    baseline: str = "gcnax",
    max_vertices: Optional[int] = None,
    max_sampled_layers: int = 6,
    seed: int = 0,
) -> ComparisonResult:
    """Simulate several accelerators on the same dataset and configuration.

    A shim over :meth:`repro.core.session.Session.run`.  Every accelerator
    reference — including the ``baseline`` — is resolved *before* the first
    simulation, so a typo fails in milliseconds instead of after the whole
    comparison has run.

    Args:
        dataset: Dataset instance or name.
        accelerators: Accelerators to compare, as names or design points
            with distinct names;
            defaults to the paper's main comparison set (GCNAX, HyGCN,
            AWB-GCN, EnGN, I-GCN, SGCN).
        config: Shared system configuration.
        variant: Aggregation variant.
        baseline: Name used as the normalisation baseline.
        max_vertices: Scale cap applied when ``dataset`` is given by name
            (default 2048); conflicts with a ``Dataset`` instance, as in
            :func:`simulate`.
        max_sampled_layers: Representative-layer sampling budget.
        seed: Seed for the synthetic per-row sparsity draws.

    Returns:
        A :class:`~repro.core.results.ComparisonResult`.
    """
    session = default_session()
    variant = _validate_variant(variant)
    dataset_obj = _resolve_dataset(session, dataset, max_vertices)
    if accelerators is None:
        names: Iterable[Union[DesignPoint, str]] = PAPER_COMPARISON
    else:
        names = list(accelerators)
        if not names:
            raise SimulationError(
                "compare_accelerators() was given an empty accelerator "
                "selection; pass None to compare the paper's main set "
                f"({', '.join(PAPER_COMPARISON)}) or list at least one name"
            )
    # Resolve every entry up front: unknown names fail here, and the baseline
    # is checked against the resolved set before any simulation runs.  An
    # exact match against the design names (which custom design points may
    # spell any way they like) wins; otherwise the baseline is canonicalised
    # so alias spellings like "awb-gcn" work too.
    designs = [_resolve_accelerator(session, entry) for entry in names]
    design_names = {design.name for design in designs}
    if len(design_names) != len(designs):
        # The comparison is keyed by design name (a derived point keeps its
        # base's name), so a repeated name would silently drop a run.
        raise SimulationError(
            "compare_accelerators() needs one entry per design name; got "
            f"{sorted(design.name for design in designs)}"
        )
    baseline_key = (
        baseline if baseline in design_names else canonical_accelerator(baseline)
    )
    if baseline_key not in design_names:
        raise SimulationError(
            f"baseline {baseline!r} was not among the simulated accelerators"
        )
    comparison = ComparisonResult(dataset=dataset_obj.name, baseline=baseline_key)
    for design in designs:
        spec = _shim_spec(dataset_obj, design, variant, max_sampled_layers, seed)
        comparison.add(
            session.run(spec, dataset=dataset_obj, accelerator=design, config=config)
        )
    return comparison
