"""High-level simulation API (classic function shims).

These helpers remain the quickest way to run one simulation, but they are
thin shims over the canonical run-description API: each call turns its
arguments into :class:`~repro.core.runspec.RunSpec` objects and passes them to
:meth:`Session.run <repro.core.session.Session.run>` or
:meth:`Session.compare <repro.core.session.Session.compare>`, so a shim result
is byte-identical to the spec's.  New code — and anything that runs *batches*
of simulations — should use ``RunSpec``/``Session`` directly::

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

A shim accepts only what a ``RunSpec`` can describe: a dataset name, or a
:class:`~repro.graphs.datasets.Dataset` equal to the one the session loads for
its name, scale, depth and seed; an accelerator name, or a
:class:`~repro.accelerator.design.DesignPoint` derived from a registered one
by design knobs.  Anything else raises :class:`ConfigurationError` before a
run; :func:`repro.accelerator.pipeline.simulate_design` runs any point on any
dataset.

Example::

    from repro import load_dataset, simulate, compare_accelerators

    dataset = load_dataset("pubmed", max_vertices=1024)
    sgcn = simulate(dataset, "sgcn")
    comparison = compare_accelerators(dataset, ["gcnax", "hygcn", "sgcn"])
    print(comparison.speedups("gcnax"))
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Union

import numpy as np

from repro.accelerator.design import DESIGN_KNOBS, DesignPoint

# available_accelerators is re-exported as part of this module's API.
from repro.accelerator.registry import (
    PAPER_COMPARISON,
    available_accelerators,
    get_design,
)
from repro.core.config import SystemConfig
from repro.core.results import ComparisonResult, SimulationResult
from repro.core.runspec import DEFAULT_MAX_VERTICES, RunSpec
from repro.core.session import Session, default_session
from repro.errors import ConfigurationError, SimulationError
from repro.graphs.datasets import Dataset

_SIMULATE_DESIGN = (
    "; run it with repro.accelerator.pipeline.simulate_design, which takes "
    "any DesignPoint and Dataset"
)


def _dataset_fields(
    session: Session,
    dataset: Union[Dataset, str],
    max_vertices: Optional[int],
    seed: Optional[int],
) -> Dict[str, Any]:
    """The ``RunSpec`` fields that name ``dataset``.

    A :class:`Dataset` instance is already scaled and seeded, so an explicit
    ``max_vertices`` or a different ``seed`` alongside one is a contradiction
    and raises.  The instance must also equal what ``session`` loads for its
    name, scale, depth and seed — topology, weights, hidden width and
    sparsity profile — or its spec would run a different dataset.
    """
    if not isinstance(dataset, Dataset):
        cap = DEFAULT_MAX_VERTICES if max_vertices is None else max_vertices
        return {"dataset": dataset, "max_vertices": cap, "seed": seed or 0}
    if max_vertices is not None:
        raise ConfigurationError(
            f"max_vertices={max_vertices} conflicts with an explicit "
            f"Dataset instance ({dataset.name!r} is already loaded with "
            f"{dataset.num_vertices} vertices); pass the cap to "
            "load_dataset() instead, or drop it"
        )
    if seed is not None and seed != dataset.seed:
        raise ConfigurationError(
            f"seed={seed} conflicts with an explicit Dataset instance "
            f"({dataset.name!r} is loaded with seed {dataset.seed}); pass the "
            "seed to load_dataset() instead, or drop it"
        )
    fields: Dict[str, int] = {
        "max_vertices": dataset.num_vertices,
        "num_layers": dataset.num_layers,
        "seed": dataset.seed,
    }
    loaded = session.load_dataset(dataset.name, **fields)
    same = (
        (loaded.spec, loaded.scale, loaded.hidden_width)
        == (dataset.spec, dataset.scale, dataset.hidden_width)
        and loaded.layer_sparsities() == dataset.layer_sparsities()
        and all(
            np.array_equal(getattr(loaded.graph, array), getattr(dataset.graph, array))
            for array in ("indptr", "indices", "weights")
        )
    )
    if not same:
        raise ConfigurationError(
            f"dataset {dataset.name!r} is not the one a RunSpec loads for "
            f"{fields}" + _SIMULATE_DESIGN
        )
    return {"dataset": dataset.name, **fields}


def _accelerator_fields(accelerator: Union[DesignPoint, str]) -> Dict[str, Any]:
    """The ``RunSpec`` fields that name ``accelerator``.

    A :class:`DesignPoint` becomes its registered name plus the design knobs
    in which it differs from that name's point; it must be exactly that
    derivation, or its spec would run a different design.
    """
    if not isinstance(accelerator, DesignPoint):
        return {"accelerator": accelerator}
    try:
        base = get_design(accelerator.name)
    except ConfigurationError as exc:
        raise ConfigurationError(str(exc) + _SIMULATE_DESIGN) from None
    design = {
        knob: getattr(accelerator, knob)
        for knob in DESIGN_KNOBS
        if getattr(accelerator, knob) != getattr(base, knob)
    }
    if base.derive(**design) != accelerator:
        raise ConfigurationError(
            f"design point {accelerator.name!r} changes fields that are not "
            f"design knobs ({', '.join(DESIGN_KNOBS)})" + _SIMULATE_DESIGN
        )
    return {"accelerator": accelerator.name, "design": design}


def simulate(
    dataset: Union[Dataset, str],
    accelerator: Union[DesignPoint, str] = "sgcn",
    config: Optional[SystemConfig] = None,
    variant: str = "gcn",
    max_vertices: Optional[int] = None,
    max_sampled_layers: int = 6,
    seed: Optional[int] = None,
) -> SimulationResult:
    """Simulate one accelerator running a deep GCN on one dataset.

    A shim over :meth:`repro.core.session.Session.run`: the arguments become
    one :class:`~repro.core.runspec.RunSpec`, and the result is byte-identical
    to running that spec through a session with the same base config.

    Args:
        dataset: A dataset name, or a :class:`~repro.graphs.datasets.Dataset`
            equal to the one :func:`~repro.graphs.datasets.load_dataset`
            returns for its name, vertex count, depth and seed (default
            hidden width, normalised weights, synthetic sparsity profile).
        accelerator: An accelerator name, or a design point derived from a
            registered one by design knobs (``get_design(name).derive(...)``).
        config: Base system configuration; runs on ``Session(config=config)``
            when given, else on the shared default session (paper Table III
            defaults).
        variant: Aggregation variant (``"gcn"``, ``"gin"``, ``"sage"``).
        max_vertices: Scale cap applied when ``dataset`` is given by name
            (default 2048).  Passing it together with a ``Dataset`` instance
            raises :class:`ConfigurationError` — the instance is already
            scaled, so the cap could never apply.
        max_sampled_layers: Representative-layer sampling budget.
        seed: Seed for topology generation and the per-row sparsity draws,
            as in a ``RunSpec`` (default 0).  With a ``Dataset`` instance it
            defaults to the instance's seed, and a different one raises.

    Returns:
        The :class:`~repro.core.results.SimulationResult` of the run.

    Raises:
        ConfigurationError: For a dataset or design point no ``RunSpec`` can
            describe (run those with
            :func:`repro.accelerator.pipeline.simulate_design`), or any field
            :meth:`RunSpec.validate` rejects.
    """
    session = default_session() if config is None else Session(config=config)
    spec = RunSpec(
        **_dataset_fields(session, dataset, max_vertices, seed),
        **_accelerator_fields(accelerator),
        variant=variant,
        max_sampled_layers=max_sampled_layers,
    )
    return session.run(spec)


def compare_accelerators(
    dataset: Union[Dataset, str],
    accelerators: Optional[Sequence[Union[DesignPoint, str]]] = None,
    config: Optional[SystemConfig] = None,
    variant: str = "gcn",
    baseline: str = "gcnax",
    max_vertices: Optional[int] = None,
    max_sampled_layers: int = 6,
    seed: Optional[int] = None,
) -> ComparisonResult:
    """Simulate several accelerators on the same dataset and configuration.

    A shim over :meth:`repro.core.session.Session.compare`, which checks
    every spec and the ``baseline`` before the first simulation, so a typo
    fails in milliseconds instead of after the whole comparison has run.

    Args:
        dataset: Dataset instance or name, as in :func:`simulate`.
        accelerators: Accelerators to compare, as names or derived design
            points (as in :func:`simulate`), one per registered name;
            defaults to the paper's main comparison set (GCNAX, HyGCN,
            AWB-GCN, EnGN, I-GCN, SGCN).
        config: Shared base system configuration, as in :func:`simulate`.
        variant: Aggregation variant.
        baseline: Name used as the normalisation baseline.
        max_vertices: Scale cap applied when ``dataset`` is given by name
            (default 2048); conflicts with a ``Dataset`` instance, as in
            :func:`simulate`.
        max_sampled_layers: Representative-layer sampling budget.
        seed: Topology and sparsity seed, as in :func:`simulate`.

    Returns:
        A :class:`~repro.core.results.ComparisonResult`.
    """
    entries: Sequence[Union[DesignPoint, str]] = (
        PAPER_COMPARISON if accelerators is None else list(accelerators)
    )
    if not entries:
        raise SimulationError(
            "compare_accelerators() was given an empty accelerator "
            "selection; pass None to compare the paper's main set "
            f"({', '.join(PAPER_COMPARISON)}) or list at least one name"
        )
    session = default_session() if config is None else Session(config=config)
    fields = _dataset_fields(session, dataset, max_vertices, seed)
    specs = [
        RunSpec(
            **fields,
            **_accelerator_fields(entry),
            variant=variant,
            max_sampled_layers=max_sampled_layers,
        )
        for entry in entries
    ]
    return session.compare(specs, baseline=baseline)
