"""The runtime accelerator model: a design point plus its feature format.

An accelerator is declared once, as data:

* :mod:`repro.accelerator.design` — :class:`DesignPoint`, the frozen,
  validated description of *what* an accelerator is (paper Table I);
* :mod:`repro.accelerator.pipeline` — the explicit five-stage simulation
  pipeline (``build_context → schedule → replay → timing → energy``) that
  executes a design point.

:class:`AcceleratorModel` is the thin runtime wrapper the registry
instantiates and a :class:`~repro.core.session.Session` memoizes: it holds a
design point and its resolved feature-format instance, and nothing else.  A
design is changed by deriving a new point (:meth:`DesignPoint.derive`,
:meth:`DesignPoint.with_format`) and wrapping that
(:meth:`AcceleratorModel.use_design`, :meth:`AcceleratorModel.use_format`).

The workload helpers (``build_workloads``, ``GCN_VARIANTS``, …) are
re-exported from :mod:`repro.accelerator.pipeline`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.accelerator.design import DesignPoint
from repro.accelerator.pipeline import (  # noqa: F401  (re-exports)
    GCN_VARIANTS,
    SAGE_EDGE_FRACTION,
    LayerWorkload,
    PhaseResult,
    RunContext,
    build_workloads,
    simulate_design,
)
from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.formats.base import FeatureFormat
from repro.gcn.providers import SparsityProvider
from repro.graphs.datasets import Dataset
from repro.memory.replay import TraceCache


class AcceleratorModel:
    """A runtime accelerator model: a design point plus its feature format."""

    def __init__(self, design: DesignPoint) -> None:
        self._design = design
        self._format = design.format_instance()

    @property
    def design(self) -> DesignPoint:
        """The design point this model executes."""
        return self._design

    @property
    def feature_format(self) -> FeatureFormat:
        """The feature format instance used for intermediate features."""
        return self._format

    @property
    def name(self) -> str:
        """Registry/report key of the design."""
        return self._design.name

    @property
    def slice_size(self) -> Optional[int]:
        """Unit slice size ``C`` of a sliced format (``None`` otherwise)."""
        return self._design.slice_size

    def use_design(self, design: DesignPoint) -> "AcceleratorModel":
        """A model executing a different design point.

        The receiver is left untouched (sessions memoize and share model
        instances across runs); a new model is returned.
        """
        return type(self)(design)

    def use_format(
        self, format_name: str, slice_size: Optional[int] = None
    ) -> "AcceleratorModel":
        """A model using a different intermediate-feature format.

        Used by :class:`repro.core.session.Session` to apply a
        :class:`~repro.core.runspec.RunSpec` feature-format override.  The
        new design point is normalised like any directly-constructed one, so
        overriding a design with its own native format yields an *equal*
        design (no duplicate session cache entries).
        """
        return self.use_design(self._design.with_format(format_name, slice_size))

    def describe(self) -> Dict[str, object]:
        """Row of the paper's Table I for this accelerator."""
        return self._design.describe()

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
        the model's design point and shared format instance.
        """
        return simulate_design(
            self._design,
            dataset,
            config=config,
            variant=variant,
            max_sampled_layers=max_sampled_layers,
            seed=seed,
            trace_cache=trace_cache,
            feature_format=self._format,
            sparsity=sparsity,
            capacity_spectrum=capacity_spectrum,
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
