"""Sparsity providers: the bridge between the GCN stack and the accelerator.

SGCN's premise is that the *measured* intermediate-feature sparsity of deep
residual GCNs — heterogeneous across rows, slices, and layers — is what the
compressed feature formats exploit.  Historically the accelerator pipeline
consumed only a synthetic profile (one average per layer, per-row counts drawn
from a normal distribution), while the working :class:`~repro.gcn.model.DeepGCN`
stack and the format-side hooks that could consume real tables
(``FeatureLayout.build_layout(row_nnz, ..., slice_nnz)``) sat disconnected.

A :class:`SparsityProvider` closes that loop.  It answers two questions for
the phase pipeline:

1. :meth:`~SparsityProvider.layer_profile` — the per-layer sparsity profile
   the workloads are built from (``None`` = keep the dataset's own synthetic
   profile);
2. :meth:`~SparsityProvider.layer_tables` — the per-row non-zero counts (and,
   for sliced formats, the per-slice counts) of one layer's input features,
   which :meth:`~repro.formats.base.FeatureFormat.build_layout` turns into the
   per-row transfer tables the cache replay consumes.

Two backends:

* :class:`SyntheticSparsityProvider` — the historical behaviour, byte for
  byte: profile from :func:`~repro.gcn.sparsity.layer_sparsity_profile`,
  per-row counts from :func:`~repro.gcn.sparsity.row_nonzero_distribution`,
  no per-slice table (formats split rows evenly).
* :class:`MeasuredSparsityProvider` — trains/forwards a
  :class:`~repro.gcn.model.DeepGCN` on the dataset's actual (scaled)
  topology, harvests the non-zero *masks* of every intermediate feature
  matrix, and serves per-layer x per-row x per-slice tables measured from
  them, so formats see heterogeneous rows instead of one assumed average.

Measured-mode calibration: the scaled synthetic graphs and tiny training
budgets cannot literally retrain the paper's full-scale models, so the
measured activations are thresholded at the quantile that lands each layer on
a calibrated target profile — the dataset's published Table II average,
scaled across depth and residual configurations by the Fig. 1 / Fig. 2a model
:func:`~repro.gcn.sparsity.sparsity_vs_depth`.  The *level* is calibrated;
the row/slice/layer *heterogeneity* is measured.  ``calibrate=False`` serves
the raw post-ReLU masks instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError, SparsityHarvestError
from repro.gcn.model import DeepGCN
from repro.memory.replay import TraceCache
from repro.gcn.sparsity import (
    layer_sparsity_profile,
    per_slice_nonzeros,
    row_nonzero_distribution,
    sparsity_vs_depth,
)
from repro.gcn.training import make_classification_problem, train_node_classifier
from repro.resilience.faults import fault_point
from repro.telemetry.spans import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.datasets import Dataset
    from repro.graphs.graph import CSRGraph

#: Sparsity modes accepted by the ``RunSpec.sparsity`` axis / ``--sparsity``:
#: ``synthetic`` (the calibrated profile, identical to leaving the axis
#: unset), ``measured`` (residual DeepGCN, the paper's configuration), and
#: ``measured-traditional`` (no residual connections — the low-sparsity
#: "Traditional" curve of Fig. 1 / Fig. 2a).
SPARSITY_MODES: Tuple[str, ...] = ("synthetic", "measured", "measured-traditional")

#: Accepted alias spellings of the canonical modes.
_MODE_ALIASES: Dict[str, str] = {
    "measured-residual": "measured",
    "traditional": "measured-traditional",
}

#: Input feature width cap of the measured DeepGCN driver.  The provider
#: measures *intermediate* feature sparsity; the (often 10k+-wide) published
#: input widths only size the input projection, so they are capped to keep a
#: harvest proportional to the network itself.
MEASURED_INPUT_WIDTH_CAP = 64

#: Full-batch training epochs of the measured harvest (kept small: the
#: heterogeneity comes from forwarding the trained weights, and the level is
#: calibrated — see the module docstring).
MEASURED_EPOCHS = 2

#: Classes of the synthetic node-classification problem the harvest trains on.
MEASURED_NUM_CLASSES = 4


def fold_sparsity_mode(mode: str) -> str:
    """Case/alias-fold a sparsity-mode spelling without validating it.

    Unknown spellings pass through folded, so callers that normalise early
    (e.g. :class:`~repro.core.runspec.RunSpec`) can still reject them later
    with a precise error.
    """
    key = mode.strip().lower().replace("_", "-")
    return _MODE_ALIASES.get(key, key)


def resolve_sparsity_mode(mode: Optional[str]) -> Optional[str]:
    """Canonical spelling of a sparsity mode (``None`` passes through).

    Raises :class:`ConfigurationError` for unknown modes.
    """
    if mode is None:
        return None
    key = fold_sparsity_mode(mode)
    if key not in SPARSITY_MODES:
        raise ConfigurationError(
            f"unknown sparsity mode {mode!r}; supported: "
            f"{', '.join(SPARSITY_MODES)}"
        )
    return key


def depth_scaled_average_sparsity(
    base_average: float, num_layers: int, residual: bool
) -> float:
    """Calibration target for a ``(depth, residual)`` configuration.

    Scales a dataset's published 28-layer-residual average (Table II) by the
    Fig. 1 / Fig. 2a model :func:`~repro.gcn.sparsity.sparsity_vs_depth`:
    at the paper's operating point (28 layers, residual) the target is the
    published value exactly; shallower or non-residual configurations scale
    down along the model's curve.
    """
    reference = sparsity_vs_depth(28, True)
    point = sparsity_vs_depth(num_layers, residual)
    return float(np.clip(base_average * point / reference, 0.02, 0.90))


# --------------------------------------------------------------------------- #
# Provider interface
# --------------------------------------------------------------------------- #
class SparsityProvider:
    """Source of the per-layer / per-row / per-slice sparsity of a run."""

    #: Canonical mode name (``"synthetic"`` / ``"measured"`` / ...).
    name: str = "abstract"

    def layer_profile(self, dataset: "Dataset") -> Optional[List[float]]:
        """Per-layer sparsity profile for ``dataset``.

        ``None`` keeps the dataset's own (synthetic) profile — the pipeline
        then behaves exactly as it did before providers existed.
        """
        raise NotImplementedError

    def layer_tables(
        self,
        dataset: "Dataset",
        layer_index: int,
        num_rows: int,
        width: int,
        sparsity: float,
        slice_size: Optional[int],
        seed: int,
        graph: Optional["CSRGraph"] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Per-row (and optionally per-slice) non-zero counts of one layer.

        Args:
            dataset: The dataset the run executes on.
            layer_index: The *workload* layer index whose input features are
                described (always >= 1: the first layer's given inputs never
                need a table).
            num_rows: Rows of the feature matrix (vertices of the graph the
                schedule walks).
            width: Feature width of the layer's input.
            sparsity: The workload's input sparsity (the profile value).
            slice_size: Unit slice size of the consuming format, or ``None``
                for formats without per-slice metadata.
            seed: The run's sparsity seed.
            graph: The graph the schedule actually walks.  Designs that
                reorder (I-GCN islandization) or transpose (column-product)
                the topology relabel vertex ids, so row tables must be
                indexed by the *walked* graph's ids — measured providers
                harvest on this graph; ``None`` means the dataset's own.

        Returns:
            ``(row_nnz, slice_nnz)`` — ``slice_nnz`` is ``None`` when the
            provider has no per-slice information (the format then splits
            rows evenly, the historical behaviour).
        """
        raise NotImplementedError


class SyntheticSparsityProvider(SparsityProvider):
    """The historical synthetic behaviour, byte-identical to no provider."""

    name = "synthetic"

    def layer_profile(self, dataset: "Dataset") -> Optional[List[float]]:
        return None  # keep the dataset's own calibrated profile

    def layer_tables(
        self,
        dataset: "Dataset",
        layer_index: int,
        num_rows: int,
        width: int,
        sparsity: float,
        slice_size: Optional[int],
        seed: int,
        graph: Optional["CSRGraph"] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        row_nnz = row_nonzero_distribution(
            num_rows=num_rows,
            width=width,
            sparsity=sparsity,
            seed=seed + layer_index,
        )
        return row_nnz, None


# --------------------------------------------------------------------------- #
# Measured backend
# --------------------------------------------------------------------------- #
@dataclass
class MeasuredSparsity:
    """One harvested measurement: the trained model plus its non-zero masks.

    Attributes:
        model: The (trained) :class:`DeepGCN` the masks were measured from.
        masks: One boolean ``(num_vertices, hidden_width)`` non-zero mask per
            layer's *output* features (``masks[l]`` describes ``X_{l+1}``,
            the input of workload layer ``l + 1``).
        profile: Fraction of zeros of every mask (the measured per-layer
            sparsity profile).
        final_accuracy: Training accuracy of the harvest run (diagnostics).
    """

    model: DeepGCN
    masks: List[np.ndarray]
    profile: List[float]
    final_accuracy: float = 0.0
    _slice_tables: Dict[Tuple[int, int], np.ndarray] = field(
        default_factory=dict, repr=False
    )

    def row_nnz(self, layer: int) -> np.ndarray:
        """Per-row non-zero counts of layer ``layer``'s output features."""
        return np.count_nonzero(self.masks[layer], axis=1).astype(np.int64)

    def slice_nnz(self, layer: int, slice_size: int) -> np.ndarray:
        """Per-slice non-zero counts of layer ``layer`` (memoized)."""
        key = (layer, int(slice_size))
        cached = self._slice_tables.get(key)
        if cached is None:
            cached = per_slice_nonzeros(self.masks[layer], int(slice_size))
            self._slice_tables[key] = cached
        return cached

    def structure_bytes(self) -> int:
        """Approximate footprint of the harvested masks and slice tables.

        Feeds the resident-bytes gauge of the owning
        :class:`MeasuredSparsityCache` (the trained model's weights are small
        next to the per-vertex masks and are not itemised).
        """
        return int(
            sum(mask.nbytes for mask in self.masks)
            + sum(table.nbytes for table in self._slice_tables.values())
        )


class MeasuredSparsityCache(TraceCache):
    """LRU memo of :class:`MeasuredSparsity` harvests.

    A harvest (training + forwarding a DeepGCN) is the expensive part of a
    measured-mode run; a :class:`~repro.core.session.Session` owns one of
    these alongside its :class:`~repro.memory.replay.TraceCache` so sweeps
    over accelerators / cache sizes / formats train each
    ``(topology, depth, residual, seed)`` cell once.  The LRU mechanics are
    :class:`~repro.memory.replay.TraceCache`'s, including :meth:`clear`
    counting the dropped harvests as evictions; only the default capacity
    (each entry holds a trained model plus its masks) differs.
    """

    def __init__(self, max_entries: int = 8) -> None:
        super().__init__(max_entries=max_entries)


class MeasuredSparsityProvider(SparsityProvider):
    """Measure sparsity by training/forwarding a DeepGCN on the topology.

    Args:
        residual: Use residual connections (the paper's "modern GCN"
            configuration).  ``False`` is the Fig. 1 / Fig. 2a "Traditional"
            curve.
        epochs: Full-batch training epochs of the harvest (0 = forward-only
            through the randomly-initialised model).
        calibrate: Threshold the measured activations so each layer's mean
            sparsity lands on the calibrated target profile (see the module
            docstring).  ``False`` serves the raw post-ReLU masks.
        cache: Optional shared :class:`MeasuredSparsityCache`; a private one
            is created when omitted.
    """

    def __init__(
        self,
        residual: bool = True,
        epochs: int = MEASURED_EPOCHS,
        calibrate: bool = True,
        cache: Optional[MeasuredSparsityCache] = None,
    ) -> None:
        if epochs < 0:
            raise ConfigurationError("epochs must be non-negative")
        self.residual = residual
        self.epochs = epochs
        self.calibrate = calibrate
        self.cache = cache if cache is not None else MeasuredSparsityCache()
        self.name = "measured" if residual else "measured-traditional"

    # ------------------------------------------------------------------ #
    def measure(
        self, dataset: "Dataset", graph: Optional["CSRGraph"] = None
    ) -> MeasuredSparsity:
        """The (memoized) harvest for one topology at ``dataset``'s depth.

        ``graph`` defaults to the dataset's own topology; schedules that
        walk a derived graph (reordered / transposed) pass that graph so
        the harvested rows carry the ids the access trace uses.
        """
        graph = dataset.graph if graph is None else graph
        key = (
            graph.fingerprint(),
            int(dataset.num_layers),
            int(dataset.hidden_width),
            bool(self.residual),
            int(self.epochs),
            bool(self.calibrate),
            int(dataset.seed),
        )
        def build() -> MeasuredSparsity:
            # The harvest (training + forwarding + calibration) is the
            # expensive part of a measured-mode run; time it only when the
            # memo actually misses.
            with span("sparsity_harvest"):
                try:
                    return self._harvest(dataset, graph)
                except Exception as exc:  # noqa: BLE001 — re-typed, never swallowed
                    raise SparsityHarvestError(
                        f"measured-sparsity harvest failed for dataset "
                        f"{dataset.name!r} ({type(exc).__name__}: {exc})"
                    ) from exc

        return self.cache.get(key, build)

    def _harvest(self, dataset: "Dataset", graph: "CSRGraph") -> MeasuredSparsity:
        input_width = int(
            min(dataset.input_feature_width, MEASURED_INPUT_WIDTH_CAP)
        )
        features, labels = make_classification_problem(
            graph,
            num_classes=MEASURED_NUM_CLASSES,
            feature_width=input_width,
            seed=dataset.seed,
        )
        final_accuracy = 0.0
        fault_point("gcn:train")
        with span("gcn_train"):
            if self.epochs > 0:
                trained = train_node_classifier(
                    graph,
                    features,
                    labels,
                    num_layers=dataset.num_layers,
                    hidden_features=dataset.hidden_width,
                    num_classes=MEASURED_NUM_CLASSES,
                    residual=self.residual,
                    normalize=True,
                    epochs=self.epochs,
                    seed=dataset.seed,
                )
                model = trained.model
                final_accuracy = trained.final_accuracy
            else:
                model = DeepGCN(
                    num_layers=dataset.num_layers,
                    in_features=input_width,
                    hidden_features=dataset.hidden_width,
                    out_features=MEASURED_NUM_CLASSES,
                    residual=self.residual,
                    normalize=True,
                    seed=dataset.seed,
                )
                model.forward(graph, features, collect_traces=True)
        traces = model.traces()
        if len(traces) != dataset.num_layers:
            raise SimulationError(
                f"measured harvest produced {len(traces)} layer traces for a "
                f"{dataset.num_layers}-layer dataset"
            )

        if self.calibrate:
            target_average = depth_scaled_average_sparsity(
                dataset.intermediate_sparsity, dataset.num_layers, self.residual
            )
            targets = layer_sparsity_profile(
                num_layers=dataset.num_layers,
                average_sparsity=target_average,
                seed=dataset.seed,
            )
            # ReLU zeroes everything below 0; calibration zeroes everything
            # below the quantile that lands the layer on its target, keeping
            # the measured row/slice heterogeneity while pinning the level.
            masks = [
                trace.pre_activation > np.quantile(trace.pre_activation, target)
                for trace, target in zip(traces, targets)
            ]
        else:
            masks = [trace.features != 0 for trace in traces]
        profile = [float(1.0 - mask.mean()) for mask in masks]
        # Only the boolean masks are consumed from here on; drop the
        # harvest's activations so a memoized entry holds the trained
        # weights + masks, not several dense matrices per layer.
        model.release_activations()
        return MeasuredSparsity(
            model=model,
            masks=masks,
            profile=profile,
            final_accuracy=final_accuracy,
        )

    # ------------------------------------------------------------------ #
    def layer_profile(self, dataset: "Dataset") -> Optional[List[float]]:
        return list(self.measure(dataset).profile)

    def layer_tables(
        self,
        dataset: "Dataset",
        layer_index: int,
        num_rows: int,
        width: int,
        sparsity: float,
        slice_size: Optional[int],
        seed: int,
        graph: Optional["CSRGraph"] = None,
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        if layer_index < 1:
            raise SimulationError(
                "measured layer tables describe intermediate features; "
                "the first layer's given inputs have no table"
            )
        measured = self.measure(dataset, graph)
        # masks[l] holds X_{l+1}, the input features of workload layer l + 1.
        mask_index = layer_index - 1
        if mask_index >= len(measured.masks):
            raise SimulationError(
                f"layer index {layer_index} out of range for a "
                f"{len(measured.masks)}-layer measurement"
            )
        mask = measured.masks[mask_index]
        if mask.shape != (num_rows, width):
            raise SimulationError(
                f"measured mask of shape {mask.shape} cannot describe a "
                f"({num_rows}, {width}) feature matrix; measured sparsity "
                "requires the run's hidden width and vertex count to match "
                "the harvested model"
            )
        row_nnz = measured.row_nnz(mask_index)
        slice_nnz = (
            measured.slice_nnz(mask_index, slice_size)
            if slice_size
            else None
        )
        return row_nnz, slice_nnz


def make_sparsity_provider(
    mode: str, cache: Optional[MeasuredSparsityCache] = None
) -> SparsityProvider:
    """Build the provider for a canonical sparsity mode.

    Args:
        mode: One of :data:`SPARSITY_MODES` (aliases accepted).
        cache: Shared harvest memo for the measured backends.
    """
    canonical = resolve_sparsity_mode(mode)
    if canonical is None:
        raise ConfigurationError("sparsity mode must not be None")
    if canonical == "synthetic":
        return SyntheticSparsityProvider()
    return MeasuredSparsityProvider(
        residual=(canonical == "measured"), cache=cache
    )


__all__ = [
    "MEASURED_EPOCHS",
    "MEASURED_INPUT_WIDTH_CAP",
    "MeasuredSparsity",
    "MeasuredSparsityCache",
    "MeasuredSparsityProvider",
    "SPARSITY_MODES",
    "SparsityProvider",
    "SyntheticSparsityProvider",
    "depth_scaled_average_sparsity",
    "fold_sparsity_mode",
    "make_sparsity_provider",
    "resolve_sparsity_mode",
]
