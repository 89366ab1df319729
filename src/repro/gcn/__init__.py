"""GCN substrate: layers, deep residual models, sparsity tooling, training."""

from __future__ import annotations

from repro.gcn.activations import relu, relu_grad, pair_norm, softmax
from repro.gcn.layers import GCNLayer, aggregate
from repro.gcn.model import DeepGCN, LayerTrace
from repro.gcn.providers import (
    SPARSITY_MODES,
    MeasuredSparsity,
    MeasuredSparsityCache,
    MeasuredSparsityProvider,
    SparsityProvider,
    SyntheticSparsityProvider,
    depth_scaled_average_sparsity,
    make_sparsity_provider,
    resolve_sparsity_mode,
)
from repro.gcn.sparsity import (
    measure_sparsity,
    per_slice_nonzeros,
    layer_sparsity_profile,
    sparsity_vs_depth,
)
from repro.gcn.training import TrainingResult, train_node_classifier

__all__ = [
    "relu",
    "relu_grad",
    "pair_norm",
    "softmax",
    "GCNLayer",
    "aggregate",
    "DeepGCN",
    "LayerTrace",
    "measure_sparsity",
    "per_slice_nonzeros",
    "layer_sparsity_profile",
    "sparsity_vs_depth",
    "SPARSITY_MODES",
    "MeasuredSparsity",
    "MeasuredSparsityCache",
    "MeasuredSparsityProvider",
    "SparsityProvider",
    "SyntheticSparsityProvider",
    "depth_scaled_average_sparsity",
    "make_sparsity_provider",
    "resolve_sparsity_mode",
    "TrainingResult",
    "train_node_classifier",
]
