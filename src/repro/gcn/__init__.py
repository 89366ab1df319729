"""GCN substrate: layers, deep residual models, sparsity tooling, training."""

from __future__ import annotations

from repro.gcn.activations import relu, relu_grad, pair_norm, softmax, log_softmax
from repro.gcn.layers import GCNLayer, GINConvLayer, SAGELayer, aggregate
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
    per_row_nonzeros,
    per_slice_nonzeros,
    layer_sparsity_profile,
    sparsity_vs_depth,
    synthetic_feature_matrix,
    sparsify_to_target,
)
from repro.gcn.training import TrainingResult, train_node_classifier

__all__ = [
    "relu",
    "relu_grad",
    "pair_norm",
    "softmax",
    "log_softmax",
    "GCNLayer",
    "GINConvLayer",
    "SAGELayer",
    "aggregate",
    "DeepGCN",
    "LayerTrace",
    "measure_sparsity",
    "per_row_nonzeros",
    "per_slice_nonzeros",
    "layer_sparsity_profile",
    "sparsity_vs_depth",
    "synthetic_feature_matrix",
    "sparsify_to_target",
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
