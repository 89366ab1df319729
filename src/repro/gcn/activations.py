"""Activation and normalisation functions used by the GCN layers.

The intermediate feature sparsity that SGCN exploits is produced by the ReLU
activation: with (pair-)normalised pre-activations centred near zero, roughly
half of the outputs become exact zeros (paper Section VII-B).  These are plain
numpy functions shared by the deep GCN model and its training loop.
"""

from __future__ import annotations

import numpy as np


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise rectified linear unit."""
    return np.maximum(x, 0.0)


def relu_grad(x: np.ndarray) -> np.ndarray:
    """Gradient mask of ReLU with respect to its input (1 where x > 0)."""
    return (x > 0.0).astype(x.dtype)


def pair_norm(x: np.ndarray, scale: float = 1.0, eps: float = 1e-6) -> np.ndarray:
    """PairNorm-style feature normalisation used by deep GCNs.

    Deep residual GCNs (DeepGCN / DeeperGCN) interleave a normalisation step
    with the activation so that feature magnitudes neither explode nor vanish
    over tens of layers.  PairNorm first centres the features across the node
    dimension and then rescales every row to (approximately) unit norm.
    Centring the pre-activations is also what pushes the post-ReLU sparsity
    towards ~50%.

    Args:
        x: ``(num_nodes, width)`` feature matrix.
        scale: Target row norm.
        eps: Numerical floor for the row norms.
    """
    centered = x - x.mean(axis=0, keepdims=True)
    row_norms = np.sqrt(np.mean(np.square(centered), axis=1, keepdims=True)) + eps
    return scale * centered / row_norms


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)
