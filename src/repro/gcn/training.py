"""A small full-batch trainer for node classification on tiny graphs.

The paper trains 28-layer residual GCNs on nine real datasets; the
accelerator experiments consume the sparsity of those trained models.  We
cannot retrain the full-scale models offline, but this trainer lets tests and
examples verify the library's core empirical claims end-to-end on tiny
synthetic graphs:

* residual GCNs train to markedly higher intermediate sparsity than
  traditional GCNs of the same depth (Fig. 2a), and
* the trained sparsity lands in the 40–80% band that BEICSR targets.

The trainer performs full-batch gradient descent with a cross-entropy loss
using the manual backward passes implemented by the layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.gcn.activations import softmax
from repro.gcn.model import DeepGCN
from repro.graphs.graph import CSRGraph


@dataclass
class TrainingResult:
    """Outcome of a training run.

    Attributes:
        model: The trained model.
        losses: Training loss per epoch.
        accuracies: Training accuracy per epoch.
        final_accuracy: Accuracy after the last epoch.
        layer_sparsities: Per-layer intermediate feature sparsity of the
            trained model on the training inputs.
        average_sparsity: Mean of ``layer_sparsities``.
    """

    model: DeepGCN
    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)
    final_accuracy: float = 0.0
    layer_sparsities: List[float] = field(default_factory=list)
    average_sparsity: float = 0.0


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy loss of ``logits`` against integer ``labels``."""
    probabilities = softmax(logits)
    rows = np.arange(labels.size)
    picked = np.clip(probabilities[rows, labels], 1e-12, 1.0)
    return float(-np.mean(np.log(picked)))


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy with respect to the logits."""
    probabilities = softmax(logits)
    grad = probabilities.copy()
    grad[np.arange(labels.size), labels] -= 1.0
    return grad / labels.size


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Classification accuracy of ``logits`` against integer ``labels``."""
    predictions = logits.argmax(axis=1)
    return float(np.mean(predictions == labels))


def train_node_classifier(
    graph: CSRGraph,
    features: np.ndarray,
    labels: np.ndarray,
    num_layers: int = 4,
    hidden_features: int = 32,
    num_classes: Optional[int] = None,
    residual: bool = True,
    normalize: bool = True,
    epochs: int = 100,
    learning_rate: float = 0.05,
    seed: int = 0,
) -> TrainingResult:
    """Train a deep GCN node classifier with full-batch gradient descent.

    Args:
        graph: Normalised topology.
        features: ``(num_vertices, in_features)`` input features.
        labels: Integer class label per vertex.
        num_layers: Depth of the GCN.
        hidden_features: Hidden width (constant across layers).
        num_classes: Number of classes; inferred from ``labels`` if omitted.
        residual: Use residual connections.
        normalize: Apply PairNorm before activations.
        epochs: Number of gradient descent steps.
        learning_rate: Step size.
        seed: Weight initialisation seed.

    Returns:
        A :class:`TrainingResult` with loss/accuracy history and the trained
        model's intermediate sparsity.
    """
    features = np.asarray(features, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (graph.num_vertices,):
        raise SimulationError("labels must hold one integer class per vertex")
    if epochs <= 0:
        raise SimulationError("epochs must be positive")
    classes = num_classes or int(labels.max()) + 1

    model = DeepGCN(
        num_layers=num_layers,
        in_features=features.shape[1],
        hidden_features=hidden_features,
        out_features=classes,
        residual=residual,
        normalize=normalize,
        seed=seed,
    )

    losses: List[float] = []
    accuracies: List[float] = []
    for _ in range(epochs):
        logits = model.forward(graph, features)
        losses.append(cross_entropy(logits, labels))
        accuracies.append(accuracy(logits, labels))
        grad = cross_entropy_grad(logits, labels)
        model.zero_grad()
        model.backward(graph, grad)
        model.step(learning_rate)

    final_logits = model.forward(graph, features, collect_traces=True)
    final_accuracy = accuracy(final_logits, labels)
    sparsities = [trace.sparsity for trace in model.traces()]
    return TrainingResult(
        model=model,
        losses=losses,
        accuracies=accuracies,
        final_accuracy=final_accuracy,
        layer_sparsities=sparsities,
        average_sparsity=float(np.mean(sparsities)) if sparsities else 0.0,
    )


def make_classification_problem(
    graph: CSRGraph,
    num_classes: int = 3,
    feature_width: int = 16,
    label_noise: float = 0.05,
    seed: int = 0,
) -> tuple:
    """Generate a learnable node-classification problem on ``graph``.

    Vertices are assigned classes in contiguous blocks (so graph structure is
    informative), and features are class-indicative with additive noise.

    Returns:
        ``(features, labels)`` arrays.
    """
    if num_classes <= 1:
        raise SimulationError("need at least two classes")
    rng = np.random.default_rng(seed)
    block = max(1, graph.num_vertices // num_classes)
    labels = np.minimum(np.arange(graph.num_vertices) // block, num_classes - 1)

    centroids = rng.normal(0.0, 1.0, size=(num_classes, feature_width))
    features = centroids[labels] + rng.normal(0.0, 0.5, (graph.num_vertices, feature_width))

    flip = rng.random(graph.num_vertices) < label_noise
    labels = labels.copy()
    labels[flip] = rng.integers(0, num_classes, size=int(flip.sum()))
    return features.astype(np.float32), labels.astype(np.int64)
