"""Deep residual GCN models.

Implements the modern deep GCN structure the paper targets (Eq. 2):

    S_{l+1} = A_hat @ X_l @ W_l + S_l        (residual connection)
    X_l     = ReLU(norm(S_l))                (activation, optional PairNorm)

With residual connections the network can be tens to hundreds of layers deep
and — crucially for SGCN — its intermediate features ``X_l`` become 40–80%
sparse.  The model exposes a :class:`LayerTrace` per layer so the sparsity
can be measured directly, which is what the small-graph figures and the
example scripts use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.gcn.activations import pair_norm, relu, relu_grad
from repro.gcn.layers import GCNLayer, _Linear
from repro.gcn.sparsity import measure_sparsity
from repro.graphs.graph import CSRGraph


@dataclass
class LayerTrace:
    """Intermediate results of one layer's forward pass.

    Attributes:
        layer_index: Zero-based layer index.
        pre_activation: ``S_{l+1}`` before the activation of the next layer.
        features: ``X_{l+1}`` — the post-activation features the next layer
            (and the accelerator's feature compressor) consumes.
        sparsity: Fraction of zeros in ``features``.
    """

    layer_index: int
    pre_activation: np.ndarray
    features: np.ndarray
    sparsity: float


class DeepGCN:
    """A deep (optionally residual) GCN built from numpy layers.

    Args:
        num_layers: Number of graph convolution layers.
        in_features: Width of the input features ``X_0``.
        hidden_features: Width of every intermediate feature matrix (deep
            residual GCNs keep it constant, paper Section III-A).
        out_features: Width of the final output (e.g. number of classes).
            Defaults to ``hidden_features``.
        residual: Use residual connections (the "modern GCN" configuration).
        normalize: Apply PairNorm before the activation, as deep GCNs do to
            keep activations centred (this is what drives ~50% sparsity).
        seed: Seed for weight initialisation.
    """

    def __init__(
        self,
        num_layers: int,
        in_features: int,
        hidden_features: int,
        out_features: Optional[int] = None,
        residual: bool = True,
        normalize: bool = True,
        seed: int = 0,
    ) -> None:
        if num_layers <= 0:
            raise SimulationError("number of layers must be positive")
        self.num_layers = num_layers
        self.in_features = in_features
        self.hidden_features = hidden_features
        self.out_features = out_features or hidden_features
        self.residual = residual
        self.normalize = normalize

        rng = np.random.default_rng(seed)
        # Input projection maps the (often very wide and very sparse) input
        # features into the constant hidden width used by all layers.
        self.input_projection = _Linear(in_features, hidden_features, rng)
        self.layers: List[GCNLayer] = [
            GCNLayer(hidden_features, hidden_features, seed=seed + index + 1)
            for index in range(num_layers)
        ]
        self.output_projection = _Linear(hidden_features, self.out_features, rng)

        self._forward_cache: Optional[dict] = None
        self._traces: List[LayerTrace] = []

    # ------------------------------------------------------------------ #
    # Inference
    # ------------------------------------------------------------------ #
    def forward(
        self, graph: CSRGraph, features: np.ndarray, collect_traces: bool = False
    ) -> np.ndarray:
        """Run the network and return the output logits.

        Args:
            graph: Normalised topology.
            features: ``(num_vertices, in_features)`` input features ``X_0``.
            collect_traces: Also record a :class:`LayerTrace` per layer
                (retrievable via :meth:`traces`).
        """
        features = np.asarray(features, dtype=np.float32)
        if features.shape != (graph.num_vertices, self.in_features):
            raise SimulationError(
                f"expected features of shape {(graph.num_vertices, self.in_features)}, "
                f"got {features.shape}"
            )

        traces: List[LayerTrace] = []
        cache: dict = {"pre_norm": [], "pre_relu": [], "inputs": []}

        state = self.input_projection.forward(features)
        cache["input_state"] = state
        hidden = relu(state)
        for index, layer in enumerate(self.layers):
            cache["inputs"].append(hidden)
            update = layer.forward(graph, hidden)
            if self.residual:
                state = state + update
            else:
                state = update
            cache["pre_norm"].append(state)
            normed = pair_norm(state) if self.normalize else state
            cache["pre_relu"].append(normed)
            hidden = relu(normed)
            if collect_traces:
                traces.append(
                    LayerTrace(
                        layer_index=index,
                        pre_activation=normed,
                        features=hidden,
                        sparsity=measure_sparsity(hidden),
                    )
                )
        logits = self.output_projection.forward(hidden)
        cache["hidden"] = hidden
        self._forward_cache = cache
        self._traces = traces
        return logits

    def traces(self) -> List[LayerTrace]:
        """Layer traces collected by the last ``forward(collect_traces=True)``."""
        return list(self._traces)

    def release_activations(self) -> None:
        """Drop every activation the last forward pass kept.

        That is the layer traces, the backward cache and each layer's saved
        input, so a kept model holds its weights only.  :meth:`backward`
        needs a fresh :meth:`forward` afterwards.
        """
        self._traces = []
        self._forward_cache = None
        self.input_projection.release()
        self.output_projection.release()
        for layer in self.layers:
            layer.linear.release()

    # ------------------------------------------------------------------ #
    # Training support (used by repro.gcn.training on tiny graphs)
    # ------------------------------------------------------------------ #
    def backward(self, graph: CSRGraph, grad_logits: np.ndarray) -> None:
        """Backpropagate a gradient with respect to the output logits.

        Gradients are accumulated inside every layer; call :meth:`step` to
        apply them.  The normalisation step is treated as an identity in the
        backward pass (a standard simplification for PairNorm-like
        normalisers on tiny problems); the residual path is exact.
        """
        if self._forward_cache is None:
            raise SimulationError("backward called before forward")
        cache = self._forward_cache

        grad_hidden = self.output_projection.backward(grad_logits)
        grad_state = np.zeros_like(grad_hidden)
        for index in range(self.num_layers - 1, -1, -1):
            # Gradient with respect to S_{index+1}: the activation path plus,
            # for residual networks, the pass-through from deeper layers.
            grad_state = grad_state + grad_hidden * relu_grad(cache["pre_relu"][index])
            grad_hidden = self.layers[index].backward(graph, grad_state)
            if not self.residual:
                grad_state = np.zeros_like(grad_state)
        # Gradient with respect to S_0: the first layer's input (post-ReLU of
        # S_0) plus, with residual connections, the pass-through state path.
        grad_input_state = grad_hidden * relu_grad(cache["input_state"])
        if self.residual:
            grad_input_state = grad_input_state + grad_state
        self.input_projection.backward(grad_input_state)

    def step(self, lr: float) -> None:
        """Apply accumulated gradients to every parameter."""
        self.input_projection.step(lr)
        self.output_projection.step(lr)
        for layer in self.layers:
            layer.step(lr)

    def zero_grad(self) -> None:
        """Clear all accumulated gradients."""
        self.input_projection.zero_grad()
        self.output_projection.zero_grad()
        for layer in self.layers:
            layer.zero_grad()
