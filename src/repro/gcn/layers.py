"""Graph convolution layers implemented with numpy.

:class:`GCNLayer` is the vanilla GCN of Kipf & Welling: aggregation uses the
normalised adjacency's edge weights.  It supports forward *and* backward
passes so the small-graph trainer (:mod:`repro.gcn.training`) can produce
genuinely-trained sparse features on tiny datasets, which the measured
sparsity mode and the tests use to validate the sparsity claims.

Both aggregation directions are float32 scatter-adds
(:meth:`~repro.graphs.graph.CSRGraph.matmul`), and float32 addition is not
associative, so the order of summation is part of the result: every output
row starts from ``0.0`` and adds its terms one at a time in edge order (for
``A_hat^T``, in the order of the edges pointing at the row).  That is the
order of numpy's unbuffered scatter-add (``ufunc.at`` on ``np.add``), with
which the trained sparsity masks, and through them the recorded
measured-sparsity digests, were produced.  Another order
(``np.add.reduceat``, a BLAS product) flips low bits, and a flipped bit can
move a ReLU zero or a calibration quantile.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import SimulationError
from repro.graphs.graph import CSRGraph


def aggregate(graph: CSRGraph, features: np.ndarray) -> np.ndarray:
    """Compute the aggregation phase ``A_hat @ X`` for all vertices.

    For every source vertex ``v`` the result row is the weighted sum of the
    feature rows of its neighbours — exactly what the accelerator's
    aggregation engines compute one edge at a time.

    Args:
        graph: Topology; ``graph.weights`` holds the normalised adjacency
            values.
        features: ``(num_vertices, width)`` feature matrix ``X``.
    """
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2 or features.shape[0] != graph.num_vertices:
        raise SimulationError(
            "features must be (num_vertices, width); got "
            f"{features.shape} for {graph.num_vertices} vertices"
        )
    return graph.matmul(features)


def aggregate_transpose(graph: CSRGraph, grad: np.ndarray) -> np.ndarray:
    """Backward pass of :func:`aggregate`: compute ``A_hat^T @ grad``."""
    grad = np.asarray(grad, dtype=np.float32)
    return graph.matmul(grad, transpose=True)


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


class _Linear:
    """Minimal dense layer with gradient accumulation (internal helper)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.weight = _glorot(rng, in_features, out_features)
        self.bias = np.zeros(out_features, dtype=np.float32)
        self.grad_weight = np.zeros_like(self.weight)
        self.grad_bias = np.zeros_like(self.bias)
        self._input: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input = x
        return x @ self.weight + self.bias

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise SimulationError("backward called before forward")
        self.grad_weight += self._input.T @ grad_out
        self.grad_bias += grad_out.sum(axis=0)
        return grad_out @ self.weight.T

    def release(self) -> None:
        """Drop the input saved for :meth:`backward`."""
        self._input = None

    def step(self, lr: float) -> None:
        self.weight -= lr * self.grad_weight
        self.bias -= lr * self.grad_bias
        self.zero_grad()

    def zero_grad(self) -> None:
        self.grad_weight.fill(0.0)
        self.grad_bias.fill(0.0)


class GCNLayer:
    """Vanilla GCN convolution: ``Z = A_hat @ X @ W + b``.

    The aggregation-first ordering matches SGCN's execution order (Table I):
    aggregation over the compressed features happens before the combination
    GeMM on the systolic array.
    """

    def __init__(self, in_features: int, out_features: int, seed: int = 0):
        if in_features <= 0 or out_features <= 0:
            raise SimulationError("layer dimensions must be positive")
        rng = np.random.default_rng(seed)
        self.in_features = in_features
        self.out_features = out_features
        self.linear = _Linear(in_features, out_features, rng)

    def forward(self, graph: CSRGraph, x: np.ndarray) -> np.ndarray:
        return self.linear.forward(aggregate(graph, x))

    def backward(self, graph: CSRGraph, grad_out: np.ndarray) -> np.ndarray:
        grad_agg = self.linear.backward(grad_out)
        return aggregate_transpose(graph, grad_agg)

    def step(self, lr: float) -> None:
        self.linear.step(lr)

    def zero_grad(self) -> None:
        self.linear.zero_grad()
