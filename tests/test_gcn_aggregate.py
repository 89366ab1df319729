"""The GCN aggregation matches an ``np.add.at`` scatter-add byte for byte.

Float32 addition is not associative, so these tests pin the order of
summation, not just the value: each output row must start from ``0.0`` and
add its terms in edge order, as ``np.add.at`` does.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.graphs.graph as graph_module
from repro.errors import SimulationError
from repro.gcn.layers import aggregate, aggregate_transpose
from repro.gcn.training import make_classification_problem, train_node_classifier
from repro.graphs.generators import power_law_graph
from repro.graphs.graph import CSRGraph
from repro.graphs.normalize import add_self_loops, gcn_normalize


def _sources(graph: CSRGraph) -> np.ndarray:
    return np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)


def reference_aggregate(graph: CSRGraph, features: np.ndarray) -> np.ndarray:
    features = np.asarray(features, dtype=np.float32)
    out = np.zeros_like(features)
    np.add.at(out, _sources(graph), features[graph.indices] * graph.weights[:, None])
    return out


def reference_transpose(graph: CSRGraph, grad: np.ndarray) -> np.ndarray:
    grad = np.asarray(grad, dtype=np.float32)
    out = np.zeros_like(grad)
    np.add.at(out, graph.indices, grad[_sources(graph)] * graph.weights[:, None])
    return out


def _assert_same_bytes(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype == np.float32
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _random_graph(rng: np.random.Generator, num_vertices: int) -> CSRGraph:
    """Random multigraph: empty rows, self loops, duplicate edges, a hub."""
    degrees = rng.integers(0, 6, size=num_vertices)
    degrees[rng.random(num_vertices) < 0.3] = 0
    hub = int(rng.integers(num_vertices))
    degrees[hub] = max(50, 2 * num_vertices)
    indptr = np.concatenate(([0], np.cumsum(degrees)))
    indices = rng.integers(0, num_vertices, size=int(indptr[-1]))
    # Self loops and a run of duplicate edges inside the hub's row.
    start = int(indptr[hub])
    indices[start] = hub
    indices[start + 1 : start + 4] = indices[start + 4]
    weights = rng.normal(0.0, 1.0, size=indices.size).astype(np.float32)
    weights[rng.random(indices.size) < 0.1] *= 1e-6
    return CSRGraph(indptr, indices, weights)


def _random_features(
    rng: np.random.Generator, num_vertices: int, width: int
) -> np.ndarray:
    features = (rng.normal(0.0, 1.0, size=(num_vertices, width)) * 10.0 ** rng.integers(
        -3, 4, size=(num_vertices, width)
    )).astype(np.float32)
    features[rng.random(features.shape) < 0.2] = -0.0
    features[rng.random(features.shape) < 0.1] = 0.0
    return features


@pytest.mark.parametrize("seed", range(40))
def test_random_graphs_match_add_at_in_both_directions(seed):
    rng = np.random.default_rng(seed)
    num_vertices = int(rng.integers(2, 40))
    graph = _random_graph(rng, num_vertices)
    features = _random_features(rng, num_vertices, int(rng.integers(1, 9)))
    _assert_same_bytes(aggregate(graph, features), reference_aggregate(graph, features))
    _assert_same_bytes(
        aggregate_transpose(graph, features), reference_transpose(graph, features)
    )


@pytest.mark.parametrize(
    "graph",
    [
        CSRGraph(np.array([0, 0]), np.zeros(0, dtype=np.int64)),
        CSRGraph(np.array([0, 2]), np.array([0, 0]), np.array([-1.5, 0.25])),
        CSRGraph(np.zeros(6, dtype=np.int64), np.zeros(0, dtype=np.int64)),
    ],
    ids=["one-vertex-no-edge", "one-vertex-duplicate-self-loops", "zero-edges"],
)
def test_degenerate_graphs_match_add_at(graph):
    rng = np.random.default_rng(0)
    features = _random_features(rng, graph.num_vertices, 3)
    _assert_same_bytes(aggregate(graph, features), reference_aggregate(graph, features))
    _assert_same_bytes(
        aggregate_transpose(graph, features), reference_transpose(graph, features)
    )


def test_negative_zero_terms_sum_to_positive_zero():
    # add.at starts every row at +0.0, and +0.0 + -0.0 is +0.0.
    graph = CSRGraph(np.array([0, 2, 2]), np.array([0, 1]), np.array([1.0, -1.0]))
    features = np.array([[-0.0], [0.0]], dtype=np.float32)
    out = aggregate(graph, features)
    _assert_same_bytes(out, reference_aggregate(graph, features))
    assert not np.signbit(out).any()


def test_order_of_summation_is_pinned():
    # A pairwise (reduceat-style) sum of this row gives a different float32
    # than adding its terms one at a time, so any change to the order of
    # summation fails here.
    terms = np.array([1.0, 1e8, -1e8, 1.0, 3.0, -7e-8, 1e8, -1e8], dtype=np.float32)
    graph = CSRGraph(
        np.array([0, terms.size]), np.zeros(terms.size, dtype=np.int64), terms
    )
    features = np.ones((1, 1), dtype=np.float32)
    reduced = np.add.reduceat(terms[:, None], [0], axis=0)
    expected = reference_aggregate(graph, features)
    assert reduced.tobytes() != expected.tobytes()
    _assert_same_bytes(aggregate(graph, features), expected)
    _assert_same_bytes(
        aggregate_transpose(graph.transpose(), features),
        reference_transpose(graph.transpose(), features),
    )


def test_normalised_power_law_graph_matches_add_at():
    graph = gcn_normalize(power_law_graph(num_vertices=200, average_degree=6.0, seed=3))
    rng = np.random.default_rng(1)
    features = _random_features(rng, graph.num_vertices, 16)
    _assert_same_bytes(aggregate(graph, features), reference_aggregate(graph, features))
    _assert_same_bytes(
        aggregate_transpose(graph, features), reference_transpose(graph, features)
    )


def test_aggregate_rejects_mismatched_features():
    graph = CSRGraph(np.array([0, 1, 2]), np.array([1, 0]))
    with pytest.raises(SimulationError, match="num_vertices"):
        aggregate(graph, np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(SimulationError):
        aggregate(graph, np.zeros(2, dtype=np.float32))


def test_training_plans_each_graph_once(monkeypatch):
    calls = []
    build = graph_module._aggregation_rounds

    def counting(graph):
        calls.append(graph)
        return build(graph)

    monkeypatch.setattr(graph_module, "_aggregation_rounds", counting)
    graph = gcn_normalize(power_law_graph(num_vertices=32, average_degree=4.0, seed=0))
    features, labels = make_classification_problem(graph, feature_width=8, seed=0)
    train_node_classifier(
        graph, features, labels, num_layers=3, hidden_features=8, epochs=3
    )
    assert len(calls) == 1 and calls[0] is graph


def test_gcn_normalize_matches_add_at_degrees_with_non_unit_weights():
    rng = np.random.default_rng(7)
    graph = _random_graph(rng, 30)
    graph = add_self_loops(graph.with_weights(np.abs(graph.weights) + np.float32(0.1)))
    normalized = gcn_normalize(graph, add_loops=False)

    sources = _sources(graph)
    degrees = np.zeros(graph.num_vertices, dtype=np.float64)
    np.add.at(degrees, sources, graph.weights)
    in_degrees = np.zeros(graph.num_vertices, dtype=np.float64)
    np.add.at(in_degrees, graph.indices, graph.weights)
    out_scale = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    in_scale = np.where(in_degrees > 0, 1.0 / np.sqrt(in_degrees), 0.0)
    expected = (
        graph.weights * out_scale[sources] * in_scale[graph.indices]
    ).astype(np.float32)
    assert normalized.weights.tobytes() == expected.tobytes()
