"""CSR construction: the single-sort build against the three-sort oracle.

``CSRGraph.__eq__`` compares weights with ``allclose``, so every check here
compares the arrays byte for byte, dtypes included.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    csr_from_edge_list_reference,
    symmetrized_reference,
    transpose_reference,
)
from repro.graphs.graph import CSRGraph
from repro.graphs.normalize import add_self_loops, gcn_normalize


def assert_same_graph(actual: CSRGraph, expected: CSRGraph) -> None:
    for field in ("indptr", "indices", "weights"):
        got, want = getattr(actual, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert got.tobytes() == want.tobytes(), field


def random_edge_list(rng: np.random.Generator, num_vertices: int, num_edges: int):
    """Unsorted edges with repeats and self loops, one distinct weight each."""
    edges = rng.integers(0, num_vertices, size=(num_edges, 2))
    repeats = edges[rng.integers(0, num_edges, size=num_edges // 3)]
    loops = rng.integers(0, num_vertices, size=num_edges // 10 + 1).repeat(2).reshape(-1, 2)
    edges = np.concatenate([edges, repeats, loops])
    edges = edges[rng.permutation(len(edges))]
    weights = rng.uniform(0.25, 4.0, size=len(edges)).astype(np.float32)
    return edges, weights


def both_builds(num_vertices, edges, weights=None, deduplicate=True):
    kwargs = dict(weights=weights, name="g", deduplicate=deduplicate)
    return (
        CSRGraph.from_edge_list(num_vertices, edges, **kwargs),
        csr_from_edge_list_reference(num_vertices, edges, **kwargs),
    )


@pytest.mark.parametrize("deduplicate", [True, False])
@pytest.mark.parametrize("seed", range(8))
def test_random_edge_lists_match_the_oracle(seed, deduplicate):
    rng = np.random.default_rng(seed)
    num_vertices = int(rng.integers(2, 200))
    edges, weights = random_edge_list(rng, num_vertices, int(rng.integers(1, 2000)))
    assert_same_graph(*both_builds(num_vertices, edges, weights, deduplicate))
    assert_same_graph(*both_builds(num_vertices, edges, None, deduplicate))
    # A list of pairs takes the same path as an array.
    pairs = [tuple(edge) for edge in edges.tolist()]
    assert_same_graph(*both_builds(num_vertices, pairs, weights, deduplicate))


def test_first_weight_kept_and_repeats_keep_input_order():
    edges = [(1, 0), (0, 1), (1, 0), (1, 1), (1, 0)]
    weights = [3.0, 2.0, 5.0, 4.0, 7.0]
    graph = CSRGraph.from_edge_list(2, edges, weights, deduplicate=True)
    assert graph.indptr.tolist() == [0, 1, 3]
    assert graph.indices.tolist() == [1, 0, 1]
    assert graph.weights.tolist() == [2.0, 3.0, 4.0]
    graph = CSRGraph.from_edge_list(2, edges, weights, deduplicate=False)
    assert graph.indices.tolist() == [1, 0, 0, 0, 1]
    assert graph.weights.tolist() == [2.0, 3.0, 5.0, 7.0, 4.0]


@pytest.mark.parametrize("deduplicate", [True, False])
@pytest.mark.parametrize("num_vertices", [0, 1, 5])
@pytest.mark.parametrize("edges", [[], np.zeros((0, 2), dtype=np.int64)])
def test_empty_edge_lists(edges, num_vertices, deduplicate):
    built, reference = both_builds(num_vertices, edges, deduplicate=deduplicate)
    assert_same_graph(built, reference)
    assert built.indptr.tolist() == [0] * (num_vertices + 1)
    assert_same_graph(built.transpose(), transpose_reference(reference))
    assert_same_graph(built.symmetrized(), symmetrized_reference(reference))


@pytest.mark.parametrize("deduplicate", [True, False])
def test_single_vertex(deduplicate):
    edges = np.zeros((3, 2), dtype=np.int64)
    weights = np.array([0.5, 1.5, 2.5], dtype=np.float32)
    assert_same_graph(*both_builds(1, edges, weights, deduplicate))


@pytest.mark.parametrize("deduplicate", [True, False])
def test_vertex_ids_past_16_bits(deduplicate):
    rng = np.random.default_rng(7)
    num_vertices = 70_000
    edges, weights = random_edge_list(rng, num_vertices, 30_000)
    edges[:5] = [(69_999, 0), (0, 69_999), (65_536, 65_535), (69_999, 69_999), (1, 2)]
    assert_same_graph(*both_builds(num_vertices, edges, weights, deduplicate))


@pytest.fixture(params=range(4))
def multigraph(request) -> CSRGraph:
    """A graph with repeated edges, self loops and distinct non-unit weights."""
    rng = np.random.default_rng(100 + request.param)
    num_vertices = int(rng.integers(2, 120))
    edges, weights = random_edge_list(rng, num_vertices, 800)
    return CSRGraph.from_edge_list(num_vertices, edges, weights, deduplicate=False)


def test_transpose_matches_the_oracle(multigraph):
    assert_same_graph(multigraph.transpose(), transpose_reference(multigraph))


def test_symmetrized_matches_the_oracle(multigraph):
    assert_same_graph(multigraph.symmetrized(), symmetrized_reference(multigraph))


def test_reorder_matches_relabelled_edge_list(multigraph):
    permutation = np.random.default_rng(3).permutation(multigraph.num_vertices)
    sources = np.repeat(np.arange(multigraph.num_vertices), multigraph.degrees)
    relabelled = np.stack([permutation[sources], permutation[multigraph.indices]], 1)
    reference = csr_from_edge_list_reference(
        multigraph.num_vertices, relabelled, multigraph.weights, deduplicate=False
    )
    assert_same_graph(multigraph.reorder(permutation), reference)


def test_normalization_matches_the_oracle(multigraph, monkeypatch):
    built = [add_self_loops(multigraph), gcn_normalize(multigraph)]
    monkeypatch.setattr(
        CSRGraph, "from_edge_list", staticmethod(csr_from_edge_list_reference)
    )
    reference = [add_self_loops(multigraph), gcn_normalize(multigraph)]
    for actual, expected in zip(built, reference):
        assert_same_graph(actual, expected)


def test_constructor_keeps_int64_arrays_uncopied():
    indptr = np.array([0, 1, 2], dtype=np.int64)
    indices = np.array([1, 0], dtype=np.int64)
    graph = CSRGraph(indptr, indices)
    assert graph.indptr is indptr and graph.indices is indices
    converted = CSRGraph(indptr, indices.astype(np.int32))
    assert converted.indices.dtype == np.int64
