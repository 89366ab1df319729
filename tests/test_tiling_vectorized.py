"""Vectorized schedule builders vs their loop-based reference implementations."""

import numpy as np
import pytest

from oracles import (
    aggregation_access_trace_reference,
    locality_reordering_reference,
    source_processing_order_reference,
)
from repro.accelerator.tiling import (
    TilingPlan,
    aggregation_access_trace,
    locality_reordering,
    source_processing_order,
)
from repro.errors import GraphError, SimulationError
from repro.graphs.graph import CSRGraph


def random_graph(rng, max_vertices=120, max_expected_degree=6.0):
    num_vertices = int(rng.integers(1, max_vertices))
    prob = min(1.0, rng.uniform(0, max_expected_degree) / max(num_vertices, 1))
    dense = (rng.random((num_vertices, num_vertices)) < prob).astype(np.float32)
    return CSRGraph.from_dense(dense)


class TestSourceProcessingOrder:
    @pytest.mark.parametrize("mode", ["contiguous", "sac"])
    def test_matches_reference(self, mode):
        rng = np.random.default_rng(0)
        for _ in range(120):
            num_vertices = int(rng.integers(1, 400))
            num_engines = int(rng.integers(1, 24))
            strip_height = int(rng.integers(1, 48))
            got = source_processing_order(num_vertices, num_engines, mode, strip_height)
            want = source_processing_order_reference(
                num_vertices, num_engines, mode, strip_height
            )
            assert np.array_equal(got, want)

    def test_is_permutation(self):
        order = source_processing_order(100, 7, "sac", 8)
        assert sorted(order.tolist()) == list(range(100))

    def test_invalid_arguments(self):
        with pytest.raises(SimulationError):
            source_processing_order(0, 2)
        with pytest.raises(SimulationError):
            source_processing_order(4, 0)
        with pytest.raises(SimulationError):
            source_processing_order(4, 2, "bogus")
        with pytest.raises(SimulationError):
            source_processing_order(4, 2, "sac", strip_height=0)


class TestAggregationAccessTrace:
    @pytest.mark.parametrize("mode", ["contiguous", "sac"])
    def test_matches_reference_on_random_plans(self, mode):
        rng = np.random.default_rng(1)
        for _ in range(60):
            graph = random_graph(rng)
            num_vertices = graph.num_vertices
            plan = TilingPlan(
                source_tile_vertices=(
                    int(rng.integers(1, num_vertices + 1)) if rng.random() < 0.8 else None
                ),
                dest_tile_vertices=(
                    int(rng.integers(1, num_vertices + 1)) if rng.random() < 0.8 else None
                ),
                feature_passes=1,
                assumed_row_lines=4.0,
            )
            num_engines = int(rng.integers(1, 9))
            strip_height = int(rng.integers(1, 40))
            got = aggregation_access_trace(graph, plan, num_engines, mode, strip_height)
            want = aggregation_access_trace_reference(
                graph, plan, num_engines, mode, strip_height
            )
            assert np.array_equal(got, want)

    def test_edge_count_preserved(self):
        rng = np.random.default_rng(2)
        graph = random_graph(rng, max_vertices=80)
        plan = TilingPlan(16, 16, 1, 4.0)
        trace = aggregation_access_trace(graph, plan, 4)
        assert trace.size == graph.num_edges

    def test_empty_graph(self):
        graph = CSRGraph(np.zeros(5, dtype=np.int64), np.zeros(0, dtype=np.int64))
        plan = TilingPlan(2, 2, 1, 4.0)
        assert aggregation_access_trace(graph, plan, 2).size == 0


class TestLocalityReordering:
    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            graph = random_graph(rng, max_vertices=150, max_expected_degree=4.0)
            got = locality_reordering(graph)
            want = locality_reordering_reference(graph)
            assert np.array_equal(got, want)

    def test_produces_permutation(self):
        rng = np.random.default_rng(4)
        graph = random_graph(rng, max_vertices=100)
        permutation = locality_reordering(graph)
        assert sorted(permutation.tolist()) == list(range(graph.num_vertices))


class TestGraphReorderAndFingerprint:
    def test_reorder_matches_per_row_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            graph = random_graph(rng, max_vertices=80)
            num_vertices = graph.num_vertices
            permutation = rng.permutation(num_vertices).astype(np.int64)
            got = graph.reorder(permutation)

            inverse = np.empty_like(permutation)
            inverse[permutation] = np.arange(num_vertices, dtype=np.int64)
            indptr = np.zeros(num_vertices + 1, dtype=np.int64)
            indices, weights = [], []
            for new_src in range(num_vertices):
                old_src = int(inverse[new_src])
                start, stop = graph.indptr[old_src], graph.indptr[old_src + 1]
                dests = permutation[graph.indices[start:stop]]
                order = np.argsort(dests, kind="stable")
                indices.append(dests[order])
                weights.append(graph.weights[start:stop][order])
                indptr[new_src + 1] = indptr[new_src] + (stop - start)
            assert np.array_equal(got.indptr, indptr)
            assert np.array_equal(
                got.indices,
                np.concatenate(indices) if indices else np.zeros(0, dtype=np.int64),
            )
            assert np.allclose(
                got.weights,
                np.concatenate(weights) if weights else np.zeros(0, dtype=np.float32),
            )

    @pytest.mark.parametrize(
        "permutation", [[0, 1, 1, 3], [0, 1, 2, 4], [0, 1, 2, -1]]
    )
    def test_reorder_rejects_non_bijections(self, permutation):
        graph = CSRGraph.from_dense(np.ones((4, 4), dtype=np.float32))
        with pytest.raises(GraphError, match="bijection"):
            graph.reorder(np.array(permutation))

    def test_fingerprint_stable_and_topology_sensitive(self):
        rng = np.random.default_rng(6)
        graph = random_graph(rng, max_vertices=60)
        clone = CSRGraph(
            graph.indptr.copy(), graph.indices.copy(), graph.weights.copy()
        )
        assert graph.fingerprint() == clone.fingerprint()
        reweighted = graph.with_weights(graph.weights * 2.0)
        assert graph.fingerprint() == reweighted.fingerprint()
        if graph.num_edges:
            transposed = graph.transpose()
            if not np.array_equal(transposed.indices, graph.indices) or not np.array_equal(
                transposed.indptr, graph.indptr
            ):
                assert transposed.fingerprint() != graph.fingerprint()


class TestEdgeListArrayInput:
    """An ``(E, 2)`` array builds the same graph as its list of tuples."""

    @pytest.mark.parametrize("deduplicate", [True, False])
    @pytest.mark.parametrize("weighted", [True, False])
    def test_array_and_tuple_list_build_equal_graphs(self, deduplicate, weighted):
        rng = np.random.default_rng(7)
        for _ in range(20):
            num_vertices = int(rng.integers(1, 40))
            num_edges = int(rng.integers(0, 120))
            pairs = rng.integers(0, num_vertices, size=(num_edges, 2))
            weights = rng.random(num_edges).astype(np.float32) if weighted else None
            from_array = CSRGraph.from_edge_list(
                num_vertices, pairs, weights=weights, deduplicate=deduplicate
            )
            from_tuples = CSRGraph.from_edge_list(
                num_vertices,
                [tuple(pair) for pair in pairs.tolist()],
                weights=None if weights is None else weights.tolist(),
                deduplicate=deduplicate,
            )
            assert np.array_equal(from_array.indptr, from_tuples.indptr)
            assert np.array_equal(from_array.indices, from_tuples.indices)
            assert np.array_equal(from_array.weights, from_tuples.weights)

    def test_array_input_is_still_validated(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(4, np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(4, np.asarray([[0, 1], [2, 4]]))
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(4, np.asarray([[0, 1], [-1, 2]]))
        with pytest.raises(GraphError):
            CSRGraph.from_edge_list(
                4, np.asarray([[0, 1], [2, 3]]), weights=np.ones(3)
            )
