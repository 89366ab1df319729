"""Adjacency normalisation used by graph convolutional networks.

A GCN layer computes ``X' = sigma(A_hat @ X @ W)`` where ``A_hat`` is the
symmetrically normalised adjacency matrix with self loops:

    A_hat = D^{-1/2} (A + I) D^{-1/2}

It is provided here as a transformation over
:class:`~repro.graphs.graph.CSRGraph`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import CSRGraph


def add_self_loops(graph: CSRGraph, weight: float = 1.0) -> CSRGraph:
    """Return a copy of ``graph`` with a self loop added to every vertex.

    Existing self loops are preserved (not duplicated); their weight is left
    unchanged.
    """
    sources = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees)
    pairs = np.stack([sources, graph.indices], axis=1)
    weights = graph.weights.astype(np.float32)

    has_loop = np.zeros(graph.num_vertices, dtype=bool)
    loop_mask = pairs[:, 0] == pairs[:, 1]
    has_loop[pairs[loop_mask, 0]] = True
    missing = np.nonzero(~has_loop)[0]
    if missing.size:
        loop_pairs = np.stack([missing, missing], axis=1)
        pairs = np.concatenate([pairs, loop_pairs], axis=0)
        weights = np.concatenate(
            [weights, np.full(missing.size, weight, dtype=np.float32)]
        )
    return CSRGraph.from_edge_list(
        graph.num_vertices, pairs, weights=weights, name=graph.name, deduplicate=True
    )


def gcn_normalize(graph: CSRGraph, add_loops: bool = True) -> CSRGraph:
    """Return the symmetrically normalised graph ``D^{-1/2} (A + I) D^{-1/2}``.

    Args:
        graph: Input graph; edge weights are treated as adjacency values.
        add_loops: Add self loops before normalising (the standard GCN
            formulation).  Set to ``False`` to normalise the raw adjacency.
    """
    work = add_self_loops(graph) if add_loops else graph
    # bincount sums the float64 weights in edge order, as a scatter-add does.
    sources = np.repeat(np.arange(work.num_vertices, dtype=np.int64), work.degrees)
    degrees = np.bincount(sources, weights=work.weights, minlength=work.num_vertices)
    in_degrees = np.bincount(
        work.indices, weights=work.weights, minlength=work.num_vertices
    )

    # Symmetric normalisation uses the degree of both endpoints; for a
    # symmetric adjacency in-degree equals out-degree, and for a directed one
    # this mirrors the common implementation that uses sqrt(d_out) * sqrt(d_in).
    out_scale = np.where(degrees > 0, 1.0 / np.sqrt(degrees), 0.0)
    in_scale = np.where(in_degrees > 0, 1.0 / np.sqrt(in_degrees), 0.0)
    new_weights = (
        work.weights * out_scale[sources] * in_scale[work.indices]
    ).astype(np.float32)
    return work.with_weights(new_weights)
