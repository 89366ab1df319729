"""Synthetic graph generators.

The paper evaluates SGCN on nine real-world graphs (Table II).  We do not
have access to those datasets offline, so the dataset layer
(:mod:`repro.graphs.datasets`) builds *calibrated synthetic equivalents* with
the properties the accelerator models are sensitive to:

* average degree (number of random feature reads per vertex),
* community structure / neighbour similarity (what sparsity-aware cooperation
  exploits, Fig. 7b),
* a skewed (power-law-like) degree distribution (what EnGN's degree-aware
  vertex cache exploits).

The generators in this module produce such graphs deterministically from a
seed.  They are also directly useful as library features for users who want
to run the accelerator models on their own synthetic workloads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import CSRGraph


def _rng(seed: Optional[int]) -> np.random.Generator:
    return np.random.default_rng(seed)


def power_law_graph(
    num_vertices: int,
    average_degree: float,
    exponent: float = 2.2,
    seed: Optional[int] = None,
    name: str = "power-law",
) -> CSRGraph:
    """Generate a graph with a power-law out-degree distribution.

    Destination vertices are drawn proportionally to a Zipf-like popularity,
    giving a few very high in-degree hub vertices — the structure EnGN's
    degree-aware vertex cache targets.

    Args:
        num_vertices: Number of vertices.
        average_degree: Target average out-degree.
        exponent: Power-law exponent; larger values concentrate edges on
            fewer hubs.
        seed: RNG seed.
        name: Graph name.
    """
    if num_vertices <= 1:
        raise GraphError("need at least two vertices")
    if average_degree <= 0:
        raise GraphError("average degree must be positive")
    rng = _rng(seed)

    ranks = np.arange(1, num_vertices + 1, dtype=np.float64)
    popularity = ranks ** (-exponent / 2.0)
    popularity /= popularity.sum()

    num_edges = int(round(num_vertices * average_degree))
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.choice(num_vertices, size=num_edges, p=popularity).astype(np.int64)
    keep = src != dst
    pairs = np.stack([src[keep], dst[keep]], axis=1)
    return CSRGraph.from_edge_list(num_vertices, pairs, name=name, deduplicate=True)


def community_graph(
    num_vertices: int,
    average_degree: float,
    num_communities: int = 16,
    intra_fraction: float = 0.8,
    locality_sigma: float = 0.05,
    seed: Optional[int] = None,
    name: str = "community",
) -> CSRGraph:
    """Generate a graph with community clustering and neighbour similarity.

    The generator models the two structural properties SGCN's sparsity-aware
    cooperation relies on (paper Fig. 7b): vertices form communities (strong
    diagonal blocks in the adjacency matrix) and vertices with nearby ids
    share neighbours.  Edges are generated per source vertex:

    * with probability ``intra_fraction`` the destination is drawn from a
      Gaussian centred on the source id (scaled by ``locality_sigma`` of the
      graph size), producing diagonal clustering;
    * otherwise the destination is uniform over the whole graph, producing the
      sparse off-diagonal background visible in real graphs.

    Args:
        num_vertices: Number of vertices.
        average_degree: Target average out-degree.
        num_communities: Number of diagonal communities (only used to place
            community centres; the Gaussian locality already induces blocks).
        intra_fraction: Fraction of edges that stay near the diagonal.
        locality_sigma: Width of the near-diagonal Gaussian relative to the
            number of vertices.
        seed: RNG seed.
        name: Graph name.
    """
    if num_vertices <= 1:
        raise GraphError("need at least two vertices")
    if not 0.0 <= intra_fraction <= 1.0:
        raise GraphError("intra_fraction must lie in [0, 1]")
    if average_degree <= 0:
        raise GraphError("average degree must be positive")
    if num_communities <= 0:
        raise GraphError("num_communities must be positive")
    rng = _rng(seed)

    num_edges = int(round(num_vertices * average_degree))
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)

    is_local = rng.random(num_edges) < intra_fraction
    sigma = max(1.0, locality_sigma * num_vertices)
    local_offsets = rng.normal(0.0, sigma, size=num_edges).astype(np.int64)
    local_dst = np.clip(src + local_offsets, 0, num_vertices - 1)
    uniform_dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = np.where(is_local, local_dst, uniform_dst)

    keep = src != dst
    pairs = np.stack([src[keep], dst[keep]], axis=1)
    return CSRGraph.from_edge_list(num_vertices, pairs, name=name, deduplicate=True)
