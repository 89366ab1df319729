"""Compressed sparse row (CSR) graph structure.

The GCN accelerators modelled by this library all consume the graph topology
in CSR form (the paper, Section III-B, assumes the adjacency matrix is stored
as CSR to exploit its near-100% sparsity).  :class:`CSRGraph` is therefore the
central graph structure of the library: it stores the topology, optional edge
weights (the normalised adjacency values), and provides the accessors the
simulators and the numpy GCN layers need.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError


@dataclass(frozen=True)
class _EdgeRounds:
    """Edges regrouped into degree rounds, for an in-order scatter-add.

    Rows are ranked by degree, descending (ties keep vertex order); round
    ``k`` holds the ``k``-th edge of every row whose degree exceeds ``k``,
    in rank order.  Those rows are always a prefix of the ranking, so adding
    round after round into a rank-indexed accumulator sums every row's
    terms in its own edge order.

    Attributes:
        order: Vertex id of each rank.
        edges: Edge ids (positions in ``indices``/``weights``), round by round.
        reads: The vertex whose value row each entry of ``edges`` reads.
        spans: ``(start, stop)`` of each round within ``edges``.
    """

    order: np.ndarray
    edges: np.ndarray
    reads: np.ndarray
    spans: Tuple[Tuple[int, int], ...]

    def scatter_add(self, values: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Sum ``values[reads] * weights`` into each row, round by round."""
        gathered = values[self.reads] * weights[self.edges][:, None]
        ranked = np.zeros_like(values)
        for start, stop in self.spans:
            ranked[: stop - start] += gathered[start:stop]
        out = np.empty_like(values)
        out[self.order] = ranked
        return out


def _degree_rounds(
    starts: np.ndarray, edges: np.ndarray, reads: np.ndarray
) -> _EdgeRounds:
    """Regroup ``edges``, grouped by row (row ``v`` at ``starts[v]:starts[v+1]``)."""
    degrees = np.diff(starts)
    order = np.argsort(-degrees, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    slot_row = np.repeat(np.arange(degrees.size, dtype=np.int64), degrees)
    slot_round = np.arange(edges.size, dtype=np.int64) - starts[slot_row]
    grouped = edges[np.lexsort((rank[slot_row], slot_round))]
    bounds = np.concatenate(([0], np.cumsum(np.bincount(slot_round)))).tolist()
    return _EdgeRounds(
        order=order,
        edges=grouped,
        reads=reads[grouped],
        spans=tuple(zip(bounds[:-1], bounds[1:])),
    )


def _aggregation_rounds(graph: "CSRGraph") -> Tuple[_EdgeRounds, _EdgeRounds]:
    """Degree rounds of the rows and of the columns of ``graph``."""
    sources = graph._sources()
    by_column = np.argsort(graph.indices, kind="stable")
    column_starts = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(
        np.bincount(graph.indices, minlength=graph.num_vertices),
        out=column_starts[1:],
    )
    return (
        _degree_rounds(
            graph.indptr, np.arange(graph.num_edges, dtype=np.int64), graph.indices
        ),
        _degree_rounds(column_starts, by_column, sources),
    )


def _csr_from_keys(
    num_vertices: int, keys: np.ndarray, weights: np.ndarray, name: str,
    deduplicate: bool = False,
) -> "CSRGraph":
    """Graph of the edges ``keys = source * num_vertices + destination``.

    One stable sort of the keys orders the rows by source with ascending
    destinations; equal keys keep their input order, and ``deduplicate``
    keeps only the first of each run (with its weight).
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    if deduplicate and keys.size:
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        order, keys = order[first], keys[first]
    sources, destinations = np.divmod(keys, num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(np.bincount(sources, minlength=num_vertices), out=indptr[1:])
    return CSRGraph(indptr, destinations, weights[order], name=name)


class CSRGraph:
    """A directed graph stored in compressed sparse row form.

    Attributes:
        num_vertices: Number of vertices.
        indptr: ``int64`` array of length ``num_vertices + 1``; row ``v``'s
            neighbours are ``indices[indptr[v]:indptr[v + 1]]``.
        indices: ``int64`` array of destination vertex ids, one per edge.
        weights: ``float32`` array of edge weights, one per edge.  For a GCN
            this holds the normalised adjacency values.
        name: Optional human-readable name (dataset name).
    """

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: Optional[np.ndarray] = None,
        name: str = "graph",
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise GraphError("indptr and indices must be one-dimensional arrays")
        if indptr.size == 0:
            raise GraphError("indptr must contain at least one entry")
        if indptr[0] != 0:
            raise GraphError("indptr must start at zero")
        if np.any(np.diff(indptr) < 0):
            raise GraphError("indptr must be monotonically non-decreasing")
        if indptr[-1] != indices.size:
            raise GraphError(
                f"indptr[-1] ({int(indptr[-1])}) must equal the number of edges "
                f"({indices.size})"
            )
        num_vertices = indptr.size - 1
        if indices.size and (indices.min() < 0 or indices.max() >= num_vertices):
            raise GraphError("edge destinations must lie in [0, num_vertices)")

        if weights is None:
            weights = np.ones(indices.size, dtype=np.float32)
        else:
            weights = np.asarray(weights, dtype=np.float32)
            if weights.shape != indices.shape:
                raise GraphError("weights must have one entry per edge")

        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.name = name
        self._fingerprint: Optional[str] = None
        self._aggregation_rounds: Optional[Tuple[_EdgeRounds, _EdgeRounds]] = None

    def fingerprint(self) -> str:
        """Stable content digest of the topology (indptr + indices).

        Used as the graph component of cross-run cache keys (the
        :class:`repro.memory.replay.TraceCache` owned by a session): two
        graph objects with the same fingerprint produce identical access
        traces for any schedule.  Weights are excluded — they never affect
        trace construction.  Computed lazily and memoized; callers must not
        mutate ``indptr``/``indices``, nor the arrays they passed to the
        constructor, which keeps them uncopied (nothing in the library does).
        """
        if self._fingerprint is None:
            digest = hashlib.sha1()
            digest.update(np.ascontiguousarray(self.indptr).tobytes())
            digest.update(np.ascontiguousarray(self.indices).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def matmul(self, values: np.ndarray, transpose: bool = False) -> np.ndarray:
        """``A @ values`` (``A^T @ values`` if ``transpose``), ``A`` the weights.

        Each output row starts from ``0.0`` and adds its terms one at a time
        in edge order (for ``A^T``, in the order of the edges pointing at the
        row), the order of numpy's unbuffered scatter-add (``ufunc.at`` on
        ``np.add``), so float32 results match it bit for bit.  The terms are
        added a whole degree round at a time; the rounds depend only on the
        topology, so they are planned lazily, once per graph, and memoized
        under the same no-mutation contract as :meth:`fingerprint`.

        Args:
            values: ``(num_vertices, width)`` float32 matrix.
            transpose: Multiply by the transposed adjacency.
        """
        if self._aggregation_rounds is None:
            self._aggregation_rounds = _aggregation_rounds(self)
        rounds = self._aggregation_rounds[1 if transpose else 0]
        return rounds.scatter_add(values, self.weights)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return self.indptr.size - 1

    @property
    def num_edges(self) -> int:
        """Number of (directed) edges in the graph."""
        return self.indices.size

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.diff(self.indptr)

    @property
    def average_degree(self) -> float:
        """Average out-degree; zero for an empty graph."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the destination ids of ``vertex``'s outgoing edges."""
        self._check_vertex(vertex)
        return self.indices[self.indptr[vertex] : self.indptr[vertex + 1]]

    def _check_vertex(self, vertex: int) -> None:
        if not 0 <= vertex < self.num_vertices:
            raise GraphError(
                f"vertex {vertex} out of range for graph with {self.num_vertices} vertices"
            )

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    @classmethod
    def from_dense(cls, adjacency: np.ndarray, name: str = "graph") -> "CSRGraph":
        """Build a graph from a dense adjacency matrix (non-zeros become edges)."""
        adjacency = np.asarray(adjacency)
        if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
            raise GraphError("adjacency must be a square matrix")
        num_vertices = adjacency.shape[0]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        indices = []
        weights = []
        for src in range(num_vertices):
            cols = np.nonzero(adjacency[src])[0]
            indices.append(cols)
            weights.append(adjacency[src, cols])
            indptr[src + 1] = indptr[src] + cols.size
        indices_arr = (
            np.concatenate(indices) if indices else np.zeros(0, dtype=np.int64)
        )
        weights_arr = (
            np.concatenate(weights).astype(np.float32)
            if weights
            else np.zeros(0, dtype=np.float32)
        )
        return cls(indptr, indices_arr, weights_arr, name=name)

    @classmethod
    def from_edge_list(
        cls,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        weights: Optional[Sequence[float]] = None,
        name: str = "graph",
        deduplicate: bool = True,
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        Rows come out ordered by source with their destinations ascending.
        With ``deduplicate`` a repeated ``(source, destination)`` pair keeps
        its first occurrence's weight; without it, equal pairs keep their
        input order.

        Args:
            num_vertices: Number of vertices.
            edges: ``(E, 2)`` array or iterable of ``(source, destination)``
                pairs.
            weights: Optional per-edge weights aligned with ``edges``.
            name: Graph name.
            deduplicate: Remove duplicate edges (keeping the first weight).
        """
        # An array converts directly; listing it would split it into E row
        # arrays only to stack them back.
        edge_array = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        )
        if edge_array.size == 0:
            indptr = np.zeros(num_vertices + 1, dtype=np.int64)
            return cls(indptr, np.zeros(0, dtype=np.int64), name=name)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise GraphError("edges must be (source, destination) pairs")
        if edge_array.min() < 0 or edge_array.max() >= num_vertices:
            raise GraphError("edge endpoints must lie in [0, num_vertices)")

        if weights is None:
            weight_array = np.ones(edge_array.shape[0], dtype=np.float32)
        else:
            weight_array = np.asarray(weights, dtype=np.float32)
            if weight_array.shape[0] != edge_array.shape[0]:
                raise GraphError("weights must align with edges")

        keys = edge_array[:, 0] * num_vertices + edge_array[:, 1]
        return _csr_from_keys(num_vertices, keys, weight_array, name, deduplicate)

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def with_weights(self, weights: np.ndarray) -> "CSRGraph":
        """Return a copy of the graph with new edge weights."""
        return CSRGraph(self.indptr.copy(), self.indices.copy(), weights, name=self.name)

    def reorder(self, permutation: np.ndarray) -> "CSRGraph":
        """Relabel vertices by ``permutation``.

        ``permutation[old_id] == new_id``.  Both the row order and the
        destination ids are remapped; within each row the destinations stay
        sorted.  Used by the I-GCN baseline (islandization) and by
        locality-improving preprocessing.
        """
        permutation = np.asarray(permutation, dtype=np.int64)
        if permutation.shape != (self.num_vertices,):
            raise GraphError("permutation must have one entry per vertex")
        if not np.array_equal(np.sort(permutation), np.arange(self.num_vertices)):
            raise GraphError("permutation must be a bijection over the vertex ids")

        # One stable sort of all edges by (new source, new destination)
        # reproduces the per-row relabel-and-sort exactly (ties keep their
        # original CSR order, as a per-row stable argsort would).
        n = self.num_vertices
        keys = permutation[self._sources()] * n + permutation[self.indices]
        return _csr_from_keys(n, keys, self.weights, self.name)

    def _sources(self) -> np.ndarray:
        """Source vertex of every edge."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)

    def transpose(self) -> "CSRGraph":
        """Return the transposed graph (edges reversed)."""
        keys = self.indices * self.num_vertices + self._sources()
        return _csr_from_keys(self.num_vertices, keys, self.weights, self.name)

    def symmetrized(self) -> "CSRGraph":
        """Return the graph with every edge mirrored (undirected view)."""
        n, sources = self.num_vertices, self._sources()
        keys = np.concatenate([sources * n + self.indices, self.indices * n + sources])
        weights = np.concatenate([self.weights, self.weights])
        return _csr_from_keys(n, keys, weights, self.name, deduplicate=True)

    # ------------------------------------------------------------------ #
    # Size accounting (Table II "Topology" column)
    # ------------------------------------------------------------------ #
    def topology_bytes(self, index_bytes: int = 4, weight_bytes: int = 4) -> int:
        """Bytes required to store the topology in CSR form.

        ``(V + 1)`` row pointers plus one column index and one weight per
        edge.  This matches the "Topology" size column of the paper's
        Table II (weights included because the normalised adjacency is what
        the aggregation engine streams).
        """
        return (self.num_vertices + 1) * index_bytes + self.num_edges * (
            index_bytes + weight_bytes
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CSRGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.weights, other.weights)
        )
