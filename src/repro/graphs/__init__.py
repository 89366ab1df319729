"""Graph substrate: structures, generators, datasets, and statistics."""

from __future__ import annotations

from repro.graphs.graph import CSRGraph
from repro.graphs.generators import community_graph, power_law_graph
from repro.graphs.normalize import gcn_normalize, add_self_loops
from repro.graphs.datasets import Dataset, load_dataset, available_datasets, DATASET_SPECS
from repro.graphs.stats import clustering_score

__all__ = [
    "CSRGraph",
    "community_graph",
    "power_law_graph",
    "gcn_normalize",
    "add_self_loops",
    "Dataset",
    "load_dataset",
    "available_datasets",
    "DATASET_SPECS",
    "clustering_score",
]
