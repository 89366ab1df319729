"""Benchmark datasets calibrated to the paper's Table II.

The paper evaluates nine real-world graphs.  Those datasets are not available
offline, so this module generates *calibrated synthetic equivalents*: for each
dataset we record the published statistics (vertex count, edge count, input
feature width, intermediate feature sparsity of the trained 28-layer residual
GCN, and test accuracy) and generate a community-structured random graph with
the same average degree and a structural profile (clustering, degree skew)
chosen to match the qualitative description in the paper (e.g. NELL and DBLP
are strongly clustered, Reddit has a very high average degree).

Because a pure-Python trace-driven simulator cannot sweep hundreds of
millions of edges, graphs are scaled down by default (``max_vertices``).  The
scaling preserves the average degree; experiments that depend on the ratio of
working-set size to cache capacity scale the cache by the same factor
(:meth:`Dataset.cache_scale`), so relative results are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import DatasetError
from repro.graphs.generators import community_graph, power_law_graph
from repro.graphs.graph import CSRGraph
from repro.graphs.normalize import gcn_normalize

#: Default feature width of the deep residual GCNs used in the evaluation
#: (Section VI-A: "256 features per vertex").
DEFAULT_HIDDEN_WIDTH = 256

#: Default number of layers of the deep residual GCNs (Section VI-A).
DEFAULT_NUM_LAYERS = 28

#: Default cap on the simulated average degree (see :func:`load_dataset`).
MAX_AVERAGE_DEGREE = 32.0


@dataclass(frozen=True)
class DatasetSpec:
    """Published statistics of one evaluation dataset (paper Table II).

    Attributes:
        name: Full dataset name.
        code: Two-letter code used in the paper's figures.
        num_vertices: Vertex count of the real dataset.
        num_edges: Edge count of the real dataset.
        input_feature_width: Width of the (given) input feature vectors.
        input_sparsity: Sparsity of the input features (NELL's one-hot inputs
            are 99.9% sparse; bag-of-words inputs are typically ~99% sparse;
            dense embeddings ~0%).
        intermediate_sparsity: Average intermediate feature sparsity of the
            trained 28-layer residual GCN (Table II "Feature Sparsity").
        accuracy: Test accuracy of the trained 28-layer model.
        clustering: Structural knob in [0, 1]; fraction of edges generated
            near the diagonal (community structure / neighbour similarity).
        degree_skew: Structural knob; larger values generate more hub-like
            in-degree distributions.
    """

    name: str
    code: str
    num_vertices: int
    num_edges: int
    input_feature_width: int
    input_sparsity: float
    intermediate_sparsity: float
    accuracy: float
    clustering: float
    degree_skew: float

    @property
    def average_degree(self) -> float:
        """Average degree of the full-size dataset."""
        return self.num_edges / self.num_vertices

    def scaled_size(
        self, max_vertices: int, max_average_degree: float = MAX_AVERAGE_DEGREE
    ) -> Tuple[int, float]:
        """Simulated ``(vertex count, average degree)`` under the scale caps.

        The vertex count is capped at ``max_vertices``; the average degree at
        ``max_average_degree`` and at a quarter of the simulated vertex count
        (but never below 1), so small scaled graphs stay sparse.
        """
        num_vertices = min(self.num_vertices, max_vertices)
        average_degree = min(
            self.average_degree, max_average_degree, max(1.0, num_vertices / 4)
        )
        return num_vertices, average_degree

    def topology_mbytes(self) -> float:
        """Approximate CSR topology size in MB (Table II "Topology")."""
        bytes_ = (self.num_vertices + 1) * 4 + self.num_edges * 8
        return bytes_ / 1e6

    def feature_gbytes(self, hidden_width: int = DEFAULT_HIDDEN_WIDTH) -> float:
        """Approximate dense intermediate feature size in GB."""
        return self.num_vertices * hidden_width * 4 / 1e9


#: Table II of the paper, in the order used by Fig. 3 / Fig. 11 legends.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "cora": DatasetSpec(
        name="Cora", code="CR", num_vertices=2_708, num_edges=10_556,
        input_feature_width=1_433, input_sparsity=0.987,
        intermediate_sparsity=0.661, accuracy=0.76,
        clustering=0.55, degree_skew=1.8,
    ),
    "citeseer": DatasetSpec(
        name="CiteSeer", code="CS", num_vertices=3_327, num_edges=9_104,
        input_feature_width=3_703, input_sparsity=0.991,
        intermediate_sparsity=0.697, accuracy=0.66,
        clustering=0.55, degree_skew=1.8,
    ),
    "pubmed": DatasetSpec(
        name="PubMed", code="PM", num_vertices=19_717, num_edges=88_648,
        input_feature_width=500, input_sparsity=0.90,
        intermediate_sparsity=0.707, accuracy=0.77,
        clustering=0.70, degree_skew=2.0,
    ),
    "nell": DatasetSpec(
        name="NELL", code="NL", num_vertices=65_755, num_edges=251_550,
        input_feature_width=61_278, input_sparsity=0.999,
        intermediate_sparsity=0.510, accuracy=0.64,
        clustering=0.80, degree_skew=2.4,
    ),
    "reddit": DatasetSpec(
        name="Reddit", code="RD", num_vertices=232_965, num_edges=114_615_892,
        input_feature_width=602, input_sparsity=0.0,
        intermediate_sparsity=0.584, accuracy=0.95,
        clustering=0.70, degree_skew=2.2,
    ),
    "flickr": DatasetSpec(
        name="Flickr", code="FK", num_vertices=89_250, num_edges=899_756,
        input_feature_width=500, input_sparsity=0.46,
        intermediate_sparsity=0.465, accuracy=0.48,
        clustering=0.50, degree_skew=2.2,
    ),
    "yelp": DatasetSpec(
        name="Yelp", code="YP", num_vertices=716_847, num_edges=13_954_819,
        input_feature_width=300, input_sparsity=0.0,
        intermediate_sparsity=0.640, accuracy=0.54,
        clustering=0.55, degree_skew=2.2,
    ),
    "dblp": DatasetSpec(
        name="DBLP", code="DB", num_vertices=17_716, num_edges=105_734,
        input_feature_width=1_639, input_sparsity=0.98,
        intermediate_sparsity=0.595, accuracy=0.86,
        clustering=0.85, degree_skew=2.0,
    ),
    "github": DatasetSpec(
        name="GitHub", code="GH", num_vertices=37_700, num_edges=578_006,
        input_feature_width=128, input_sparsity=0.10,
        intermediate_sparsity=0.446, accuracy=0.86,
        clustering=0.45, degree_skew=2.4,
    ),
}

#: Dataset order used in Fig. 11 / 12 / 13 (CR CS PM NL RD FK YP DB GH).
FIGURE_ORDER: Tuple[str, ...] = (
    "cora", "citeseer", "pubmed", "nell", "reddit", "flickr", "yelp", "dblp", "github",
)

#: Dataset order used in Fig. 3 (sorted by increasing intermediate sparsity).
SPARSITY_ORDER: Tuple[str, ...] = tuple(
    sorted(DATASET_SPECS, key=lambda key: DATASET_SPECS[key].intermediate_sparsity)
)


@dataclass
class Dataset:
    """A (possibly scaled) dataset instance ready for simulation.

    Attributes:
        spec: The published full-size statistics.
        graph: The (scaled) synthetic topology with GCN-normalised weights.
        scale: ``graph.num_vertices / spec.num_vertices``.
        hidden_width: Intermediate feature width used by the deep GCN.
        num_layers: Number of GCN layers.
        seed: Seed used to generate the topology (for reproducibility).
    """

    spec: DatasetSpec
    graph: CSRGraph
    scale: float
    hidden_width: int = DEFAULT_HIDDEN_WIDTH
    num_layers: int = DEFAULT_NUM_LAYERS
    seed: int = 0
    _layer_sparsities: Optional[List[float]] = field(default=None, repr=False)

    @property
    def name(self) -> str:
        """Lower-case dataset key (e.g. ``"cora"``)."""
        return self.spec.name.lower()

    @property
    def code(self) -> str:
        """Two-letter code used in the paper's plots."""
        return self.spec.code

    @property
    def num_vertices(self) -> int:
        """Vertex count of the simulated (scaled) graph."""
        return self.graph.num_vertices

    @property
    def num_edges(self) -> int:
        """Edge count of the simulated (scaled) graph."""
        return self.graph.num_edges

    @property
    def input_feature_width(self) -> int:
        """Width of the input feature vectors."""
        return self.spec.input_feature_width

    @property
    def input_sparsity(self) -> float:
        """Sparsity of the input features."""
        return self.spec.input_sparsity

    @property
    def intermediate_sparsity(self) -> float:
        """Average intermediate feature sparsity (Table II)."""
        return self.spec.intermediate_sparsity

    def cache_scale(self) -> float:
        """Factor by which the cache should be scaled for relative studies.

        The paper's 512 KB cache holds a fixed fraction of each full-size
        graph's feature working set.  When the graph is scaled down by
        ``scale``, scaling the cache by the same factor keeps the
        working-set-to-cache ratio — the quantity the tiling and SAC results
        depend on — unchanged.  The factor is clamped so tiny graphs still get
        at least a few cache sets.
        """
        return float(min(1.0, max(self.scale, 1e-4)))

    def layer_sparsities(self) -> List[float]:
        """Per-layer intermediate feature sparsity profile.

        Generated by :func:`repro.gcn.sparsity.layer_sparsity_profile` on
        first use and cached; the profile averages to the dataset's published
        intermediate sparsity and rises towards the output layers, matching
        Fig. 2b.
        """
        if self._layer_sparsities is None:
            from repro.gcn.sparsity import layer_sparsity_profile

            self._layer_sparsities = layer_sparsity_profile(
                num_layers=self.num_layers,
                average_sparsity=self.intermediate_sparsity,
                seed=self.seed,
            )
        return list(self._layer_sparsities)

    def with_layers(self, num_layers: int) -> "Dataset":
        """Return a copy of the dataset configured for ``num_layers`` layers."""
        if num_layers <= 0:
            raise DatasetError("number of layers must be positive")
        return Dataset(
            spec=self.spec,
            graph=self.graph,
            scale=self.scale,
            hidden_width=self.hidden_width,
            num_layers=num_layers,
            seed=self.seed,
        )

    def with_sparsity_profile(self, profile: List[float]) -> "Dataset":
        """Return a copy whose :meth:`layer_sparsities` is ``profile``.

        Used by the sparsity-provider pipeline: a measured provider replaces
        the synthetic profile with the one harvested from a trained model,
        and every downstream consumer (workload construction, tile sizing,
        output-write accounting) picks it up through the one accessor.  The
        receiver is left untouched — sessions memoize and share dataset
        instances across runs.
        """
        profile = [float(value) for value in profile]
        if len(profile) != self.num_layers:
            raise DatasetError(
                f"sparsity profile has {len(profile)} entries for a "
                f"{self.num_layers}-layer dataset"
            )
        return Dataset(
            spec=self.spec,
            graph=self.graph,
            scale=self.scale,
            hidden_width=self.hidden_width,
            num_layers=self.num_layers,
            seed=self.seed,
            _layer_sparsities=profile,
        )

    def describe(self) -> Dict[str, object]:
        """Return a row of Table II for this dataset (full-size statistics)."""
        return {
            "dataset": f"{self.spec.name} ({self.spec.code})",
            "vertices": self.spec.num_vertices,
            "edges": self.spec.num_edges,
            "input_features": self.spec.input_feature_width,
            "topology_mb": round(self.spec.topology_mbytes(), 2),
            "feature_gb": round(self.spec.feature_gbytes(self.hidden_width), 3),
            "feature_sparsity": self.spec.intermediate_sparsity,
            "accuracy": self.spec.accuracy,
            "simulated_vertices": self.num_vertices,
            "simulated_edges": self.num_edges,
        }


def available_datasets() -> List[str]:
    """Return the names of all nine paper datasets."""
    return list(DATASET_SPECS)


def load_dataset(
    name: str,
    max_vertices: int = 2048,
    max_average_degree: float = MAX_AVERAGE_DEGREE,
    hidden_width: int = DEFAULT_HIDDEN_WIDTH,
    num_layers: int = DEFAULT_NUM_LAYERS,
    seed: int = 0,
    normalize: bool = True,
) -> Dataset:
    """Build the calibrated synthetic equivalent of a paper dataset.

    Args:
        name: Dataset key (``"cora"``, ``"citeseer"``, ``"pubmed"``,
            ``"nell"``, ``"reddit"``, ``"flickr"``, ``"yelp"``, ``"dblp"``,
            ``"github"``), case-insensitive.  The paper's two-letter codes
            (:attr:`Dataset.code`) are labels only, not accepted names.
        max_vertices: Upper bound on the simulated vertex count.  Datasets
            smaller than this are generated at full size; larger datasets are
            scaled down preserving average degree.
        max_average_degree: Upper bound on the simulated average degree; very
            dense graphs (Reddit's average degree is ~490) are thinned so the
            pure-Python trace-driven simulation stays tractable while the
            degree *ordering* across datasets is preserved.
        hidden_width: Intermediate feature width (paper default 256).
        num_layers: Number of GCN layers (paper default 28).
        seed: RNG seed for the synthetic topology.
        normalize: Apply GCN symmetric normalisation to the edge weights.

    Returns:
        A :class:`Dataset` ready to pass to :func:`repro.core.api.simulate`.
    """
    key = _resolve_name(name)
    spec = DATASET_SPECS[key]
    if max_vertices < 2:
        raise DatasetError("max_vertices must be at least 2")
    if max_average_degree <= 0:
        raise DatasetError("max_average_degree must be positive")

    num_vertices, average_degree = spec.scaled_size(max_vertices, max_average_degree)
    scale = num_vertices / spec.num_vertices

    if spec.degree_skew >= 2.3 and spec.clustering < 0.5:
        graph = power_law_graph(
            num_vertices=num_vertices,
            average_degree=average_degree,
            exponent=spec.degree_skew,
            seed=seed,
            name=key,
        )
    else:
        graph = community_graph(
            num_vertices=num_vertices,
            average_degree=average_degree,
            intra_fraction=spec.clustering,
            locality_sigma=0.03 + 0.05 * (1.0 - spec.clustering),
            seed=seed,
            name=key,
        )
    if normalize:
        graph = gcn_normalize(graph)

    return Dataset(
        spec=spec,
        graph=graph,
        scale=scale,
        hidden_width=hidden_width,
        num_layers=num_layers,
        seed=seed,
    )


def _resolve_name(name: str) -> str:
    key = name.strip().lower()
    if key in DATASET_SPECS:
        return key
    raise DatasetError(
        f"unknown dataset {name!r}; available: {', '.join(sorted(DATASET_SPECS))}"
    )
