"""Throughput model of the SIMD aggregation engines.

The baseline aggregation engine (paper Fig. 5) is a 16-way SIMD unit fed by a
graph reader (edges) and a feature reader (destination feature rows).  SGCN's
sparse aggregator (Fig. 8) adds a parallel prefix-sum unit that converts each
bitmap into reversed indices into the packed non-zero values; it completes
in one pipeline stage, so its cost is folded into the per-cacheline
aggregation throughput modelled here.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import EngineConfig
from repro.errors import SimulationError


@dataclass
class AggregationCost:
    """Cycle cost of an aggregation phase on the SIMD engines."""

    mac_operations: float
    cycles: float


class SIMDAggregationEngine:
    """Throughput model of the SIMD aggregation engines.

    Each engine multiplies one cacheline worth of feature elements
    (``simd_width`` lanes) by the broadcast edge weight per cycle and
    accumulates into the output registers.  ``num_engines`` engines operate
    in parallel on different vertices.
    """

    def __init__(self, config: EngineConfig) -> None:
        self.config = config

    def aggregation_cost(
        self,
        num_edges: float,
        feature_width: float,
        density: float = 1.0,
    ) -> AggregationCost:
        """Cost of aggregating ``num_edges`` rows of ``feature_width`` features.

        Args:
            num_edges: Number of (source, destination) feature-row
                accumulations.
            feature_width: Elements per feature row.
            density: Fraction of elements that are non-zero *and processed*
                — 1.0 for dense engines (zeros are multiplied anyway), the
                feature density for SGCN's sparse aggregator.
        """
        if num_edges < 0 or feature_width < 0:
            raise SimulationError("workload sizes must be non-negative")
        if not 0.0 <= density <= 1.0:
            raise SimulationError("density must lie in [0, 1]")
        macs = num_edges * feature_width * density
        lanes = self.config.simd_width * self.config.num_aggregation_engines
        # Each edge pays at least one cycle (bitmap decode / edge dispatch)
        # even if its row is almost empty.
        cycles = max(macs / lanes, num_edges / self.config.num_aggregation_engines)
        return AggregationCost(mac_operations=macs, cycles=float(cycles))
