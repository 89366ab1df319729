"""Result containers for accelerator simulations.

The performance model produces, per layer, a cycle count, a breakdown of the
off-chip traffic, the work done by the compute engines, and the energy those
imply.  :class:`SimulationResult` aggregates the layers for one
(dataset, accelerator, configuration) run; :class:`ComparisonResult` holds a
set of runs over the same dataset/config and computes the normalised
speedups and traffic ratios the paper's figures report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import SimulationError
from repro.memory.energy import EnergyBreakdown


def _json_safe(value: object) -> object:
    """Coerce numpy scalars/arrays and containers to JSON-encodable values."""
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(item) for item in value.tolist()]
    if isinstance(value, dict):
        return {str(key): _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


@dataclass
class TrafficBreakdown:
    """Off-chip DRAM traffic of one layer or one run, in bytes.

    Attributes:
        topology_bytes: Graph topology (CSR adjacency) reads.
        feature_read_bytes: Intermediate/input feature reads.
        feature_write_bytes: Output feature writes (next layer's input).
        weight_bytes: Layer weight reads.
        psum_bytes: Partial-sum spills and refills (column-product designs).
    """

    topology_bytes: float = 0.0
    feature_read_bytes: float = 0.0
    feature_write_bytes: float = 0.0
    weight_bytes: float = 0.0
    psum_bytes: float = 0.0

    @property
    def total_bytes(self) -> float:
        """Total off-chip traffic."""
        return (
            self.topology_bytes
            + self.feature_read_bytes
            + self.feature_write_bytes
            + self.weight_bytes
            + self.psum_bytes
        )

    def __add__(self, other: "TrafficBreakdown") -> "TrafficBreakdown":
        return TrafficBreakdown(
            topology_bytes=self.topology_bytes + other.topology_bytes,
            feature_read_bytes=self.feature_read_bytes + other.feature_read_bytes,
            feature_write_bytes=self.feature_write_bytes + other.feature_write_bytes,
            weight_bytes=self.weight_bytes + other.weight_bytes,
            psum_bytes=self.psum_bytes + other.psum_bytes,
        )

    def scaled(self, factor: float) -> "TrafficBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return TrafficBreakdown(
            topology_bytes=self.topology_bytes * factor,
            feature_read_bytes=self.feature_read_bytes * factor,
            feature_write_bytes=self.feature_write_bytes * factor,
            weight_bytes=self.weight_bytes * factor,
            psum_bytes=self.psum_bytes * factor,
        )

    def as_dict(self) -> Dict[str, float]:
        """Plain-dictionary view including the total."""
        return {
            "topology": self.topology_bytes,
            "feature_read": self.feature_read_bytes,
            "feature_write": self.feature_write_bytes,
            "weights": self.weight_bytes,
            "psum": self.psum_bytes,
            "total": self.total_bytes,
        }

    def to_dict(self) -> Dict[str, float]:
        """Round-trip serialisation keyed by field name (see :meth:`from_dict`).

        Unlike :meth:`as_dict` (a display view that renames components and
        adds the total), this mapping reconstructs the object exactly.
        """
        return {
            "topology_bytes": self.topology_bytes,
            "feature_read_bytes": self.feature_read_bytes,
            "feature_write_bytes": self.feature_write_bytes,
            "weight_bytes": self.weight_bytes,
            "psum_bytes": self.psum_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "TrafficBreakdown":
        """Rebuild a breakdown produced by :meth:`to_dict`."""
        return cls(
            topology_bytes=float(data["topology_bytes"]),
            feature_read_bytes=float(data["feature_read_bytes"]),
            feature_write_bytes=float(data["feature_write_bytes"]),
            weight_bytes=float(data["weight_bytes"]),
            psum_bytes=float(data["psum_bytes"]),
        )


@dataclass
class LayerResult:
    """Performance model output for one GCN layer.

    Attributes:
        layer_index: Zero-based layer index.
        cycles: Total cycles of the layer (phases overlapped if pipelined).
        aggregation_cycles: Cycles of the aggregation phase alone.
        combination_cycles: Cycles of the combination phase alone.
        aggregation_compute_cycles: Compute-bound portion of aggregation.
        combination_compute_cycles: Compute-bound portion of combination.
        memory_cycles: Cycles needed to move the layer's off-chip traffic.
        macs: Multiply-accumulate operations performed.
        traffic: Off-chip traffic breakdown.
        cache_accesses: On-chip cache accesses (for energy accounting).
        cache_hit_rate: Feature-read hit rate observed in the cache model.
        energy: Energy breakdown of this layer.
        weight: How many network layers this simulated layer represents
            (representative-layer sampling uses weights > 1).
    """

    layer_index: int
    cycles: float
    aggregation_cycles: float
    combination_cycles: float
    aggregation_compute_cycles: float
    combination_compute_cycles: float
    memory_cycles: float
    macs: float
    traffic: TrafficBreakdown
    cache_accesses: float
    cache_hit_rate: float
    energy: EnergyBreakdown
    weight: float = 1.0

    def to_dict(self) -> Dict[str, object]:
        """Round-trip serialisation (see :meth:`from_dict`)."""
        return {
            "layer_index": int(self.layer_index),
            "cycles": float(self.cycles),
            "aggregation_cycles": float(self.aggregation_cycles),
            "combination_cycles": float(self.combination_cycles),
            "aggregation_compute_cycles": float(self.aggregation_compute_cycles),
            "combination_compute_cycles": float(self.combination_compute_cycles),
            "memory_cycles": float(self.memory_cycles),
            "macs": float(self.macs),
            "traffic": self.traffic.to_dict(),
            "cache_accesses": float(self.cache_accesses),
            "cache_hit_rate": float(self.cache_hit_rate),
            "energy": self.energy.to_dict(),
            "weight": float(self.weight),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LayerResult":
        """Rebuild a layer result produced by :meth:`to_dict`."""
        return cls(
            layer_index=int(data["layer_index"]),
            cycles=float(data["cycles"]),
            aggregation_cycles=float(data["aggregation_cycles"]),
            combination_cycles=float(data["combination_cycles"]),
            aggregation_compute_cycles=float(data["aggregation_compute_cycles"]),
            combination_compute_cycles=float(data["combination_compute_cycles"]),
            memory_cycles=float(data["memory_cycles"]),
            macs=float(data["macs"]),
            traffic=TrafficBreakdown.from_dict(data["traffic"]),
            cache_accesses=float(data["cache_accesses"]),
            cache_hit_rate=float(data["cache_hit_rate"]),
            energy=EnergyBreakdown.from_dict(data["energy"]),
            weight=float(data.get("weight", 1.0)),
        )


@dataclass
class SimulationResult:
    """Aggregate result of simulating one accelerator on one dataset."""

    accelerator: str
    dataset: str
    layers: List[LayerResult] = field(default_factory=list)
    frequency_ghz: float = 1.0
    metadata: Dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    @property
    def total_cycles(self) -> float:
        """Total execution cycles (layer weights applied)."""
        return float(sum(layer.cycles * layer.weight for layer in self.layers))

    @property
    def runtime_seconds(self) -> float:
        """Wall-clock execution time implied by the cycle count."""
        return self.total_cycles / (self.frequency_ghz * 1e9)

    @property
    def traffic(self) -> TrafficBreakdown:
        """Total off-chip traffic (layer weights applied)."""
        total = TrafficBreakdown()
        for layer in self.layers:
            total = total + layer.traffic.scaled(layer.weight)
        return total

    @property
    def dram_traffic_bytes(self) -> float:
        """Total off-chip traffic in bytes."""
        return self.traffic.total_bytes

    @property
    def total_macs(self) -> float:
        """Total multiply-accumulate operations."""
        return float(sum(layer.macs * layer.weight for layer in self.layers))

    @property
    def energy(self) -> EnergyBreakdown:
        """Total energy (layer weights applied)."""
        total = EnergyBreakdown(0.0, 0.0, 0.0)
        for layer in self.layers:
            total = total + layer.energy.scaled(layer.weight)
        return total

    @property
    def average_cache_hit_rate(self) -> float:
        """Access-weighted average feature-read hit rate."""
        weights = [layer.cache_accesses * layer.weight for layer in self.layers]
        rates = [layer.cache_hit_rate for layer in self.layers]
        total = sum(weights)
        if total == 0:
            return 0.0
        return float(sum(w * r for w, r in zip(weights, rates)) / total)

    def summary(self) -> Dict[str, object]:
        """One-line summary used by the experiment reports."""
        return {
            "accelerator": self.accelerator,
            "dataset": self.dataset,
            "cycles": self.total_cycles,
            "runtime_s": self.runtime_seconds,
            "dram_bytes": self.dram_traffic_bytes,
            "macs": self.total_macs,
            "energy_j": self.energy.total_joules,
            "cache_hit_rate": self.average_cache_hit_rate,
        }

    def to_dict(self) -> Dict[str, object]:
        """Round-trip serialisation of the full result (see :meth:`from_dict`).

        The payload is JSON-safe: numpy scalars in ``metadata`` are coerced to
        plain Python numbers.
        """
        return {
            "accelerator": self.accelerator,
            "dataset": self.dataset,
            "frequency_ghz": float(self.frequency_ghz),
            "metadata": {key: _json_safe(value) for key, value in self.metadata.items()},
            "layers": [layer.to_dict() for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SimulationResult":
        """Rebuild a result produced by :meth:`to_dict`."""
        return cls(
            accelerator=str(data["accelerator"]),
            dataset=str(data["dataset"]),
            layers=[LayerResult.from_dict(layer) for layer in data.get("layers", [])],
            frequency_ghz=float(data.get("frequency_ghz", 1.0)),
            metadata=dict(data.get("metadata", {})),
        )


@dataclass
class ComparisonResult:
    """A set of simulation results over the same dataset and configuration."""

    dataset: str
    results: Dict[str, SimulationResult] = field(default_factory=dict)
    baseline: str = "gcnax"

    def add(self, result: SimulationResult) -> None:
        """Add one accelerator's result."""
        self.results[result.accelerator] = result

    def accelerators(self) -> List[str]:
        """Names of the accelerators present."""
        return list(self.results)

    def speedups(self, baseline: Optional[str] = None) -> Dict[str, float]:
        """Speedup of every accelerator relative to ``baseline``."""
        base = self._baseline_result(baseline)
        return {
            name: base.total_cycles / result.total_cycles
            for name, result in self.results.items()
        }

    def normalized_traffic(self, baseline: Optional[str] = None) -> Dict[str, float]:
        """Off-chip traffic of every accelerator normalised to ``baseline``."""
        base = self._baseline_result(baseline)
        base_bytes = base.dram_traffic_bytes
        return {
            name: result.dram_traffic_bytes / base_bytes
            for name, result in self.results.items()
        }

    def _baseline_result(self, baseline: Optional[str]) -> SimulationResult:
        key = baseline or self.baseline
        if key not in self.results:
            raise SimulationError(
                f"baseline {key!r} missing from comparison "
                f"(have: {sorted(self.results)})"
            )
        return self.results[key]

    def to_dict(self) -> Dict[str, object]:
        """Round-trip serialisation (see :meth:`from_dict`)."""
        return {
            "dataset": self.dataset,
            "baseline": self.baseline,
            "results": {
                name: result.to_dict() for name, result in self.results.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ComparisonResult":
        """Rebuild a comparison produced by :meth:`to_dict`."""
        comparison = cls(
            dataset=str(data["dataset"]),
            baseline=str(data.get("baseline", "gcnax")),
        )
        for result in data.get("results", {}).values():
            comparison.add(SimulationResult.from_dict(result))
        return comparison
