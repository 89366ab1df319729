"""Systolic-array combination engine timing model.

The combination phase multiplies the aggregated features by the layer weight
matrix on a 32x32 output-stationary systolic array (paper Table III), the
same structure SCALE-Sim models.  For an output-stationary array computing a
``(M x K) @ (K x N)`` product, each ``rows x cols`` output tile takes
``K + rows + cols - 2`` cycles to stream the operands through and drain the
results; tiles are processed back to back across the configured number of
combination engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from repro.core.config import EngineConfig
from repro.errors import SimulationError


@dataclass
class GemmCost:
    """Cycle cost of one GEMM on the combination engines."""

    mac_operations: float
    cycles: float
    tiles: int


class SystolicArray:
    """Output-stationary systolic array timing model (SCALE-Sim style)."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config

    def gemm_cost(
        self,
        m: float,
        k: float,
        n: float,
        density: float = 1.0,
    ) -> GemmCost:
        """Cost of a dense ``(m x k) @ (k x n)`` product.

        Args:
            m: Output rows (vertices in the tile).
            k: Reduction dimension (input feature width).
            n: Output columns (output feature width).
            density: Fraction of the reduction dimension that is actually
                processed — 1.0 for a plain systolic array, the input density
                for accelerators that skip zero activations in the
                combination phase (AWB-GCN) or for SGCN's sparse first-layer
                handling.
        """
        if min(m, k, n) < 0:
            raise SimulationError("GEMM dimensions must be non-negative")
        if not 0.0 < density <= 1.0:
            density = max(min(density, 1.0), 1e-6)
        if m == 0 or k == 0 or n == 0:
            return GemmCost(mac_operations=0.0, cycles=0.0, tiles=0)

        rows = self.config.systolic_rows
        cols = self.config.systolic_cols
        row_tiles = ceil(m / rows)
        col_tiles = ceil(n / cols)
        tiles = row_tiles * col_tiles

        effective_k = max(1.0, k * density)
        cycles_per_tile = effective_k + rows + cols - 2
        total_cycles = tiles * cycles_per_tile / self.config.num_combination_engines
        macs = m * k * n * density
        return GemmCost(mac_operations=macs, cycles=float(total_cycles), tiles=tiles)

    def weight_bytes(self, k: float, n: float, element_bytes: int = 4) -> float:
        """Bytes of weights streamed from DRAM for one layer's GEMM."""
        return float(k * n * element_bytes)
