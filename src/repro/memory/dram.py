"""Off-chip DRAM (HBM) bandwidth and timing model.

The accelerator models are phase-level: for each phase they know how many
bytes must cross the off-chip interface and with what access pattern.  The
DRAM model converts that into cycles using the configured peak bandwidth and
an *efficiency* factor derived from the pattern:

* long, aligned, streaming bursts (in-place BEICSR rows, dense rows, weight
  streaming) approach ``base_efficiency`` of the peak bandwidth because they
  hit open row buffers and fill whole bursts;
* short, unaligned, random accesses (packed CSR rows) fall towards
  ``random_efficiency`` because every access opens a new row and part of each
  burst is wasted.

This captures the first-order behaviour the paper's DRAMsim3 simulations
exhibit without simulating individual banks cycle by cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DRAMConfig
from repro.errors import SimulationError


@dataclass(frozen=True)
class TrafficPattern:
    """Description of an access pattern for efficiency estimation.

    Attributes:
        average_burst_lines: Mean number of consecutive cachelines per
            access (1 = fully random single-line accesses).
        aligned: Whether accesses start at cacheline/burst boundaries.
        sequential_fraction: Fraction of the traffic that is long streaming
            (weights, topology, output writes) rather than random row reads.
    """

    average_burst_lines: float = 1.0
    aligned: bool = True
    sequential_fraction: float = 0.0

    def __post_init__(self) -> None:
        if self.average_burst_lines <= 0:
            raise SimulationError("average burst length must be positive")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            raise SimulationError("sequential fraction must lie in [0, 1]")


class DRAMModel:
    """Bandwidth/efficiency model of the off-chip memory."""

    #: Burst length (in cachelines) beyond which efficiency saturates at base.
    SATURATION_BURST_LINES = 8.0

    def __init__(self, config: DRAMConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------ #
    def efficiency(self, pattern: TrafficPattern) -> float:
        """Achievable fraction of peak bandwidth for ``pattern``."""
        span = self.config.base_efficiency - self.config.random_efficiency
        burst = min(pattern.average_burst_lines, self.SATURATION_BURST_LINES)
        burst_factor = (burst - 1.0) / (self.SATURATION_BURST_LINES - 1.0)
        random_part = self.config.random_efficiency + span * burst_factor
        if not pattern.aligned:
            # Unaligned accesses waste part of every burst and break
            # row-buffer locality; model as a 15% efficiency penalty.
            random_part *= 0.85
        efficiency = (
            pattern.sequential_fraction * self.config.base_efficiency
            + (1.0 - pattern.sequential_fraction) * random_part
        )
        return float(np.clip(efficiency, 0.05, self.config.base_efficiency))

    def effective_bandwidth_gbps(self, pattern: TrafficPattern) -> float:
        """Achievable bandwidth in GB/s for ``pattern``."""
        return self.config.peak_bandwidth_gbps * self.efficiency(pattern)

    def transfer_cycles(
        self,
        num_bytes: float,
        frequency_ghz: float,
        pattern: TrafficPattern,
    ) -> float:
        """Cycles needed to transfer ``num_bytes`` at ``frequency_ghz``.

        Bandwidth in GB/s divided by the clock in GHz gives bytes per cycle,
        so ``cycles = bytes / (bandwidth / frequency)``.
        """
        if num_bytes < 0:
            raise SimulationError("byte count must be non-negative")
        if num_bytes == 0:
            return 0.0
        bytes_per_cycle = self.effective_bandwidth_gbps(pattern) / frequency_ghz
        return float(num_bytes / bytes_per_cycle)

    # ------------------------------------------------------------------ #
