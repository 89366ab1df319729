"""Memory models: the row-cache trace replay, HBM DRAM, and energy tables."""

from __future__ import annotations

from repro.memory.dram import DRAMModel, TrafficPattern
from repro.memory.rowcache import RowCacheStats
from repro.memory.replay import ReplayEngine, TraceCache, replay_trace
from repro.memory.energy import EnergyTable, EnergyBreakdown

__all__ = [
    "RowCacheStats",
    "ReplayEngine",
    "TraceCache",
    "replay_trace",
    "DRAMModel",
    "TrafficPattern",
    "EnergyTable",
    "EnergyBreakdown",
]
