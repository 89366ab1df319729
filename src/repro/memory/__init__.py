"""Memory hierarchy models: on-chip cache, HBM DRAM, and energy tables."""

from __future__ import annotations

from repro.memory.cache import CacheSimulator, CacheStats
from repro.memory.dram import DRAMModel, TrafficPattern
from repro.memory.hierarchy import MemoryHierarchy, AccessStats
from repro.memory.rowcache import RowCacheStats
from repro.memory.replay import ReplayEngine, TraceCache, replay_trace
from repro.memory.energy import EnergyTable, EnergyBreakdown

__all__ = [
    "CacheSimulator",
    "CacheStats",
    "RowCacheStats",
    "ReplayEngine",
    "TraceCache",
    "replay_trace",
    "DRAMModel",
    "TrafficPattern",
    "MemoryHierarchy",
    "AccessStats",
    "EnergyTable",
    "EnergyBreakdown",
]
