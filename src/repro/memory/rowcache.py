"""Result type of the row-granularity LRU cache model.

The accelerator experiments replay millions of feature-row accesses, which a
line-by-line set-associative simulation cannot sustain in pure Python.  The
designs we model always fetch a feature row (or slice group) as a unit, so a
fully-associative LRU cache whose *entries are rows* and whose *capacity is
measured in cachelines* captures the locality behaviour that matters — how
many distinct rows fit on chip and how reuse distance compares to that — at a
fraction of the cost.  :class:`repro.memory.replay.ReplayEngine` replays
whole traces through this model; :class:`RowCacheStats` is what a replay
reports.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class RowCacheStats:
    """Counters of one trace replay through the row cache."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    miss_lines: int = 0
    hit_lines: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of row accesses that hit."""
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses
