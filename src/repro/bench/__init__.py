"""Performance benchmarks for the simulation engine (``repro bench``).

The :mod:`repro.bench.harness` module times the built-in scenario packs
(and grouped spectrum against per-knob dispatch on replay-knob sweeps), and
emits the ``BENCH_*.json`` documents that record the repository's
performance trajectory.
"""

from __future__ import annotations

from repro.bench.harness import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_CASES,
    DEFAULT_REPEATS,
    QUICK_CASE,
    PackBenchResult,
    bench_pack,
    run_benchmarks,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_CASES",
    "DEFAULT_REPEATS",
    "QUICK_CASE",
    "PackBenchResult",
    "bench_pack",
    "run_benchmarks",
]
