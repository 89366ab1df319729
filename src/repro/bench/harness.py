"""Benchmark harness for the trace-replay engine.

Times the built-in scenario packs through a :class:`~repro.core.session.Session`
(the vectorized engine of :mod:`repro.memory.replay`, the only replay path).

Sensitivity cases measure a before/after of sweep dispatch: replay-knob
sweep packs (cache-size, hbm-generation) timed under per-knob dispatch —
every scenario in its own fresh session, the unit cost of a worker that
sees one scenario of a class at a time — versus grouped spectrum dispatch,
where one session partitions the pack into replay-knob equivalence classes
and answers each class's capacity vector in a single replay evaluation
(:meth:`ReplayEngine.evaluate`).

Methodology:

* each timed repeat uses a **fresh session** (cold trace cache, cold engine
  structures — everything the engine amortises is paid inside the timed
  region);
* dataset synthesis is **pre-warmed** before the clock starts: generating a
  synthetic topology is not what this benchmark measures;
* each wall-clock is the **best of** ``repeats`` runs, the conventional way
  to suppress scheduler noise on shared machines.

``run_benchmarks`` produces (and optionally writes) the ``BENCH_*.json``
document whose schema is documented in the README's Performance section.
``BENCH_trace_engine.json`` at the repository root is the last schema-v3 run,
which still timed the since-removed legacy replay path as its baseline.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.session import Session, replay_classes
from repro.experiments.scenarios import get_pack
from repro.telemetry.spans import reset_spans, set_enabled, span_snapshot

#: Schema version of the BENCH JSON document.  v2 added the per-pack
#: ``phases`` span breakdown (telemetry-profiled, measured outside the timed
#: best-of repeats).  v3 added *sensitivity* cases: packs sweeping replay
#: knobs (cache capacity, HBM generation) timed under per-knob dispatch
#: (``vectorized_s`` — every scenario simulated independently in its own
#: fresh session) versus grouped spectrum dispatch (``spectrum_s`` — one
#: fresh session, :meth:`Session.run_many` partitioning the pack into
#: replay-knob equivalence classes and answering each class's capacity
#: vector in a single replay evaluation).  v4 dropped the legacy replay
#: baseline with the legacy path itself: no ``legacy_s``/``speedup`` per
#: entry, no ``total_legacy_s``/``overall_speedup``/``min_speedup`` in the
#: summary, and no ``baseline`` field.
BENCH_SCHEMA_VERSION = 4

#: Default benchmark cases: ``(pack name, max_vertices)`` — ``None`` keeps
#: the pack's default scale — with an optional third ``quick`` element
#: selecting the pack's CI-smoke variant and an optional fourth
#: ``sensitivity`` element switching the case to the per-knob-vs-spectrum
#: protocol.  The main-comparison grid is
#: measured at its default scale and at a 4x larger one where the replay
#: dominates even more clearly; the design-space grid tracks the overhead
#: of the DesignPoint/phase-pipeline path (24 derived design points per
#: dataset, none of them a memoized built-in model); the quick
#: sparsity-depth grid tracks the cost of measured-sparsity runs (DeepGCN
#: training + mask harvesting inside the timed region — the harvest memo is
#: cold in every fresh session); the cache-size and hbm-generation
#: sensitivity cases track the grouped/spectrum sweep path.
DEFAULT_CASES: Tuple[Tuple, ...] = (
    ("paper-comparison", None),
    ("paper-comparison", 2048),
    ("design-space", None),
    ("sparsity-depth", None, True),
    ("cache-size", 2048, False, True),
    ("hbm-generation", 2048, False, True),
)

#: Case used by ``repro bench --quick`` (CI smoke): the smallest built-in
#: pack (18 runs) at a reduced scale.
QUICK_CASE: Tuple[str, Optional[int]] = ("hbm-generation", 256)

#: Default number of timed repeats per case (best-of).
DEFAULT_REPEATS = 3


@dataclass
class PackBenchResult:
    """Timing of one scenario pack."""

    pack: str
    runs: int
    max_vertices: Optional[int]
    repeats: int
    vectorized_s: float
    trace_cache: Dict[str, int] = field(default_factory=dict)
    quick_pack: bool = False
    #: Sensitivity protocol: ``vectorized_s`` is per-knob dispatch (every
    #: scenario in its own fresh session) and ``spectrum_s`` is grouped
    #: spectrum dispatch (one fresh session, ``run_many``).
    sensitivity: bool = False
    spectrum_s: Optional[float] = None
    #: Number of replay-knob equivalence classes the pack partitions into
    #: (sensitivity cases only).
    replay_classes: Optional[int] = None
    #: Span tree of one telemetry-profiled sweep (where the
    #: pack's wall-clock goes, stage by stage).  Profiled in a separate,
    #: untimed pass so instrumentation never perturbs the best-of numbers.
    phases: Dict[str, object] = field(default_factory=dict)

    @property
    def spectrum_speedup(self) -> Optional[float]:
        """Per-knob wall-clock divided by grouped spectrum wall-clock."""
        if self.spectrum_s is None or self.spectrum_s <= 0:
            return None
        return self.vectorized_s / self.spectrum_s

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (one entry of the BENCH document)."""
        return {
            "pack": self.pack,
            "runs": self.runs,
            "max_vertices": self.max_vertices,
            "quick_pack": self.quick_pack,
            "sensitivity": self.sensitivity,
            "repeats": self.repeats,
            "vectorized_s": round(self.vectorized_s, 4),
            "spectrum_s": (
                None if self.spectrum_s is None else round(self.spectrum_s, 4)
            ),
            "spectrum_speedup": (
                None
                if self.spectrum_speedup is None
                else round(self.spectrum_speedup, 2)
            ),
            "replay_classes": self.replay_classes,
            "trace_cache": dict(self.trace_cache),
            "phases": dict(self.phases),
        }


def _prewarm_datasets(session: Session, specs: Sequence) -> None:
    """Synthesize every dataset a pack needs before the clock starts."""
    for spec in specs:
        session.load_dataset(
            spec.dataset,
            max_vertices=spec.max_vertices,
            num_layers=spec.num_layers,
            seed=spec.seed,
        )


def _time_sweep(specs: Sequence, repeats: int) -> Tuple[float, Session]:
    """Best-of-``repeats`` wall-clock of one pack sweep in a fresh session."""
    best = float("inf")
    session: Optional[Session] = None
    for _ in range(max(1, repeats)):
        session = Session()
        _prewarm_datasets(session, specs)
        start = time.perf_counter()
        session.run_many(specs, annotate=False)
        best = min(best, time.perf_counter() - start)
    assert session is not None
    return best, session


def _time_isolated(specs: Sequence, repeats: int) -> float:
    """Best-of-``repeats`` wall-clock of per-knob dispatch.

    Every scenario is simulated in its own fresh session — nothing is
    shared between knob settings, so sibling knob settings rebuild the
    trace, the replay structure, and the per-layer tables from scratch.
    Dataset synthesis is pre-warmed per session, as in :func:`_time_sweep`.
    """
    best = float("inf")
    for _ in range(max(1, repeats)):
        sessions = []
        for spec in specs:
            session = Session()
            _prewarm_datasets(session, [spec])
            sessions.append(session)
        start = time.perf_counter()
        for session, spec in zip(sessions, specs):
            session.run(spec)
        best = min(best, time.perf_counter() - start)
    return best


def _round_spans(spans: Dict[str, Dict[str, object]]) -> Dict[str, object]:
    """Span tree with times rounded for a stable committed JSON document."""
    rounded: Dict[str, object] = {}
    for name, node in spans.items():
        entry: Dict[str, object] = {
            "total_s": round(float(node.get("total_s", 0.0)), 4),
            "count": int(node.get("count", 0)),
        }
        children = node.get("children")
        if children:
            entry["children"] = _round_spans(children)
        rounded[name] = entry
    return rounded


def _profile_sweep(specs: Sequence) -> Dict[str, object]:
    """Span breakdown of one fresh-session sweep (outside the timed repeats)."""
    previous_enabled = set_enabled(True)
    reset_spans()
    try:
        Session().run_many(specs, annotate=False)
        return _round_spans(span_snapshot())
    finally:
        reset_spans()
        set_enabled(previous_enabled)


def bench_pack(
    name: str,
    max_vertices: Optional[int] = None,
    repeats: int = DEFAULT_REPEATS,
    quick_pack: bool = False,
    sensitivity: bool = False,
) -> PackBenchResult:
    """Benchmark one scenario pack.

    ``quick_pack`` times the pack's CI-smoke variant (reduced scale and
    grid) instead of the full grid — used for packs whose full grid is too
    expensive to time (the measured-sparsity grid trains a model per cell).

    ``sensitivity`` switches to the replay-knob sweep protocol:
    ``vectorized_s`` times per-knob dispatch (every scenario simulated
    independently in its own fresh session) and ``spectrum_s`` times
    grouped dispatch (one fresh session, ``run_many`` partitioning the pack
    into replay-knob equivalence classes and answering each class's
    capacity spectrum in one replay evaluation).
    """
    specs = get_pack(name, max_vertices=max_vertices, quick=quick_pack).expand()
    spectrum_s = None
    num_classes = None
    if sensitivity:
        vectorized_s = _time_isolated(specs, repeats)
        spectrum_s, session = _time_sweep(specs, repeats)
        num_classes = len(replay_classes(specs))
    else:
        vectorized_s, session = _time_sweep(specs, repeats)
    return PackBenchResult(
        pack=name,
        runs=len(specs),
        max_vertices=max_vertices,
        repeats=repeats,
        vectorized_s=vectorized_s,
        trace_cache=session.trace_cache.stats(),
        quick_pack=quick_pack,
        sensitivity=sensitivity,
        spectrum_s=spectrum_s,
        replay_classes=num_classes,
        phases=_profile_sweep(specs),
    )


def run_benchmarks(
    cases: Optional[Sequence[Tuple[str, Optional[int]]]] = None,
    repeats: int = DEFAULT_REPEATS,
    quick: bool = False,
    out: Optional[Union[str, Path]] = None,
) -> Dict[str, object]:
    """Run the benchmark suite and return (optionally write) the BENCH document.

    Args:
        cases: ``(pack name, max_vertices)`` pairs — optionally with a third
            ``quick`` element selecting the pack's CI-smoke variant and a
            fourth ``sensitivity`` element selecting the per-knob-vs-spectrum
            protocol; :data:`DEFAULT_CASES` when omitted.
        repeats: Timed repeats per case (best-of).
        quick: CI smoke mode — the smallest pack at reduced scale, one
            repeat; overrides ``cases``/``repeats``.
        out: Path of the ``BENCH_*.json`` to write (skipped when ``None``).
    """
    if quick:
        cases = [QUICK_CASE]
        repeats = 1
    elif cases is None:
        cases = list(DEFAULT_CASES)

    results: List[PackBenchResult] = []
    for case in cases:
        pack_name, max_vertices = case[0], case[1]
        quick_pack = bool(case[2]) if len(case) > 2 else False
        sensitivity = bool(case[3]) if len(case) > 3 else False
        results.append(
            bench_pack(
                pack_name,
                max_vertices=max_vertices,
                repeats=repeats,
                quick_pack=quick_pack,
                sensitivity=sensitivity,
            )
        )

    # The total is a regression tripwire for the *engine*: quick-pack cases
    # (the measured-sparsity grid) are dominated by DeepGCN training, so
    # they are reported per-entry but left out of the total (unless they are
    # all there is, e.g. a custom quick-only invocation).  Sensitivity cases
    # measure a different before/after (per-knob vs grouped dispatch) and
    # feed their own aggregate instead.
    engine_results = [
        result
        for result in results
        if not result.quick_pack and not result.sensitivity
    ]
    if not engine_results:
        engine_results = [result for result in results if not result.sensitivity]
    if not engine_results:
        engine_results = results
    total_vectorized = sum(result.vectorized_s for result in engine_results)
    spectrum_speedups = [
        result.spectrum_speedup
        for result in results
        if result.spectrum_speedup is not None
    ]
    document: Dict[str, object] = {
        "benchmark": "trace_engine",
        "schema_version": BENCH_SCHEMA_VERSION,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": bool(quick),
        "sensitivity_baseline": (
            "per-knob dispatch: every scenario of a replay-knob sweep "
            "simulated independently in its own fresh session; spectrum_s "
            "instead runs the pack grouped into replay-knob equivalence "
            "classes in one fresh session, answering each class's capacity "
            "spectrum in a single replay evaluation"
        ),
        "platform": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "results": [result.to_dict() for result in results],
        "summary": {
            "total_vectorized_s": round(total_vectorized, 4),
            "min_spectrum_speedup": (
                round(min(spectrum_speedups), 2) if spectrum_speedups else None
            ),
        },
    }
    if out is not None:
        path = Path(out)
        path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return document


__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_CASES",
    "DEFAULT_REPEATS",
    "QUICK_CASE",
    "PackBenchResult",
    "bench_pack",
    "run_benchmarks",
]
