"""Metrics documents: the stable JSON schema over spans and cache counters.

Everything observable funnels into one shape, the **metrics document**
(``schema_version`` 1):

* ``Session.metrics_snapshot()`` produces the per-process building block, a
  :class:`MetricsSnapshot`: the span tree plus every cache's counters;
* each sweep run ships a :class:`TelemetryDelta` back with its payload,
  and :meth:`~repro.experiments.runner.SweepReport.metrics_document` merges
  the deltas into a per-pack aggregate;
* ``repro run --profile`` / ``repro sweep --profile`` write the document as a
  ``metrics.json`` artifact next to the result store, and ``repro stats``
  pretty-prints it (:func:`render_metrics`).

The helpers here are deliberately dumb, order-preserving dictionary algebra:
:func:`merge_spans` sums two span trees, :func:`merge_counters` /
:func:`diff_counters` sum/subtract numeric leaves, :func:`hit_ratio` folds a
counter block into one number.  Counter semantics under merge/diff: monotonic
event counts (``hits``/``misses``/``evictions``) merge exactly; gauge-style
keys (``entries``, ``bytes``) become *net changes* in a delta, which is what
a per-run attribution wants.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

#: Schema version of every metrics document (``metrics.json`` and
#: :class:`MetricsSnapshot`).
METRICS_SCHEMA_VERSION = 1

#: ``kind`` values of a top-level metrics document.
METRICS_KINDS = ("snapshot", "run-profile", "sweep-profile")

#: Counters ``repro stats`` prints first in every cache block.
_COMMON_COUNTERS = ("hits", "misses", "evictions", "entries", "bytes")


# --------------------------------------------------------------------------- #
# Records
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MetricsSnapshot:
    """One session's telemetry state: the span tree and every cache's counters."""

    telemetry_enabled: bool
    spans: Dict[str, Dict[str, Any]]
    caches: Dict[str, Dict[str, Any]]
    schema_version: int = METRICS_SCHEMA_VERSION


@dataclass(frozen=True)
class TelemetryDelta:
    """What one run added to its session's telemetry.

    ``spans`` is the span tree recorded during the run and ``caches`` the
    change in the cache counters (:func:`diff_counters`), so the deltas of
    many runs, from any number of processes, merge without double counting.
    """

    spans: Dict[str, Dict[str, Any]]
    caches: Dict[str, Any]


# --------------------------------------------------------------------------- #
# Dictionary algebra
# --------------------------------------------------------------------------- #
def merge_spans(
    base: Dict[str, Dict[str, Any]], extra: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Dict[str, Any]]:
    """Merge span tree ``extra`` into ``base`` (summing times/counts) and
    return ``base``.  Both trees use the :meth:`SpanNode.to_dict` shape."""
    for name, node in extra.items():
        target = base.get(name)
        if target is None:
            target = {"total_s": 0.0, "count": 0}
            base[name] = target
        target["total_s"] = float(target.get("total_s", 0.0)) + float(
            node.get("total_s", 0.0)
        )
        target["count"] = int(target.get("count", 0)) + int(node.get("count", 0))
        children = node.get("children")
        if children:
            merged = target.setdefault("children", {})
            merge_spans(merged, children)
    return base


def merge_counters(
    base: Dict[str, Any], extra: Mapping[str, Any]
) -> Dict[str, Any]:
    """Recursively sum numeric leaves of ``extra`` into ``base``; returns ``base``."""
    for key, value in extra.items():
        if isinstance(value, Mapping):
            target = base.setdefault(key, {})
            if isinstance(target, dict):
                merge_counters(target, value)
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            base.setdefault(key, value)
        else:
            base[key] = type(value)(base.get(key, 0) + value)
    return base


def diff_counters(
    before: Mapping[str, Any], after: Mapping[str, Any]
) -> Dict[str, Any]:
    """Numeric leaf-wise ``after - before`` (recursive; keys from ``after``)."""
    delta: Dict[str, Any] = {}
    for key, value in after.items():
        if isinstance(value, Mapping):
            delta[key] = diff_counters(
                before.get(key, {}) if isinstance(before.get(key), Mapping) else {},
                value,
            )
        elif isinstance(value, bool) or not isinstance(value, (int, float)):
            delta[key] = value
        else:
            previous = before.get(key, 0)
            if isinstance(previous, bool) or not isinstance(previous, (int, float)):
                previous = 0
            delta[key] = type(value)(value - previous)
    return delta


def hit_ratio(counters: Mapping[str, Any]) -> Optional[float]:
    """``hits / (hits + misses)`` of one counter block; ``None`` if untouched."""
    hits = counters.get("hits", 0)
    misses = counters.get("misses", 0)
    if not isinstance(hits, (int, float)) or not isinstance(misses, (int, float)):
        return None
    total = hits + misses
    if total <= 0:
        return None
    return float(hits) / float(total)


def cache_hit_ratios(
    caches: Mapping[str, Mapping[str, Any]]
) -> Dict[str, Optional[float]]:
    """Per-cache hit ratios of a ``caches`` counter block."""
    return {name: hit_ratio(block) for name, block in caches.items()}


# --------------------------------------------------------------------------- #
# Documents
# --------------------------------------------------------------------------- #
def run_metrics_document(
    snapshot: MetricsSnapshot, scenario_id: Optional[str] = None
) -> Dict[str, Any]:
    """``metrics.json`` document of one profiled ``repro run``."""
    document: Dict[str, Any] = {
        "schema_version": snapshot.schema_version,
        "kind": "run-profile",
        "spans": snapshot.spans,
        "caches": snapshot.caches,
        "cache_hit_ratios": cache_hit_ratios(snapshot.caches),
    }
    if scenario_id is not None:
        document["scenario_id"] = scenario_id
    return document


def sweep_metrics_document(sweeps: List[Dict[str, Any]]) -> Dict[str, Any]:
    """``metrics.json`` document of one profiled ``repro sweep`` invocation.

    ``sweeps`` holds one per-pack aggregate each, as produced by
    :meth:`~repro.experiments.runner.SweepReport.metrics_document`.
    """
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "kind": "sweep-profile",
        "sweeps": list(sweeps),
    }


def write_metrics_json(path: Union[str, Path], document: Mapping[str, Any]) -> None:
    """Write a metrics document (stable key order for golden diffs)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------------------- #
# Rendering (the ``repro stats`` view)
# --------------------------------------------------------------------------- #
def _render_span_tree(
    spans: Mapping[str, Mapping[str, Any]],
    lines: List[str],
    indent: int,
    total_s: float,
) -> None:
    width = max((len(name) for name in spans), default=0) + 2
    for name, node in spans.items():
        seconds = float(node.get("total_s", 0.0))
        count = int(node.get("count", 0))
        share = f"{100.0 * seconds / total_s:5.1f}%" if total_s > 0 else "    -"
        lines.append(
            f"{'  ' * indent}{name:<{width}}{seconds:>9.3f}s  {share}  x{count}"
        )
        children = node.get("children")
        if children:
            _render_span_tree(children, lines, indent + 1, total_s)


def _render_counters(
    caches: Mapping[str, Mapping[str, Any]], lines: List[str], indent: int
) -> None:
    for name, block in sorted(caches.items()):
        ratio = hit_ratio(block)
        ratio_text = f"{100.0 * ratio:5.1f}% hit" if ratio is not None else "  (unused)"
        # The common counters first, then the block's own integer counters
        # (e.g. the replay routes) in the order the block lists them.
        keys = [key for key in _COMMON_COUNTERS if key in block]
        keys += [
            key
            for key, value in block.items()
            if key not in _COMMON_COUNTERS and type(value) is int
        ]
        detail = ", ".join(f"{key}={block[key]}" for key in keys)
        lines.append(f"{'  ' * indent}{name:<14}{ratio_text}  [{detail}]")


def _top_level_seconds(spans: Mapping[str, Mapping[str, Any]]) -> float:
    return sum(float(node.get("total_s", 0.0)) for node in spans.values())


def _render_one_profile(entry: Mapping[str, Any], lines: List[str]) -> None:
    spans = entry.get("spans") or entry.get("phases") or {}
    caches = entry.get("caches", {})
    if "total_runs" in entry:
        lines.append(
            f"  runs: {entry.get('total_runs', 0)} total, "
            f"{entry.get('simulated', 0)} simulated, "
            f"{entry.get('cached', 0)} cached, {entry.get('failed', 0)} failed"
        )
    if "elapsed_seconds" in entry:
        throughput = entry.get("runs_per_second")
        throughput_text = (
            f", {throughput:.2f} runs/s" if isinstance(throughput, (int, float)) else ""
        )
        lines.append(
            f"  wall-clock: {float(entry['elapsed_seconds']):.2f}s{throughput_text}"
        )
    if spans:
        lines.append("  phases (wall seconds, share of profiled time, calls):")
        _render_span_tree(spans, lines, 2, _top_level_seconds(spans))
    if caches:
        lines.append("  caches:")
        _render_counters(caches, lines, 2)


def render_metrics(document: Mapping[str, Any]) -> str:
    """Human-readable rendering of any schema-v1 metrics document."""
    kind = document.get("kind", "snapshot")
    lines = [f"metrics schema v{document.get('schema_version', '?')} ({kind})"]
    if kind == "sweep-profile":
        for entry in document.get("sweeps", []):
            lines.append("")
            lines.append(f"sweep {entry.get('pack', '?')}:")
            _render_one_profile(entry, lines)
    else:
        if "scenario_id" in document:
            lines.append(f"scenario: {document['scenario_id']}")
        _render_one_profile(document, lines)
    return "\n".join(lines)


__all__ = [
    "METRICS_KINDS",
    "METRICS_SCHEMA_VERSION",
    "MetricsSnapshot",
    "TelemetryDelta",
    "cache_hit_ratios",
    "diff_counters",
    "hit_ratio",
    "merge_counters",
    "merge_spans",
    "render_metrics",
    "run_metrics_document",
    "sweep_metrics_document",
    "write_metrics_json",
]
