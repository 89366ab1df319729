"""Observability for the simulation stack: spans, counters, metrics, logs.

The telemetry plane answers, for any run or sweep, *where the time went and
whether the caches earned their keep* — without ever influencing the results
(instrumentation is identity-neutral; the golden digest tests pin this).

Three pieces:

* :mod:`repro.telemetry.spans` — a zero-dependency hierarchical span
  recorder (off by default, ~0 overhead when disabled) that the phase
  pipeline, the replay engine, the measured-sparsity harvest, and the result
  store time themselves through;
* :mod:`repro.telemetry.metrics` — the stable schema-v1 metrics documents:
  the ``Session.metrics_snapshot()`` and per-run telemetry-delta records,
  ``metrics.json`` artifacts, and the ``repro stats`` renderer;
* :mod:`repro.telemetry.logs` — configuration of the ``repro.*`` structured
  logger tree (``--log-level`` / ``REPRO_LOG_LEVEL``).

Quickstart::

    from repro import RunSpec, Session, telemetry

    telemetry.set_enabled(True)
    session = Session()
    session.run(RunSpec(dataset="cora", accelerator="sgcn"))
    print(telemetry.metrics.render_metrics(
        telemetry.metrics.run_metrics_document(session.metrics_snapshot())
    ))
"""

from repro.telemetry import logs, metrics
from repro.telemetry.logs import configure_logging, resolve_log_level
from repro.telemetry.metrics import (
    METRICS_SCHEMA_VERSION,
    cache_hit_ratios,
    diff_counters,
    hit_ratio,
    merge_counters,
    merge_spans,
    render_metrics,
    run_metrics_document,
    sweep_metrics_document,
    write_metrics_json,
)
from repro.telemetry.spans import (
    SpanNode,
    SpanRecorder,
    is_enabled,
    recorder,
    reset_spans,
    set_enabled,
    span,
    span_snapshot,
)

__all__ = [
    "METRICS_SCHEMA_VERSION",
    "SpanNode",
    "SpanRecorder",
    "cache_hit_ratios",
    "configure_logging",
    "diff_counters",
    "hit_ratio",
    "is_enabled",
    "logs",
    "merge_counters",
    "merge_spans",
    "metrics",
    "recorder",
    "render_metrics",
    "reset_spans",
    "resolve_log_level",
    "run_metrics_document",
    "set_enabled",
    "span",
    "span_snapshot",
    "sweep_metrics_document",
    "write_metrics_json",
]
