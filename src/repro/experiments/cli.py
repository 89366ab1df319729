"""Command-line interface: ``python -m repro`` / the ``repro`` console script.

Subcommands:

* ``list`` — show the built-in scenario packs, datasets, and accelerators;
* ``accelerators`` — list the registered accelerators; ``--describe`` prints
  each design point's Table-I row and full knob settings;
* ``run`` — simulate one scenario and print its summary (``--set`` accepts
  both flat ``SystemConfig`` override keys and ``DesignPoint`` knob
  overrides, routed by key name; ``--sparsity measured`` swaps the synthetic
  sparsity profile for tables harvested from a trained DeepGCN);
* ``sweep`` — expand a scenario pack and run it across a worker pool with
  result caching, writing per-scenario JSON plus a merged summary CSV
  (execution is session-based: every worker keeps one
  :class:`repro.core.session.Session`, reusing datasets across scenarios);
* ``export`` — merge a directory of per-scenario JSON documents (sweep
  output or the cache store) into one CSV/JSON summary table;
* ``bench`` — time the built-in scenario packs through the trace-replay
  engine (and grouped spectrum against per-knob dispatch on replay-knob
  sweeps), and write a ``BENCH_*.json`` performance-trajectory document;
* ``stats`` — pretty-print a ``metrics.json`` telemetry document;
* ``lint`` — run the AST invariant battery.

Observability controls (see :mod:`repro.telemetry`):

* ``--profile`` on ``run``/``sweep`` records phase spans and cache counters
  and writes a schema-v1 ``metrics.json`` next to the results — simulation
  output is byte-identical with or without it;
* ``--log-level`` (or ``REPRO_LOG_LEVEL``) controls the ``repro.*`` logger
  tree; ``--quiet`` suppresses informational narration while keeping
  machine-readable output (JSON summaries, exports) on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.accelerator.design import DESIGN_KNOBS
from repro.accelerator.pipeline import GCN_VARIANTS
from repro.accelerator.registry import available_accelerators, get_design
from repro.core.session import default_session
from repro.errors import ReproError
from repro.formats.registry import available_formats, fold_name
from repro.gcn.providers import SPARSITY_MODES
from repro.experiments.runner import RunOutcome, SweepRunner, run_scenario
from repro.experiments.scenarios import available_packs, get_pack
from repro.experiments.spec import SUPPORTED_OVERRIDES, Scenario
from repro.experiments.store import (
    ResultStore,
    export_scenario_json,
    export_summary_csv,
    export_summary_json,
    load_sweep_rows,
    summary_row,
)
from repro.graphs.datasets import DATASET_SPECS, DEFAULT_NUM_LAYERS
from repro.resilience.checkpoint import CHECKPOINT_FILENAME
from repro.resilience.faults import FaultPlan, faults_scope, load_fault_plan
from repro.resilience.policy import ExecutionPolicy, RetryPolicy, TimeoutPolicy
from repro.telemetry.logs import LOG_LEVELS, configure_logging
from repro.telemetry.metrics import (
    METRICS_SCHEMA_VERSION,
    render_metrics,
    run_metrics_document,
    sweep_metrics_document,
    write_metrics_json,
)
from repro.telemetry.spans import reset_spans, set_enabled

import logging

logger = logging.getLogger("repro")


class OutputWriter:
    """One funnel for every line the CLI prints.

    Three channels with distinct routing, so ``--quiet`` and shell
    redirection behave consistently across subcommands:

    * :meth:`data` — the machine-readable payload the user asked for (JSON
      summaries, listings, rendered stats); always written, to stdout.
    * :meth:`info` — human narration (progress, footers, "wrote X" notes);
      stdout, suppressed by ``--quiet``.
    * :meth:`error` — failures; always written, to stderr.
    """

    def __init__(self) -> None:
        self.quiet = False

    def data(self, message: str = "") -> None:
        print(message)

    def info(self, message: str = "") -> None:
        if not self.quiet:
            print(message)

    def error(self, message: str = "") -> None:
        print(message, file=sys.stderr)


#: Process-wide writer behind every subcommand (configured once in main()).
OUT = OutputWriter()


# --------------------------------------------------------------------------- #
# Argument parsing
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SGCN (HPCA 2023) reproduction: experiment sweeps and exports.",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="store_true",
        help="shorthand for --log-level debug",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        choices=list(LOG_LEVELS),
        help="repro.* logger level (default: REPRO_LOG_LEVEL or info)",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress informational output (results/errors still print)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser(
        "list", help="list scenario packs, datasets, and accelerators"
    )
    list_parser.set_defaults(func=_cmd_list)

    accel_parser = subparsers.add_parser(
        "accelerators", help="list registered accelerators (designs)"
    )
    accel_parser.add_argument(
        "--describe",
        action="store_true",
        help="print each design point's Table-I row and knob settings",
    )
    accel_parser.set_defaults(func=_cmd_accelerators)

    run_parser = subparsers.add_parser("run", help="simulate one scenario")
    run_parser.add_argument("--dataset", required=True, help="dataset name")
    run_parser.add_argument(
        "--accelerator", default="sgcn", help="accelerator name (default: sgcn)"
    )
    run_parser.add_argument(
        "--variant", default="gcn", choices=list(GCN_VARIANTS), help="GCN variant"
    )
    run_parser.add_argument("--seed", type=int, default=0, help="RNG seed")
    run_parser.add_argument(
        "--max-vertices", type=int, default=2048, help="dataset scale cap"
    )
    run_parser.add_argument(
        "--layers", type=int, default=DEFAULT_NUM_LAYERS, help="GCN depth"
    )
    run_parser.add_argument(
        "--feature-format",
        default=None,
        help=(
            "replace the accelerator's native intermediate-feature format "
            f"with another format ({', '.join(available_formats())})"
        ),
    )
    run_parser.add_argument(
        "--sparsity",
        default=None,
        choices=list(SPARSITY_MODES),
        help=(
            "sparsity mode: 'synthetic' (calibrated profile, the default "
            "behaviour) or 'measured' / 'measured-traditional' (train a "
            "DeepGCN on the dataset's topology and feed its per-row/"
            "per-slice non-zero tables to the accelerator)"
        ),
    )
    run_parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help=(
            "SystemConfig override or DesignPoint knob override "
            "(repeatable; routed by key). Config keys: "
            f"{', '.join(SUPPORTED_OVERRIDES)}. Design knobs: "
            f"{', '.join(DESIGN_KNOBS)}"
        ),
    )
    run_parser.add_argument(
        "--json", action="store_true", help="print the full result as JSON"
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "record phase/cache telemetry and write a metrics.json document "
            "(simulation output is byte-identical either way)"
        ),
    )
    run_parser.add_argument(
        "--metrics-out",
        default="metrics.json",
        help="where --profile writes the metrics document (default: metrics.json)",
    )
    run_parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC.json",
        help=(
            "arm a deterministic fault plan (testing/chaos only; see "
            "repro.resilience.faults) around the run"
        ),
    )
    run_parser.set_defaults(func=_cmd_run)

    sweep_parser = subparsers.add_parser(
        "sweep", help="run a built-in scenario pack across a worker pool"
    )
    sweep_parser.add_argument(
        "pack",
        help=f"scenario pack name or 'all'; packs: {', '.join(available_packs())}",
    )
    sweep_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default: 1)"
    )
    sweep_parser.add_argument(
        "--out", default="results", help="output directory (default: results/)"
    )
    sweep_parser.add_argument(
        "--cache-dir",
        default=None,
        help="result-cache directory (default: <out>/.cache)",
    )
    sweep_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache"
    )
    sweep_parser.add_argument(
        "--max-vertices",
        type=int,
        default=None,
        help="override the pack's dataset scale cap",
    )
    sweep_parser.add_argument(
        "--dry-run",
        action="store_true",
        help="expand and validate the pack without simulating",
    )
    sweep_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: the pack's reduced-scale, tiny-grid variant",
    )
    sweep_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "record per-run phase/cache telemetry and write an aggregate "
            "metrics.json next to the results (results are byte-identical "
            "either way)"
        ),
    )
    sweep_parser.add_argument(
        "--metrics-out",
        default=None,
        help="where --profile writes the metrics document (default: <out>/metrics.json)",
    )
    sweep_parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "consult the pack's checkpoint.json and the result cache; "
            "previously completed scenarios are not re-simulated"
        ),
    )
    sweep_parser.add_argument(
        "--checkpoint-interval",
        type=int,
        default=8,
        metavar="N",
        help="flush the sweep checkpoint every N outcomes (default: 8)",
    )
    sweep_parser.add_argument(
        "--retries",
        type=int,
        default=0,
        metavar="N",
        help=(
            "retry failed runs up to N extra attempts with deterministic "
            "exponential backoff (default: 0 — fail on the first error)"
        ),
    )
    sweep_parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.05,
        metavar="SECONDS",
        help="base backoff before the first retry (default: 0.05s)",
    )
    sweep_parser.add_argument(
        "--run-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "per-run wall-clock budget: cooperative deadline at stage "
            "boundaries, plus parent-side task reclamation on worker pools"
        ),
    )
    sweep_parser.add_argument(
        "--no-degrade",
        action="store_true",
        help=(
            "fail runs instead of degrading them (no synthetic-sparsity "
            "fallback, store errors become fatal)"
        ),
    )
    sweep_parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC.json",
        help=(
            "arm a deterministic fault plan (testing/chaos only; see "
            "repro.resilience.faults) in every worker"
        ),
    )
    sweep_parser.set_defaults(func=_cmd_sweep)

    export_parser = subparsers.add_parser(
        "export", help="merge per-scenario JSON results into one summary table"
    )
    export_parser.add_argument(
        "results_dir", help="directory of per-scenario JSON documents"
    )
    export_parser.add_argument(
        "--out", required=True, help="output file (.csv or .json)"
    )
    export_parser.add_argument(
        "--format",
        choices=("csv", "json"),
        default=None,
        help="output format (default: inferred from --out suffix)",
    )
    export_parser.set_defaults(func=_cmd_export)

    bench_parser = subparsers.add_parser(
        "bench",
        help="benchmark the trace-replay engine on the built-in scenario packs",
    )
    bench_parser.add_argument(
        "packs",
        nargs="*",
        help=(
            "scenario packs to time (default: the main-comparison grid at "
            "its default scale and at 2048 vertices)"
        ),
    )
    bench_parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: the smallest pack at reduced scale, one repeat",
    )
    bench_parser.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timed repeats per case, best-of (default: 3)",
    )
    bench_parser.add_argument(
        "--max-vertices",
        type=int,
        default=None,
        help="scale cap applied to the packs named on the command line",
    )
    bench_parser.add_argument(
        "--out",
        default="BENCH_trace_engine.json",
        help="output JSON path (default: BENCH_trace_engine.json)",
    )
    bench_parser.set_defaults(func=_cmd_bench)

    lint_parser = subparsers.add_parser(
        "lint",
        help="run the AST invariant linter (see INVARIANTS.md)",
    )
    lint_parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files/directories to lint (default: src)",
    )
    lint_parser.add_argument(
        "--rule",
        dest="rules",
        action="append",
        default=[],
        metavar="RULE",
        help="only run this rule id/name (repeatable; default: the full battery)",
    )
    lint_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the versioned lint-findings JSON document instead of text",
    )
    lint_parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the active rule battery and exit",
    )
    lint_parser.set_defaults(func=_cmd_lint)

    stats_parser = subparsers.add_parser(
        "stats", help="pretty-print a metrics.json telemetry document"
    )
    stats_parser.add_argument(
        "metrics",
        nargs="?",
        default="metrics.json",
        help="metrics document to render (default: metrics.json)",
    )
    stats_parser.add_argument(
        "--json", action="store_true", help="print the raw document instead"
    )
    stats_parser.set_defaults(func=_cmd_stats)

    return parser


def _parse_overrides(pairs: Sequence[str]) -> Dict[str, object]:
    overrides: Dict[str, object] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ReproError(f"override {pair!r} is not of the form KEY=VALUE")
        key, _, raw = pair.partition("=")
        try:
            value: object = json.loads(raw)
        except ValueError:
            # JSON only accepts lowercase true/false; accept the Python
            # spellings too so --set column_product=False cannot smuggle a
            # truthy string into a boolean knob.
            lowered = raw.strip().lower()
            if lowered in ("true", "false"):
                value = lowered == "true"
            else:
                value = raw
        overrides[key.strip()] = value
    return overrides


def _route_overrides(
    pairs: Sequence[str],
) -> Tuple[Dict[str, object], Dict[str, object]]:
    """Split ``--set`` pairs into (SystemConfig overrides, design knobs).

    The two key families are disjoint, so every key routes unambiguously;
    unknown keys fail here with both families listed.
    """
    config_overrides: Dict[str, object] = {}
    design_overrides: Dict[str, object] = {}
    for key, value in _parse_overrides(pairs).items():
        if key in SUPPORTED_OVERRIDES:
            config_overrides[key] = value
        elif key in DESIGN_KNOBS:
            design_overrides[key] = value
        else:
            raise ReproError(
                f"unknown --set key {key!r}; SystemConfig keys: "
                f"{', '.join(SUPPORTED_OVERRIDES)}; design knobs: "
                f"{', '.join(DESIGN_KNOBS)}"
            )
    return config_overrides, design_overrides


def _format_eta(seconds: float) -> str:
    """Compact ``h:mm:ss`` / ``m:ss`` / ``Ns`` rendering of an ETA."""
    seconds = max(0, int(round(seconds)))
    if seconds >= 3600:
        return f"{seconds // 3600}:{(seconds % 3600) // 60:02d}:{seconds % 60:02d}"
    if seconds >= 60:
        return f"{seconds // 60}:{seconds % 60:02d}"
    return f"{seconds}s"


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _cmd_list(args: argparse.Namespace) -> int:
    OUT.data("Scenario packs:")
    for name in available_packs():
        spec = get_pack(name)
        OUT.data(f"  {name:<18} {spec.num_scenarios:>4} runs  {spec.description}")
    OUT.data()
    OUT.data(f"Datasets:     {', '.join(sorted(DATASET_SPECS))}")
    OUT.data(f"Accelerators: {', '.join(available_accelerators())}")
    OUT.data(f"Formats:      {', '.join(available_formats())}")
    OUT.data(f"Variants:     {', '.join(GCN_VARIANTS)}")
    OUT.data(f"Sparsity:     {', '.join(SPARSITY_MODES)}")
    OUT.data(f"Overrides:    {', '.join(SUPPORTED_OVERRIDES)}")
    return 0


def _cmd_accelerators(args: argparse.Namespace) -> int:
    for name in available_accelerators():
        design = get_design(name)
        if not args.describe:
            OUT.data(f"{name:<16} {design.display_name}")
            continue
        OUT.data(f"{name}:")
        for key, value in design.describe().items():
            OUT.data(f"  {key:<22} {value}")
        OUT.data("  knobs:")
        for key, value in design.to_dict().items():
            if key in ("name", "display_name"):
                continue
            OUT.data(f"    {key:<26} {value}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    config_overrides, design_overrides = _route_overrides(args.overrides)
    feature_format = args.feature_format
    # "--set feature_format=X" and "--feature-format X" describe the same
    # run; fold the former into the latter so both spellings share one
    # scenario identity.  The design axis keeps the format only when a
    # slice_size override accompanies it (the two knobs must be derived
    # together; the feature_format axis cannot carry a slice).
    if "feature_format" in design_overrides and "slice_size" not in design_overrides:
        spelled = str(design_overrides.pop("feature_format"))
        if feature_format is not None and fold_name(feature_format) != fold_name(
            spelled
        ):
            raise ReproError(
                f"--set feature_format={spelled!r} conflicts with "
                f"--feature-format {feature_format!r}"
            )
        feature_format = spelled
    scenario = Scenario(
        dataset=args.dataset,
        accelerator=args.accelerator,
        variant=args.variant,
        seed=args.seed,
        max_vertices=args.max_vertices,
        num_layers=args.layers,
        overrides=config_overrides,
        feature_format=feature_format,
        design=design_overrides or None,
        sparsity=args.sparsity,
    )
    session = default_session()
    fault_plan: Optional[FaultPlan] = None
    if args.inject_faults is not None:
        fault_plan = load_fault_plan(args.inject_faults)
        OUT.info(f"armed fault plan from {args.inject_faults}")
    previous_enabled: Optional[bool] = None
    if args.profile:
        previous_enabled = set_enabled(True)
        reset_spans()
    try:
        with faults_scope(fault_plan):
            result = run_scenario(scenario, session=session)
    finally:
        if args.profile:
            document = run_metrics_document(
                session.metrics_snapshot(), scenario_id=scenario.scenario_id
            )
            set_enabled(previous_enabled)
            reset_spans()
    if args.profile:
        write_metrics_json(args.metrics_out, document)
        OUT.info(f"wrote {args.metrics_out}")
    if args.json:
        OUT.data(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        OUT.data(json.dumps(summary_row(scenario, result), indent=2))
    return 0


def _resolve_packs(
    name: str, max_vertices: Optional[int], quick: bool = False
) -> List:
    if name.strip().lower() == "all":
        return [
            get_pack(pack, max_vertices=max_vertices, quick=quick)
            for pack in available_packs()
        ]
    return [get_pack(name, max_vertices=max_vertices, quick=quick)]


def _cmd_sweep(args: argparse.Namespace) -> int:
    specs = _resolve_packs(args.pack, args.max_vertices, quick=args.quick)

    if args.dry_run:
        total = 0
        for spec in specs:
            scenarios = spec.expand()
            total += len(scenarios)
            OUT.data(f"{spec.name}: {len(scenarios)} scenarios (validated)")
            for scenario in scenarios[:3]:
                OUT.data(f"  {scenario.scenario_id}  {scenario.label()}")
            if len(scenarios) > 3:
                OUT.data(f"  ... {len(scenarios) - 3} more")
        OUT.data(
            f"total: {total} scenarios across {len(specs)} pack(s); nothing simulated"
        )
        return 0

    out_root = Path(args.out)
    store: Optional[ResultStore] = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else out_root / ".cache"
        store = ResultStore(cache_dir)

    retry: Optional[RetryPolicy] = None
    if args.retries > 0:
        retry = RetryPolicy(
            max_attempts=args.retries + 1, backoff_base_s=args.retry_backoff
        )
    timeout: Optional[TimeoutPolicy] = None
    if args.run_timeout is not None:
        timeout = TimeoutPolicy(run_timeout_s=args.run_timeout)
    policy = ExecutionPolicy(retry=retry, timeout=timeout, degrade=not args.no_degrade)
    faults: Optional[FaultPlan] = None
    if args.inject_faults is not None:
        faults = load_fault_plan(args.inject_faults)
        OUT.info(f"armed fault plan from {args.inject_faults}")

    exit_code = 0
    sweep_documents: List[Dict[str, object]] = []
    for spec in specs:
        scenarios = spec.expand()
        pack_dir = out_root / spec.name
        runner = SweepRunner(
            store=store,
            workers=args.workers,
            profile=args.profile,
            policy=policy,
            faults=faults,
            checkpoint_path=str(pack_dir / CHECKPOINT_FILENAME),
            checkpoint_interval=args.checkpoint_interval,
            resume=args.resume,
        )
        OUT.info(
            f"sweep {spec.name}: {len(scenarios)} scenarios, "
            f"{args.workers} worker(s), out={pack_dir}"
        )
        pack_started = time.perf_counter()  # repro: noqa[N1] progress-line ETA only; never enters results

        def progress(outcome: RunOutcome, finished: int, total: int) -> None:
            if outcome.cached:
                status = "cached"
            elif not outcome.ok:
                status = "TIMEOUT" if outcome.timed_out else "FAILED"
            elif outcome.degraded:
                status = "degraded"
            else:
                status = "ok"
            elapsed = time.perf_counter() - pack_started  # repro: noqa[N1] progress-line ETA only; never enters results
            if 0 < finished < total and elapsed > 0:
                eta = f"  eta {_format_eta(elapsed / finished * (total - finished))}"
            else:
                eta = ""
            OUT.info(
                f"  [{finished:>{len(str(total))}}/{total}] "
                f"{status:<8} {outcome.scenario.label()}{eta}"
            )

        report = runner.run(scenarios, progress=progress)

        rows = []
        for outcome in report.successes():
            export_scenario_json(pack_dir, outcome.scenario, outcome.result)
            row = summary_row(outcome.scenario, outcome.result)
            if args.profile:
                # Wall-clock fields are only emitted under --profile so that
                # default summary.csv files stay byte-identical across worker
                # counts and reruns (the determinism invariant cmp-checked in
                # the verify flow).
                row["sweep_elapsed_seconds"] = round(report.elapsed_seconds, 6)
                row["sweep_runs_per_second"] = round(report.runs_per_second, 6)
            rows.append(row)
        if rows:
            csv_path = export_summary_csv(pack_dir / "summary.csv", rows)
            export_summary_json(pack_dir / "summary.json", rows)
            OUT.info(f"  wrote {len(rows)} scenario JSON files and {csv_path}")
        footer = (
            f"  done in {report.elapsed_seconds:.1f}s "
            f"({report.runs_per_second:.2f} runs/s): "
            f"{report.num_simulated} simulated, "
            f"{report.num_cached} cache hits, {report.num_failed} failed"
        )
        if report.num_degraded:
            footer += f", {report.num_degraded} degraded"
        if report.num_timed_out:
            footer += f", {report.num_timed_out} timed out"
        if report.num_retried:
            footer += f", {report.num_retried} retried"
        OUT.info(footer)
        if args.profile:
            sweep_documents.append(report.metrics_document(pack=spec.name))
        for outcome in report.failures:
            OUT.error(f"  FAILED {outcome.scenario.label()}:")
            OUT.error(outcome.traceback or outcome.error or "")
            exit_code = 1
    if args.profile:
        metrics_path = (
            Path(args.metrics_out) if args.metrics_out else out_root / "metrics.json"
        )
        write_metrics_json(metrics_path, sweep_metrics_document(sweep_documents))
        OUT.info(f"wrote {metrics_path}")
    return exit_code


def _cmd_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the bench harness drags in the whole simulation stack.
    from repro.bench import DEFAULT_REPEATS, run_benchmarks

    cases = None
    if args.packs:
        cases = [(name, args.max_vertices) for name in args.packs]
    document = run_benchmarks(
        cases=cases,
        repeats=args.repeats if args.repeats is not None else DEFAULT_REPEATS,
        quick=args.quick,
        out=args.out,
    )
    for entry in document["results"]:
        scale = entry["max_vertices"] if entry["max_vertices"] else "default"
        pack_label = entry["pack"] + (
            " (quick)" if entry.get("quick_pack") else ""
        )
        if entry.get("sensitivity"):
            # Sensitivity protocol: per-knob dispatch vs grouped spectrum
            # dispatch, both on the vectorized engine.
            line = (
                f"{pack_label:<18} scale={scale:<8} runs={entry['runs']:<4} "
                f"per-knob={entry['vectorized_s']:.3f}s  "
                f"spectrum={entry['spectrum_s']:.3f}s  "
                f"speedup={entry['spectrum_speedup']:.2f}x  "
                f"classes={entry['replay_classes']}"
            )
            OUT.data(line)
            continue
        OUT.data(
            f"{pack_label:<18} scale={scale:<8} runs={entry['runs']:<4} "
            f"vectorized={entry['vectorized_s']:.3f}s"
        )
    summary = document["summary"]
    OUT.data(f"overall: {summary['total_vectorized_s']:.3f}s")
    if summary.get("min_spectrum_speedup") is not None:
        OUT.data(
            f"spectrum dispatch: min {summary['min_spectrum_speedup']:.2f}x "
            "over per-knob dispatch"
        )
    OUT.info(f"wrote {args.out}")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    rows = load_sweep_rows(args.results_dir)
    out = Path(args.out)
    fmt = args.format or ("json" if out.suffix.lower() == ".json" else "csv")
    if fmt == "csv":
        path = export_summary_csv(out, rows)
    else:
        path = export_summary_json(out, rows)
    OUT.info(f"exported {len(rows)} rows to {path}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the linter is a dev-facing tool; keep `repro run`
    # startup free of it.
    from repro.analysis import (
        findings_document,
        get_rules,
        render_findings,
        render_summary,
        run_lint,
    )

    rules = get_rules(args.rules or None)
    if args.list_rules:
        for rule in rules:
            OUT.data(f"{rule.rule_id:<4} {rule.name:<34} {rule.summary}")
        return 0
    report = run_lint(list(args.paths), rules=rules)
    if args.json:
        OUT.data(json.dumps(findings_document(report), indent=2, sort_keys=True))
    else:
        for line in render_findings(report):
            OUT.data(line)
        OUT.info(render_summary(report))
    return 0 if report.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    path = Path(args.metrics)
    if not path.is_file():
        raise ReproError(
            f"no metrics document at {path}; produce one with "
            "`repro run --profile` or `repro sweep --profile`"
        )
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ReproError(f"unreadable metrics document {path}: {exc}") from exc
    if not isinstance(document, dict):
        raise ReproError(f"{path} is not a metrics document (expected an object)")
    version = document.get("schema_version")
    if version != METRICS_SCHEMA_VERSION:
        logger.warning(
            "metrics document %s has schema version %r (this build renders v%d)",
            path,
            version,
            METRICS_SCHEMA_VERSION,
        )
    if args.json:
        OUT.data(json.dumps(document, indent=2, sort_keys=True))
    else:
        OUT.data(render_metrics(document))
    return 0


# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    level = args.log_level
    if level is None and args.verbose:
        level = "debug"
    try:
        configure_logging(level)
    except ValueError as exc:  # unreachable via argparse choices; env handled inside
        OUT.error(f"error: {exc}")
        return 2
    OUT.quiet = args.quiet
    try:
        return int(args.func(args))
    except BrokenPipeError:
        # Downstream closed the pipe (e.g. `repro stats | head`): exit
        # quietly like a well-behaved filter.  Stdout is re-pointed at
        # /dev/null so the interpreter's shutdown flush cannot raise again.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ReproError as exc:
        OUT.error(f"error: {exc}")
        return 2


__all__ = ["OutputWriter", "build_parser", "main"]
