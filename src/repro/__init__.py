"""SGCN reproduction library.

This package reproduces the system described in "SGCN: Exploiting
Compressed-Sparse Features in Deep Graph Convolutional Network Accelerators"
(HPCA 2023).  It contains:

* ``repro.graphs`` — graph data structures and synthetic dataset generators
  calibrated to the paper's Table II.
* ``repro.gcn`` — numpy implementations of GCN layers, deep residual
  models, and intermediate-feature sparsity tooling.
* ``repro.formats`` — sparse feature formats (Dense, CSR, COO, BSR, Blocked
  Ellpack, BEICSR) as memory-traffic models.
* ``repro.memory`` — the row-cache replay model, HBM DRAM model and energy
  tables, including the vectorized trace-replay engine
  (``repro.memory.replay``) behind the trace-driven aggregation simulation.
* ``repro.accelerator`` — every accelerator as a frozen ``DesignPoint``:
  SGCN, its ablations and the GCNAX, HyGCN, AWB-GCN, EnGN and I-GCN
  baselines, named by a fixed table (``get_design``), plus the phase
  pipeline that simulates any point, built-in or derived.
* ``repro.core`` — configuration dataclasses, the canonical
  ``RunSpec``/``Session`` API, the classic ``simulate()`` shims, and
  result containers.
* ``repro.experiments`` — declarative experiment sweeps: scenario/sweep
  specs, a parallel runner with result caching, paper-figure scenario
  packs, and the ``python -m repro`` CLI.
* ``repro.bench`` — the ``repro bench`` performance harness timing the
  scenario packs (and grouped spectrum vs per-knob dispatch) and recording
  ``BENCH_*.json`` trajectory documents.
* ``repro.resilience`` — deterministic fault injection, retry/timeout
  execution policies, sweep checkpointing, and graceful degradation for
  long sweeps.

Quickstart::

    from repro import RunSpec, Session

    session = Session()
    result = session.run(RunSpec(dataset="cora", accelerator="sgcn"))
    print(result.total_cycles, result.dram_traffic_bytes)

or, with the classic one-shot helpers::

    from repro import simulate, load_dataset, SystemConfig

    dataset = load_dataset("cora")
    result = simulate(dataset, accelerator="sgcn", config=SystemConfig())
    print(result.total_cycles, result.dram_traffic_bytes)
"""

from __future__ import annotations

from repro.core.config import (
    CacheConfig,
    DRAMConfig,
    EngineConfig,
    SystemConfig,
)
from repro.accelerator.design import DESIGN_KNOBS, DesignPoint
from repro.accelerator.registry import get_design
from repro.core.runspec import RunSpec, SUPPORTED_OVERRIDES, build_config
from repro.core.session import Session, default_session, reset_default_session
from repro.gcn.providers import (
    SPARSITY_MODES,
    MeasuredSparsityProvider,
    SparsityProvider,
    SyntheticSparsityProvider,
    make_sparsity_provider,
)
from repro.memory.replay import ReplayEngine, TraceCache, replay_trace
from repro.core.api import simulate, compare_accelerators, available_accelerators
from repro.core.results import LayerResult, SimulationResult, ComparisonResult
from repro.experiments.runner import RunOutcome, SweepReport, SweepRunner, run_scenario
from repro.experiments.scenarios import available_packs, get_pack
from repro.experiments.spec import Scenario, SweepSpec
from repro.experiments.store import ResultStore
from repro.graphs.datasets import load_dataset, available_datasets
from repro import telemetry
from repro.resilience import (
    ExecutionPolicy,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SweepCheckpoint,
    TimeoutPolicy,
    faults_scope,
    load_fault_plan,
)
from repro.errors import (
    ConfigurationError,
    DatasetError,
    FaultInjectionError,
    FormatError,
    GraphError,
    ReproError,
    RunTimeoutError,
    SimulationError,
    SparsityHarvestError,
)

__version__ = "1.0.0"


def __getattr__(name):
    # Lazy export: the bench harness drags in timing machinery that plain
    # `import repro` users (and the CI import smoke) should not pay for.
    if name == "run_benchmarks":
        from repro.bench import run_benchmarks

        return run_benchmarks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DESIGN_KNOBS",
    "DesignPoint",
    "get_design",
    "CacheConfig",
    "DRAMConfig",
    "EngineConfig",
    "SystemConfig",
    "RunSpec",
    "SUPPORTED_OVERRIDES",
    "build_config",
    "Session",
    "default_session",
    "reset_default_session",
    "SPARSITY_MODES",
    "SparsityProvider",
    "SyntheticSparsityProvider",
    "MeasuredSparsityProvider",
    "make_sparsity_provider",
    "ReplayEngine",
    "TraceCache",
    "replay_trace",
    "run_benchmarks",
    "simulate",
    "compare_accelerators",
    "available_accelerators",
    "LayerResult",
    "SimulationResult",
    "ComparisonResult",
    "Scenario",
    "SweepSpec",
    "SweepRunner",
    "SweepReport",
    "RunOutcome",
    "ResultStore",
    "run_scenario",
    "available_packs",
    "get_pack",
    "load_dataset",
    "available_datasets",
    "telemetry",
    "ExecutionPolicy",
    "FaultPlan",
    "FaultSpec",
    "RetryPolicy",
    "SweepCheckpoint",
    "TimeoutPolicy",
    "faults_scope",
    "load_fault_plan",
    "ReproError",
    "ConfigurationError",
    "GraphError",
    "FormatError",
    "SimulationError",
    "DatasetError",
    "FaultInjectionError",
    "RunTimeoutError",
    "SparsityHarvestError",
    "__version__",
]
