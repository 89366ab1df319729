"""Parallel sweep execution.

:class:`SweepRunner` turns a list of :class:`~repro.experiments.spec.Scenario`
objects into :class:`RunOutcome` records:

* cached scenarios are answered from the :class:`ResultStore` without
  touching the worker pool (incremental re-runs are near-no-ops);
* the remaining scenarios are grouped one topology per task
  (:func:`repro.core.session.topology_tasks`: every replay class of one
  ``(dataset, max_vertices, seed)``) and run in-process in that order, or on
  a ``multiprocessing`` pool longest predicted task first, with at most one
  ``apply_async`` task per worker in flight; completions wake the parent
  through a queue.  Scenarios cross the process boundary as ``to_dict()``
  documents and each run comes back as a frozen :class:`RunPayload` record;
* each worker run is wrapped in its own try/except, so one failing scenario
  reports an error outcome instead of killing the sweep.

Serial and pool paths share one executor (:func:`_execute_payload`), so both
produce equal :class:`RunPayload` records: the result travels as its
``to_dict()`` document, so the parent reconstructs identical
:class:`SimulationResult` objects whether a run happened in-process
(``workers=1``) or in a worker; a failure travels as a :class:`RunError`
with its traceback; and under ``profile=True`` each run carries its own
:class:`~repro.telemetry.metrics.TelemetryDelta` (span tree + cache-counter
changes).  The parent merges the per-run deltas into the sweep aggregate
exposed by :meth:`SweepReport.metrics_document`; records become dictionaries
only where ``metrics.json`` and ``checkpoint.json`` are written.

Failure handling is declarative (:mod:`repro.resilience`): an
:class:`~repro.resilience.policy.ExecutionPolicy` governs per-run retries
(deterministic backoff), wall-clock budgets (cooperative deadline in the
worker, reclamation of overdue pool tasks in the parent), and graceful
degradation (measured-sparsity fallback, store failures downgraded to
misses).  A SIGKILLed pool worker is detected through the pool's pid set;
its in-flight scenarios are re-dispatched on the serial path instead of
hanging the sweep.
An optional :class:`~repro.resilience.checkpoint.SweepCheckpoint` records
per-scenario accounting so ``--resume`` can skip completed work.

Everything the simulation depends on is seeded from the scenario, so serial
and parallel sweeps of the same spec produce identical summaries.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.core.results import SimulationResult
from repro.core.session import (
    Session,
    TopologyTask,
    default_session,
    topology_tasks,
)
from repro.errors import ConfigurationError, RunTimeoutError
from repro.experiments.spec import Scenario
from repro.experiments.store import ResultStore
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.faults import (
    FaultPlan,
    active_faults,
    arm_faults,
    disarm_faults,
    fault_point,
)
from repro.resilience.policy import ExecutionPolicy, deadline_scope, policy_scope
from repro.telemetry.metrics import (
    TelemetryDelta,
    cache_hit_ratios,
    diff_counters,
    merge_counters,
    merge_spans,
)
from repro.telemetry.spans import reset_spans, set_enabled, span_snapshot

logger = logging.getLogger(__name__)

ProgressCallback = Callable[["RunOutcome", int, int], None]


@dataclass(frozen=True)
class RunError:
    """A failed run's exception, as it crosses the process boundary."""

    type: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(cls, exc: BaseException) -> "RunError":
        return cls(
            type=type(exc).__name__,
            message=str(exc),
            traceback="".join(
                traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
        )


@dataclass(frozen=True)
class RunPayload:
    """What executing one scenario sends back to the sweep (serial or pool).

    Exactly one of ``result`` (the run's ``to_dict()`` document) and
    ``error`` is set.  ``attempts`` counts the tries under the policy's
    :class:`~repro.resilience.policy.RetryPolicy`, ``timed_out`` marks a
    final failure by a blown wall-clock budget, ``degraded`` a run that fell
    back to synthetic sparsity, and ``telemetry`` is the run's own delta
    under ``profile=True``.
    """

    result: Optional[Dict[str, Any]] = None
    error: Optional[RunError] = None
    elapsed_s: float = 0.0
    attempts: int = 1
    timed_out: bool = False
    degraded: bool = False
    telemetry: Optional[TelemetryDelta] = None


#: What a pool task delivers: the worker's ``(index, payload)`` list, or the
#: exception the pool raised in its place.
_TaskAnswer = Union[List[Tuple[int, RunPayload]], BaseException]

#: Longest the parent blocks waiting for a pool completion before it checks
#: reclamation budgets and worker deaths (seconds).
_POOL_POLL_S = 0.05


def run_scenario(
    scenario: Scenario,
    session: Optional[Session] = None,
    capacity_spectrum: Sequence[int] = (),
) -> SimulationResult:
    """Execute one scenario in the current process.

    The dataset topology, the per-row sparsity draws, and the layer-sampling
    budget are all derived from the scenario, so repeated calls are
    bit-identical.  The scenario's identity is recorded in the result's
    metadata for downstream exports.

    Args:
        scenario: The run to execute (validated against the name tables).
        session: Session to execute under; the process-wide default session
            when omitted, so repeated calls share memoized datasets.
        capacity_spectrum: Cache capacities (bytes) of the scenario's
            replay-knob class; identity-neutral, see :meth:`Session.run`.
    """
    return (session or default_session()).run(
        scenario, annotate=True, capacity_spectrum=capacity_spectrum
    )


#: Per-worker-process session, so the scenarios of one pool task reuse
#: memoized datasets (created lazily inside the worker, never inherited).
_WORKER_SESSION: Optional[Session] = None


def _worker_session() -> Session:
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        _WORKER_SESSION = Session()
    return _WORKER_SESSION


def _execute_payload(
    session: Session,
    scenario: Scenario,
    profile: bool,
    policy: Optional[ExecutionPolicy] = None,
    capacity_spectrum: Sequence[int] = (),
) -> RunPayload:
    """Run one scenario and build its :class:`RunPayload` (serial and pool path).

    Under ``profile=True`` the payload's telemetry delta (the span tree
    recorded during this run plus the change in the session's cache
    counters) is attributable to exactly this scenario, so the parent can
    merge worker telemetry without double counting.  The counters are
    snapshotted before the run, so the delta includes the trace-cache
    entries :meth:`Session.run` drops when the scenario's graph differs
    from the previous run's.

    Only ordinary :class:`Exception` is isolated: KeyboardInterrupt /
    SystemExit must still abort the sweep (especially in serial mode, where
    this runs in the main process).
    """
    if policy is None:
        policy = ExecutionPolicy()
    retry = policy.retry
    before = session.metrics_snapshot() if profile else None
    previous_enabled: Optional[bool] = None
    if profile:
        previous_enabled = set_enabled(True)
        reset_spans()
    started = time.perf_counter()  # repro: noqa[N1] run/sweep wall-clock reporting; never enters simulated results
    attempts = 0
    timed_out = False
    degraded = False
    document: Optional[Dict[str, Any]] = None
    error: Optional[RunError] = None
    telemetry: Optional[TelemetryDelta] = None
    try:
        with policy_scope(policy):
            while True:
                attempts += 1
                try:
                    fault_point("worker:execute")
                    with deadline_scope(policy.run_timeout_s):
                        result = run_scenario(
                            scenario,
                            session=session,
                            capacity_spectrum=capacity_spectrum,
                        )
                except Exception as exc:  # noqa: BLE001 — isolation is the point
                    if retry is not None and retry.should_retry(exc, attempts):
                        logger.warning(
                            "retrying %s after %s: %s (attempt %d/%d)",
                            scenario.label(),
                            type(exc).__name__,
                            exc,
                            attempts,
                            retry.max_attempts,
                        )
                        retry.sleep_before(attempts, scenario.scenario_id)
                    else:
                        timed_out = isinstance(exc, RunTimeoutError)
                        error = RunError.from_exception(exc)
                        break
                else:
                    degraded = bool(result.metadata.get("degraded", False))
                    document = result.to_dict()
                    break
    finally:
        elapsed = time.perf_counter() - started  # repro: noqa[N1] run/sweep wall-clock reporting; never enters simulated results
        if before is not None:
            telemetry = TelemetryDelta(
                spans=span_snapshot(),
                caches=diff_counters(before.caches, session.metrics_snapshot().caches),
            )
            reset_spans()
            set_enabled(previous_enabled)
    return RunPayload(
        result=document,
        error=error,
        elapsed_s=elapsed,
        attempts=attempts,
        timed_out=timed_out,
        degraded=degraded,
        telemetry=telemetry,
    )


def _worker_execute_group(
    wire: Tuple[
        List[int],
        List[Dict[str, object]],
        bool,
        Optional[Dict[str, object]],
        Optional[Dict[str, object]],
        List[List[int]],
    ]
) -> List[Tuple[int, RunPayload]]:
    """Pool entry point: run one topology's scenarios on one worker, never raise.

    ``wire`` is ``(indices, scenario dicts, profile, fault plan, policy,
    spectra)`` with one capacity spectrum per scenario.  Dispatching every
    replay class of one topology as a single task pins it to one worker
    session, so the dataset, traces, replay engines, and spectrum-seeded
    replay memo are built once instead of once per worker the classes
    happened to land on.  The worker session holds one graph's trace-cache
    entries at a time (:meth:`Session.run`), so they live for the task.
    Each scenario still produces its own :class:`RunPayload` (telemetry
    deltas, retries, and errors stay per-scenario).
    """
    indices, scenario_dicts, profile, plan_dict, policy_dict, spectra = wire
    if plan_dict is not None and active_faults() is None:
        arm_faults(FaultPlan.from_dict(plan_dict))
    policy = (
        ExecutionPolicy.from_dict(policy_dict) if policy_dict is not None else None
    )
    results: List[Tuple[int, RunPayload]] = []
    for index, scenario_dict, spectrum in zip(indices, scenario_dicts, spectra):
        started = time.perf_counter()  # repro: noqa[N1] run/sweep wall-clock reporting; never enters simulated results
        try:
            scenario = Scenario.from_dict(scenario_dict)
        except Exception as exc:  # noqa: BLE001 — a bad payload must not kill the pool
            payload = RunPayload(
                error=RunError.from_exception(exc),
                elapsed_s=time.perf_counter() - started,  # repro: noqa[N1] run/sweep wall-clock reporting; never enters simulated results
            )
            results.append((index, payload))
            continue
        results.append(
            (
                index,
                _execute_payload(
                    _worker_session(),
                    scenario,
                    profile,
                    policy,
                    capacity_spectrum=tuple(spectrum),
                ),
            )
        )
    return results


@dataclass
class RunOutcome:
    """What happened to one scenario of a sweep.

    Attributes:
        scenario: The scenario that was (or failed to be) simulated.
        result: The simulation result; ``None`` when ``error`` is set.
        error: ``"ExcType: message"`` of a failed run; ``None`` on success.
        error_type: Exception class name of a failed run.
        traceback: Full traceback text of a failed run (crosses the worker
            boundary intact, so pool failures debug like serial ones).
        cached: Whether the result came from the store without simulating.
        elapsed_s: Wall-clock seconds the run took (0 for cache hits).
        telemetry: Per-run telemetry delta when the sweep ran with
            ``profile=True``; ``None`` otherwise.
        attempts: Total execution attempts under the retry policy (1 when
            the first try settled it).
        timed_out: The run failed by exceeding its wall-clock budget (either
            cooperatively or by parent-side reclamation).
        degraded: The run completed on a fallback path (synthetic sparsity
            after a failed measured harvest); the result is valid but not
            what the scenario nominally asked for, and is never cached.
    """

    scenario: Scenario
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback: Optional[str] = None
    cached: bool = False
    elapsed_s: float = 0.0
    telemetry: Optional[TelemetryDelta] = None
    attempts: int = 1
    timed_out: bool = False
    degraded: bool = False

    @property
    def ok(self) -> bool:
        """Whether the scenario produced a result."""
        return self.result is not None


@dataclass
class SweepReport:
    """Aggregate outcome of one :meth:`SweepRunner.run` call.

    ``tasks`` is the dispatch plan of the simulated scenarios, in dispatch
    order, with member indices into ``outcomes``.
    """

    outcomes: List[RunOutcome]
    elapsed_s: float = 0.0
    store_stats: Optional[Dict[str, int]] = None
    tasks: List[TopologyTask] = field(default_factory=list)

    @property
    def num_cached(self) -> int:
        """Scenarios answered from the result cache."""
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def num_simulated(self) -> int:
        """Scenarios actually simulated this run."""
        return sum(1 for outcome in self.outcomes if outcome.ok and not outcome.cached)

    @property
    def num_failed(self) -> int:
        """Scenarios that raised inside the worker."""
        return sum(1 for outcome in self.outcomes if not outcome.ok)

    @property
    def num_degraded(self) -> int:
        """Scenarios that completed on a fallback path."""
        return sum(1 for outcome in self.outcomes if outcome.degraded)

    @property
    def num_timed_out(self) -> int:
        """Scenarios that failed by blowing their wall-clock budget."""
        return sum(1 for outcome in self.outcomes if outcome.timed_out)

    @property
    def num_retried(self) -> int:
        """Scenarios that needed more than one execution attempt."""
        return sum(1 for outcome in self.outcomes if outcome.attempts > 1)

    @property
    def failures(self) -> List[RunOutcome]:
        """The failed outcomes, in scenario order."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def successes(self) -> List[RunOutcome]:
        """The successful outcomes, in scenario order."""
        return [outcome for outcome in self.outcomes if outcome.ok]

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    @property
    def elapsed_seconds(self) -> float:
        """Wall-clock seconds of the whole sweep (including cache hits)."""
        return self.elapsed_s

    @property
    def runs_per_second(self) -> float:
        """Scenario throughput over the sweep's wall-clock (0 if instant)."""
        if self.elapsed_s <= 0:
            return 0.0
        return len(self.outcomes) / self.elapsed_s

    def phase_totals(self) -> Dict[str, Dict[str, object]]:
        """Per-run span trees merged across every profiled outcome."""
        spans: Dict[str, Dict[str, object]] = {}
        for outcome in self.outcomes:
            if outcome.telemetry is not None:
                merge_spans(spans, outcome.telemetry.spans)
        return spans

    def cache_totals(self) -> Dict[str, object]:
        """Per-run cache-counter deltas summed across profiled outcomes."""
        caches: Dict[str, object] = {}
        for outcome in self.outcomes:
            if outcome.telemetry is not None:
                merge_counters(caches, outcome.telemetry.caches)
        return caches

    def task_costs(self) -> List[Dict[str, object]]:
        """Predicted cost against measured seconds, one entry per task.

        ``measured_s`` sums the members' ``elapsed_s``, so every profiled
        sweep checks the dispatch cost model
        (:func:`repro.core.session.topology_cost`).
        """
        return [
            {
                "topology": dict(
                    zip(("dataset", "max_vertices", "seed"), task.topology)
                ),
                "members": len(task.members),
                "predicted_cost": task.predicted_cost,
                "measured_s": sum(
                    self.outcomes[index].elapsed_s for index, _ in task.members
                ),
            }
            for task in self.tasks
        ]

    def metrics_document(self, pack: Optional[str] = None) -> Dict[str, object]:
        """One sweep's aggregate block of a ``sweep-profile`` metrics document.

        Merges every outcome's telemetry delta (span trees summed node-wise,
        cache counters summed leaf-wise) and folds in the sweep-level
        run counts, throughput, and the per-task cost check
        (:meth:`task_costs`).  Feed a list of these to
        :func:`repro.telemetry.metrics.sweep_metrics_document`.

        Only a serial sweep's ``caches`` counters are reproducible.  Pool
        workers each count their own cache traffic, and which worker runs
        which task varies from run to run, so pooled hit, miss, eviction
        and route counts vary with it.
        """
        caches = self.cache_totals()
        if self.store_stats is not None:
            caches = dict(caches)
            caches["store"] = dict(self.store_stats)
        document: Dict[str, object] = {
            "total_runs": len(self.outcomes),
            "simulated": self.num_simulated,
            "cached": self.num_cached,
            "failed": self.num_failed,
            "degraded": self.num_degraded,
            "timed_out": self.num_timed_out,
            "retried": self.num_retried,
            "elapsed_seconds": self.elapsed_s,
            "runs_per_second": self.runs_per_second,
            "spans": self.phase_totals(),
            "caches": caches,
            "cache_hit_ratios": cache_hit_ratios(caches),
            "tasks": self.task_costs(),
        }
        if pack is not None:
            document["pack"] = pack
        return document


class _InFlight:
    """Parent-side bookkeeping for one dispatched pool task.

    ``members`` holds the task's ``(index, capacity spectrum)`` pairs
    (:attr:`TopologyTask.members`).
    """

    __slots__ = ("members", "dispatched_at")

    def __init__(
        self, members: List[Tuple[int, Tuple[int, ...]]], dispatched_at: float
    ) -> None:
        self.members = members
        self.dispatched_at = dispatched_at


def _pool_pids(pool: "multiprocessing.pool.Pool") -> Set[int]:
    """Current worker pids of ``pool`` (private API, read defensively)."""
    processes = getattr(pool, "_pool", None) or ()
    return {process.pid for process in processes if process.pid is not None}


class SweepRunner:
    """Execute scenarios across a worker pool with result caching.

    Args:
        store: Optional :class:`ResultStore`; when given, hits skip the pool
            and fresh results are written back.
        workers: Worker processes; ``1`` runs everything in-process (no pool
            unless ``force_pool``).
        mp_context: ``multiprocessing`` start method (``"fork"``/``"spawn"``);
            platform default when omitted.
        profile: Record per-run telemetry (phase spans + cache-counter
            deltas) into each :class:`RunOutcome`; the aggregate is exposed
            by :meth:`SweepReport.metrics_document`.  Results are
            byte-identical with profiling on or off.
        policy: Failure-handling contract (retries, wall-clock budget,
            degradation); the default :class:`ExecutionPolicy` means one
            attempt, no budget, degradation allowed.
        faults: Optional :class:`FaultPlan` armed around execution — in each
            worker process on the pool path, around the loop on the serial
            path.  ``None`` (production) leaves the hooks on their null
            fast path.
        checkpoint_path: Where to flush the sweep's
            :class:`SweepCheckpoint`; ``None`` disables checkpointing.
        checkpoint_interval: Outcomes between checkpoint flushes.
        resume: Consult an existing checkpoint at ``checkpoint_path`` and
            report previously completed scenarios (their results are
            answered by the store as cache hits); failed/degraded/missing
            scenarios re-execute.
        force_pool: Use the pool path even for one worker (chaos tests need
            a killable single-worker pool).
        worker_grace_s: After a worker death is detected, how long still
            in-flight tasks may finish before they are presumed lost and
            re-dispatched serially.

    Pending scenarios are dispatched one topology per task
    (:func:`repro.core.session.topology_tasks`), in order of first
    appearance on the serial path and longest predicted task first on the
    pool, where a topology larger than its fair share of the pool is split
    into its replay classes.  A task executes back to back on one session —
    the whole task on one pool worker — so the dataset and the
    trace/schedule/replay structures build once per topology, and each
    capacity-sweep replay class answers its spectrum in a single replay
    evaluation.  The session drops a topology's traces and engines when a
    run's graph differs from the previous run's (:meth:`Session.run`, the
    rule every session follows), so replay memory is held for one topology
    at a time.  The serial path runs tasks in the order
    :meth:`Session.run_many` does.  Results, checkpointing, and per-scenario
    telemetry do not depend on the tasks; only the execution order does.
    """

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        workers: int = 1,
        mp_context: Optional[str] = None,
        profile: bool = False,
        policy: Optional[ExecutionPolicy] = None,
        faults: Optional[FaultPlan] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_interval: int = 8,
        resume: bool = False,
        force_pool: bool = False,
        worker_grace_s: float = 5.0,
    ) -> None:
        if workers < 1:
            raise ConfigurationError("workers must be at least 1")
        if checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be at least 1")
        if worker_grace_s < 0:
            raise ConfigurationError("worker_grace_s must be >= 0")
        self.store = store
        self.workers = workers
        self.mp_context = mp_context
        self.profile = profile
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.faults = faults
        self.checkpoint_path = checkpoint_path
        self.checkpoint_interval = checkpoint_interval
        self.resume = resume
        self.force_pool = force_pool
        self.worker_grace_s = worker_grace_s

    # ------------------------------------------------------------------ #
    def run(
        self,
        scenarios: Sequence[Scenario],
        progress: Optional[ProgressCallback] = None,
    ) -> SweepReport:
        """Run every scenario and return a :class:`SweepReport`.

        Outcomes are returned in the order of ``scenarios`` regardless of
        worker completion order.  ``progress`` (if given) is called once per
        finished scenario with ``(outcome, finished_count, total)``.
        """
        started = time.perf_counter()  # repro: noqa[N1] run/sweep wall-clock reporting; never enters simulated results
        total = len(scenarios)
        outcomes: List[Optional[RunOutcome]] = [None] * total
        finished = 0

        checkpoint: Optional[SweepCheckpoint] = None
        if self.checkpoint_path is not None:
            if self.resume:
                document = SweepCheckpoint.load(self.checkpoint_path)
                prior = SweepCheckpoint.completed_ids(document)
                if prior:
                    logger.info(
                        "resuming: checkpoint lists %d completed scenario(s)",
                        len(prior),
                    )
            checkpoint = SweepCheckpoint(
                self.checkpoint_path, total, self.checkpoint_interval
            )

        def record(index: int, outcome: RunOutcome) -> None:
            nonlocal finished
            if outcomes[index] is not None:
                # A task presumed lost (worker death / reclamation) was
                # re-run, and the original completion surfaced later; the
                # results are deterministic, so the first one stands.
                logger.info(
                    "ignoring duplicate completion of %s",
                    outcome.scenario.scenario_id,
                )
                return
            outcomes[index] = outcome
            finished += 1
            if checkpoint is not None:
                self._checkpoint_outcome(checkpoint, outcome)
            if progress is not None:
                progress(outcome, finished, total)

        pending: List[Tuple[int, Scenario]] = []
        for index, scenario in enumerate(scenarios):
            cached = self._store_get(scenario)
            if cached is not None:
                logger.info("cache hit: %s [%s]", scenario.label(), scenario.scenario_id)
                record(index, RunOutcome(scenario=scenario, result=cached, cached=True))
            else:
                pending.append((index, scenario))

        tasks = [
            task._replace(
                members=[
                    (pending[position][0], spectrum)
                    for position, spectrum in task.members
                ]
            )
            for task in topology_tasks(
                [scenario for _, scenario in pending], workers=self.workers
            )
        ]
        if tasks:
            if self.workers == 1 and not self.force_pool:
                self._run_serial(tasks, scenarios, record)
            else:
                # Longest first (stable: ties keep first appearance), so
                # short tasks fill in behind the long ones.
                tasks.sort(key=lambda task: -task.predicted_cost)
                self._run_pool(tasks, scenarios, record)

        if checkpoint is not None:
            checkpoint.flush()
        assert all(outcome is not None for outcome in outcomes)
        return SweepReport(
            outcomes=[outcome for outcome in outcomes if outcome is not None],
            elapsed_s=time.perf_counter() - started,  # repro: noqa[N1] run/sweep wall-clock reporting; never enters simulated results
            store_stats=self.store.stats() if self.store is not None else None,
            tasks=tasks,
        )

    # ------------------------------------------------------------------ #
    def _checkpoint_outcome(
        self, checkpoint: SweepCheckpoint, outcome: RunOutcome
    ) -> None:
        scenario_id = outcome.scenario.scenario_id
        if outcome.ok:
            if outcome.degraded:
                status = "degraded"
            elif outcome.cached:
                status = "cached"
            else:
                status = "ok"
            checkpoint.record_success(
                scenario_id,
                status=status,
                attempts=outcome.attempts,
                telemetry=outcome.telemetry,
            )
        else:
            checkpoint.record_failure(
                scenario_id,
                error_type=outcome.error_type or "Exception",
                error=outcome.error or "",
                attempts=outcome.attempts,
                timed_out=outcome.timed_out,
                telemetry=outcome.telemetry,
            )

    def _store_get(self, scenario: Scenario) -> Optional[SimulationResult]:
        """Store lookup that degrades to a miss instead of failing the sweep."""
        if self.store is None:
            return None
        try:
            return self.store.get(scenario)
        except Exception as exc:  # noqa: BLE001 — a broken cache must not kill the sweep
            if not self.policy.degrade:
                raise
            logger.warning(
                "result store get failed for %s (%s); treating as a miss",
                scenario.scenario_id,
                exc,
            )
            return None

    def _store_put(self, scenario: Scenario, result: SimulationResult) -> None:
        """Store write that degrades to uncached instead of failing the sweep."""
        if self.store is None:
            return
        try:
            self.store.put(scenario, result)
        except Exception as exc:  # noqa: BLE001 — a broken cache must not kill the sweep
            if not self.policy.degrade:
                raise
            logger.warning(
                "result store put failed for %s (%s); result stays uncached",
                scenario.scenario_id,
                exc,
            )

    # ------------------------------------------------------------------ #
    def _finish(
        self,
        index: int,
        scenario: Scenario,
        payload: RunPayload,
        record: Callable[[int, RunOutcome], None],
    ) -> None:
        error = payload.error
        if error is None:
            result = SimulationResult.from_dict(payload.result)
            if not payload.degraded:
                # A degraded result is a valid answer to *this* sweep but
                # not to the scenario's nominal identity; caching it would
                # serve the fallback to future non-degraded requests.
                self._store_put(scenario, result)
            record(
                index,
                RunOutcome(
                    scenario=scenario,
                    result=result,
                    elapsed_s=payload.elapsed_s,
                    telemetry=payload.telemetry,
                    attempts=payload.attempts,
                    timed_out=payload.timed_out,
                    degraded=payload.degraded,
                ),
            )
        else:
            summary = f"{error.type}: {error.message}" if error.message else error.type
            logger.error(
                "scenario %s failed:\n%s", scenario.label(), error.traceback or summary
            )
            record(
                index,
                RunOutcome(
                    scenario=scenario,
                    error=summary,
                    error_type=error.type,
                    traceback=error.traceback or None,
                    elapsed_s=payload.elapsed_s,
                    telemetry=payload.telemetry,
                    attempts=payload.attempts,
                    timed_out=payload.timed_out,
                ),
            )

    def _run_serial(
        self,
        tasks: Sequence[TopologyTask],
        scenarios: Sequence[Scenario],
        record: Callable[[int, RunOutcome], None],
    ) -> None:
        """Run the pending tasks in-process through one shared session.

        Each scenario goes through the same :func:`_execute_payload` path as
        a pool worker, so serial and parallel sweeps produce equal
        :class:`RunPayload` records.  KeyboardInterrupt/SystemExit propagate
        and abort the sweep.
        """
        session = Session()
        token = arm_faults(self.faults) if self.faults is not None else None
        try:
            for task in tasks:
                for index, spectrum in task.members:
                    payload = _execute_payload(
                        session,
                        scenarios[index],
                        self.profile,
                        self.policy,
                        capacity_spectrum=spectrum,
                    )
                    self._finish(index, scenarios[index], payload, record)
        finally:
            if token is not None:
                disarm_faults(token)

    def _finish_task(
        self,
        task: _InFlight,
        answer: _TaskAnswer,
        scenarios: Sequence[Scenario],
        record: Callable[[int, RunOutcome], None],
    ) -> None:
        """Record every member of a completed pool task.

        ``answer`` is the worker's ``(index, payload)`` list, or the
        exception the pool delivered instead (e.g. an unpicklable result),
        which fails every member.
        """
        if isinstance(answer, BaseException):
            failed = RunPayload(
                error=RunError.from_exception(answer),
                elapsed_s=time.monotonic() - task.dispatched_at,  # repro: noqa[N1] pool dispatch bookkeeping; never enters simulated results
            )
            payloads = {index: failed for index, _ in task.members}
        else:
            payloads = dict(answer)
        missing = RunPayload(
            error=RunError("RuntimeError", "worker returned no payload for this scenario")
        )
        for index, _ in task.members:
            self._finish(
                index, scenarios[index], payloads.get(index, missing), record
            )

    def _run_pool(
        self,
        tasks: Sequence[TopologyTask],
        scenarios: Sequence[Scenario],
        record: Callable[[int, RunOutcome], None],
    ) -> None:
        """Windowed ``apply_async`` dispatch with reclamation and death watch.

        Tasks go out in order, at most ``workers`` in flight; a task is one
        topology (or one replay class of a topology split for balance), so
        its scenarios share one worker session.  Each task's
        ``callback``/``error_callback`` puts ``(task key, answer)`` on a
        queue, so the parent wakes on whichever task finishes first and
        refills that worker at once; the answer travels on the queue because
        the callback runs before the task's ``AsyncResult`` reports ready.
        The parent blocks at most :data:`_POOL_POLL_S` per wait, so three
        things can happen to a task: it completes (normal path); it exceeds
        the policy's reclamation budget, scaled by its scenario count (every
        member recorded as a timed-out failure — also members the worker had
        finished, since a task's answers come back together — and the pool
        is terminated at the end rather than joined); or its worker dies
        (pid-set change) —
        after ``worker_grace_s`` every task still in flight is presumed lost
        and re-dispatched on the serial path, so a SIGKILLed worker costs a
        re-run, never a hung or incomplete sweep.  A completion that
        arrives after its task was reclaimed or presumed lost is ignored.
        """
        todo = deque(tasks)
        workers = min(self.workers, len(todo))
        context = multiprocessing.get_context(self.mp_context)
        plan_dict = self.faults.to_dict() if self.faults is not None else None
        policy_dict = self.policy.to_dict()
        reclaim_s: Optional[float] = None
        if self.policy.timeout is not None:
            reclaim_s = self.policy.timeout.reclaim_timeout_s
        completions: "queue.SimpleQueue[Tuple[int, _TaskAnswer]]"
        completions = queue.SimpleQueue()
        lost: List[Tuple[int, Tuple[int, ...]]] = []
        reclaimed = False
        pool = context.Pool(processes=workers)
        try:
            in_flight: Dict[int, _InFlight] = {}
            known_pids = _pool_pids(pool)
            death_detected_at: Optional[float] = None
            while todo or in_flight:
                while todo and len(in_flight) < workers:
                    members = todo.popleft().members
                    key = members[0][0]
                    wire = (
                        [index for index, _ in members],
                        [scenarios[index].to_dict() for index, _ in members],
                        self.profile,
                        plan_dict,
                        policy_dict,
                        [list(spectrum) for _, spectrum in members],
                    )
                    in_flight[key] = _InFlight(
                        members,
                        time.monotonic(),  # repro: noqa[N1] pool dispatch bookkeeping; never enters simulated results
                    )
                    pool.apply_async(
                        _worker_execute_group,
                        (wire,),
                        callback=lambda answer, key=key: completions.put((key, answer)),
                        error_callback=lambda exc, key=key: completions.put((key, exc)),
                    )
                # Take every completion already queued before the budget
                # and death checks below, so none is reclaimed or presumed
                # lost while its answer sits in the queue.
                answers: List[Tuple[int, _TaskAnswer]] = []
                try:
                    answers.append(completions.get(timeout=_POOL_POLL_S))
                    while True:
                        answers.append(completions.get_nowait())
                except queue.Empty:
                    pass
                for key, answer in answers:
                    done = in_flight.pop(key, None)
                    if done is not None:
                        self._finish_task(done, answer, scenarios, record)
                now = time.monotonic()  # repro: noqa[N1] pool dispatch bookkeeping; never enters simulated results
                for key in list(in_flight):
                    task = in_flight[key]
                    budget = (
                        reclaim_s * len(task.members) if reclaim_s is not None else None
                    )
                    if budget is None or now - task.dispatched_at < budget:
                        continue
                    del in_flight[key]
                    reclaimed = True
                    for index, _ in task.members:
                        scenario = scenarios[index]
                        logger.warning(
                            "reclaiming %s: no result within %.1fs",
                            scenario.scenario_id,
                            budget,
                        )
                        self._finish(
                            index,
                            scenario,
                            RunPayload(
                                error=RunError(
                                    "RunTimeoutError",
                                    "worker produced no result within "
                                    f"{budget:.1f}s; task reclaimed",
                                ),
                                elapsed_s=now - task.dispatched_at,
                                timed_out=True,
                            ),
                            record,
                        )
                pids = _pool_pids(pool)
                if pids != known_pids:
                    logger.warning(
                        "pool worker death detected (pids %s -> %s)",
                        sorted(known_pids),
                        sorted(pids),
                    )
                    known_pids = pids
                    if death_detected_at is None:
                        death_detected_at = now
                if death_detected_at is not None:
                    if not in_flight:
                        death_detected_at = None
                    elif now - death_detected_at >= self.worker_grace_s:
                        for task in in_flight.values():
                            lost.extend(task.members)
                        in_flight.clear()
                        logger.warning(
                            "presuming %d in-flight scenario(s) lost to worker "
                            "death; will re-run serially",
                            len(lost),
                        )
                        death_detected_at = None
        finally:
            if reclaimed or lost:
                # An abandoned task never leaves the pool's result cache, so
                # the result-handler thread (and therefore join) would wait
                # on it forever; tear the pool down instead.
                pool.terminate()
            else:
                pool.close()
            pool.join()
        if lost:
            session = Session()
            for index, spectrum in lost:
                scenario = scenarios[index]
                logger.warning(
                    "re-running %s serially after worker death", scenario.scenario_id
                )
                payload = _execute_payload(
                    session,
                    scenario,
                    self.profile,
                    self.policy,
                    capacity_spectrum=spectrum,
                )
                self._finish(index, scenario, payload, record)


__all__ = [
    "RunError",
    "RunOutcome",
    "RunPayload",
    "SweepReport",
    "SweepRunner",
    "run_scenario",
]
