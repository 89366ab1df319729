"""Chaos suite: the sweep runner under injected faults, budgets, and resume."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import SweepRunner, run_scenario
from repro.experiments.spec import Scenario
from repro.experiments.store import ResultStore
from repro.resilience.checkpoint import SweepCheckpoint
from repro.resilience.faults import FaultPlan, FaultSpec, faults_scope
from repro.resilience.policy import ExecutionPolicy, RetryPolicy, TimeoutPolicy

TINY = dict(max_vertices=64, num_layers=4)

#: Retry quickly: chaos tests should not sleep their way through backoff.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.0, jitter=0.0)


def _scenarios(count=3):
    datasets = ["cora", "citeseer", "pubmed"]
    return [
        Scenario(dataset=datasets[i % 3], accelerator="sgcn", seed=i, **TINY)
        for i in range(count)
    ]


def test_transient_fault_is_retried_to_success(tmp_path):
    scenario = _scenarios(1)[0]
    plan = FaultPlan([FaultSpec(site="worker:execute", times=2)])
    store = ResultStore(tmp_path / "cache")
    runner = SweepRunner(
        store=store, policy=ExecutionPolicy(retry=FAST_RETRY), faults=plan
    )
    report = runner.run([scenario])
    assert report.num_failed == 0
    assert report.num_retried == 1
    outcome = report.outcomes[0]
    assert outcome.ok and outcome.attempts == 3 and not outcome.degraded
    assert store.contains(scenario)
    # The retried result is the same result a clean run produces.
    assert outcome.result.summary() == run_scenario(scenario).summary()


def test_exhausted_retries_fail_with_the_injected_error():
    scenario = _scenarios(1)[0]
    plan = FaultPlan([FaultSpec(site="worker:execute", times=None)])
    runner = SweepRunner(policy=ExecutionPolicy(retry=FAST_RETRY), faults=plan)
    report = runner.run([scenario])
    assert report.num_failed == 1
    outcome = report.outcomes[0]
    assert outcome.error_type == "FaultInjectionError"
    assert outcome.attempts == FAST_RETRY.max_attempts


def test_permanent_fault_is_isolated_to_one_scenario(tmp_path):
    scenarios = _scenarios(3)
    plan = FaultPlan([FaultSpec(site="stage:schedule", times=1)])
    store = ResultStore(tmp_path / "cache")
    report = SweepRunner(store=store, faults=plan).run(scenarios)
    assert report.num_failed == 1
    assert report.failures[0].scenario.scenario_id == scenarios[0].scenario_id
    assert not store.contains(scenarios[0])
    assert store.contains(scenarios[1]) and store.contains(scenarios[2])


def test_measured_sparsity_degrades_to_synthetic(tmp_path):
    scenario = Scenario(dataset="cora", accelerator="sgcn", sparsity="measured", **TINY)
    plan = FaultPlan([FaultSpec(site="gcn:train", times=None)])
    store = ResultStore(tmp_path / "cache")
    report = SweepRunner(store=store, faults=plan).run([scenario])
    assert report.num_failed == 0
    assert report.num_degraded == 1
    outcome = report.outcomes[0]
    assert outcome.ok and outcome.degraded
    assert outcome.result.metadata["degraded"] is True
    assert "degraded_reason" in outcome.result.metadata
    # A fallback result must never be cached under the scenario's identity.
    assert not store.contains(scenario)
    # The degraded numbers are exactly the synthetic-sparsity numbers.
    synthetic = run_scenario(
        Scenario(dataset="cora", accelerator="sgcn", sparsity="synthetic", **TINY)
    )
    assert outcome.result.total_cycles == synthetic.total_cycles


def test_no_degrade_policy_turns_harvest_failure_into_a_failure():
    scenario = Scenario(dataset="cora", accelerator="sgcn", sparsity="measured", **TINY)
    plan = FaultPlan([FaultSpec(site="gcn:train", times=None)])
    runner = SweepRunner(policy=ExecutionPolicy(degrade=False), faults=plan)
    report = runner.run([scenario])
    assert report.num_failed == 1
    assert report.failures[0].error_type == "SparsityHarvestError"


def test_broken_store_degrades_to_uncached_execution(tmp_path):
    scenarios = _scenarios(2)
    store = ResultStore(tmp_path / "cache")
    plan = FaultPlan(
        [
            FaultSpec(site="store:get", times=None),
            FaultSpec(site="store:put", times=None),
        ]
    )
    runner = SweepRunner(store=store)
    # Arm around the whole sweep (cache probes happen before workers start).
    with faults_scope(plan):
        report = runner.run(scenarios)
    assert report.num_failed == 0
    assert report.num_simulated == 2
    assert len(store) == 0  # every put failed; nothing cached
    clean = SweepRunner(store=store).run(scenarios)
    assert [o.result.summary() for o in report.outcomes] == [
        o.result.summary() for o in clean.outcomes
    ]


def test_broken_store_is_fatal_under_no_degrade(tmp_path):
    scenario = _scenarios(1)[0]
    store = ResultStore(tmp_path / "cache")
    plan = FaultPlan([FaultSpec(site="store:get", times=None)])
    runner = SweepRunner(store=store, policy=ExecutionPolicy(degrade=False))
    with faults_scope(plan):
        with pytest.raises(Exception):
            runner.run([scenario])


def test_trace_cache_fault_falls_back_to_uncached_build():
    scenario = _scenarios(1)[0]
    plan = FaultPlan([FaultSpec(site="cache:trace", times=None)])
    report = SweepRunner(faults=plan).run([scenario])
    assert report.num_failed == 0
    assert report.outcomes[0].result.summary() == run_scenario(scenario).summary()


def test_cooperative_deadline_times_a_run_out():
    scenario = _scenarios(1)[0]
    plan = FaultPlan(
        [FaultSpec(site="stage:schedule", action="delay", delay_s=0.2, times=None)]
    )
    policy = ExecutionPolicy(timeout=TimeoutPolicy(run_timeout_s=0.05))
    report = SweepRunner(policy=policy, faults=plan).run([scenario])
    assert report.num_failed == 1
    assert report.num_timed_out == 1
    outcome = report.outcomes[0]
    assert outcome.timed_out and outcome.error_type == "RunTimeoutError"


def test_pool_reclaims_a_hung_topology_task_as_a_whole():
    """A hung pool task is reclaimed after its budget times its run count.

    cora's two runs form one topology task; reddit's single run (the larger
    predicted cost, so it is not split and goes out first) is its own task.
    Each worker process stalls, without a cooperative deadline check, on its
    second execution, which only the cora task reaches.  Both cora runs are
    recorded as timed out — also the one the worker had finished, because a
    task's answers come back together — and the reddit run completes.
    """
    hung = [
        Scenario(dataset="cora", accelerator=accelerator, **TINY)
        for accelerator in ("sgcn", "gcnax")
    ]
    other = Scenario(dataset="reddit", accelerator="sgcn", **TINY)
    plan = FaultPlan(
        [FaultSpec(site="worker:execute", action="delay", delay_s=60.0, after=1)]
    )
    policy = ExecutionPolicy(timeout=TimeoutPolicy(run_timeout_s=2.0, grace_s=0.5))
    report = SweepRunner(workers=2, policy=policy, faults=plan).run(
        [hung[0], other, hung[1]]
    )
    assert [len(task.members) for task in report.tasks] == [1, 2]
    assert report.tasks[0].topology[0] == "reddit"
    assert report.elapsed_s < 30.0  # reclaimed, not waited out
    assert report.num_failed == report.num_timed_out == 2
    for outcome in (report.outcomes[0], report.outcomes[2]):
        assert outcome.timed_out and outcome.error_type == "RunTimeoutError"
        assert "5.0s" in outcome.error
    assert report.outcomes[1].ok


def test_checkpoint_records_and_resume_skips(tmp_path):
    scenarios = _scenarios(3)
    checkpoint_path = tmp_path / "checkpoint.json"
    store = ResultStore(tmp_path / "cache")
    plan = FaultPlan([FaultSpec(site="stage:schedule", times=1)])
    first = SweepRunner(
        store=store,
        faults=plan,
        checkpoint_path=str(checkpoint_path),
        checkpoint_interval=1,
    ).run(scenarios)
    assert first.num_failed == 1

    document = SweepCheckpoint.load(checkpoint_path)
    assert document is not None
    assert len(document["completed"]) == 2
    assert len(document["failures"]) == 1
    failed_id = next(iter(document["failures"]))
    assert failed_id == scenarios[0].scenario_id

    second = SweepRunner(
        store=store, checkpoint_path=str(checkpoint_path), resume=True
    ).run(scenarios)
    assert second.num_failed == 0
    assert second.num_cached == 2  # completed work answered by the store
    assert second.num_simulated == 1  # only the failed scenario re-ran
    resumed = SweepCheckpoint.load(checkpoint_path)
    assert len(resumed["completed"]) == 3
    assert resumed["failures"] == {}


def test_checkpointed_pool_sweep_matches_serial(tmp_path):
    scenarios = _scenarios(4)
    serial = SweepRunner(workers=1).run(scenarios)
    pooled = SweepRunner(
        workers=2,
        checkpoint_path=str(tmp_path / "checkpoint.json"),
    ).run(scenarios)
    assert pooled.num_failed == 0
    assert [o.result.summary() for o in serial.outcomes] == [
        o.result.summary() for o in pooled.outcomes
    ]
    document = SweepCheckpoint.load(tmp_path / "checkpoint.json")
    assert len(document["completed"]) == 4


def test_pool_path_applies_policy_and_faults(tmp_path):
    scenarios = _scenarios(2)
    plan = FaultPlan([FaultSpec(site="worker:execute", times=1)])
    store = ResultStore(tmp_path / "cache")
    report = SweepRunner(
        store=store,
        workers=2,
        policy=ExecutionPolicy(retry=FAST_RETRY),
        faults=plan,
    ).run(scenarios)
    assert report.num_failed == 0
    # Each worker process arms its own plan copy; at least one run retried.
    assert report.num_retried >= 1


def test_report_metrics_document_carries_resilience_counters(tmp_path):
    scenarios = _scenarios(2)
    plan = FaultPlan([FaultSpec(site="worker:execute", times=1)])
    store = ResultStore(tmp_path / "cache")
    report = SweepRunner(
        store=store, policy=ExecutionPolicy(retry=FAST_RETRY), faults=plan
    ).run(scenarios)
    document = report.metrics_document(pack="chaos")
    assert document["retried"] == 1
    assert document["degraded"] == 0
    assert document["timed_out"] == 0
    assert document["caches"]["store"]["puts"] == 2


def test_runner_rejects_bad_resilience_parameters():
    with pytest.raises(ConfigurationError):
        SweepRunner(checkpoint_interval=0)
    with pytest.raises(ConfigurationError):
        SweepRunner(worker_grace_s=-1)
