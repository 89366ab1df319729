"""Sweep-runner behaviour: determinism, caching, and error isolation."""

from __future__ import annotations

import pytest

from repro.experiments.runner import SweepRunner, run_scenario
from repro.experiments.spec import Scenario, SweepSpec
from repro.experiments.store import ResultStore

TINY = dict(max_vertices=64, num_layers=4)


@pytest.fixture(scope="module")
def small_grid():
    spec = SweepSpec(
        name="grid",
        datasets=["cora", "citeseer"],
        accelerators=["sgcn", "gcnax"],
        seeds=[0, 1],
        max_vertices=64,
    )
    return spec.expand()


def test_run_scenario_is_deterministic():
    scenario = Scenario(dataset="cora", accelerator="sgcn", seed=7, **TINY)
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.summary() == second.summary()
    assert first.metadata["scenario_id"] == scenario.scenario_id


def test_parallel_sweep_matches_serial(small_grid):
    serial = SweepRunner(workers=1).run(small_grid)
    parallel = SweepRunner(workers=2).run(small_grid)
    assert serial.num_failed == parallel.num_failed == 0
    assert [o.scenario.scenario_id for o in serial.outcomes] == [
        o.scenario.scenario_id for o in parallel.outcomes
    ]
    assert [o.result.summary() for o in serial.outcomes] == [
        o.result.summary() for o in parallel.outcomes
    ]


def test_second_run_is_all_cache_hits(tmp_path, small_grid):
    store = ResultStore(tmp_path / "cache")
    first = SweepRunner(store=store, workers=2).run(small_grid)
    assert first.num_simulated == len(small_grid)
    assert first.num_cached == 0

    second = SweepRunner(store=store, workers=2).run(small_grid)
    assert second.num_simulated == 0
    assert second.num_cached == len(small_grid)
    assert [o.result.summary() for o in first.outcomes] == [
        o.result.summary() for o in second.outcomes
    ]


def test_failing_scenario_does_not_kill_the_sweep(tmp_path):
    good = Scenario(dataset="cora", accelerator="sgcn", **TINY)
    # Bypass SweepSpec validation to inject a scenario that fails inside the
    # worker (unknown dataset).
    bad = Scenario(dataset="atlantis", accelerator="sgcn", **TINY)
    good2 = Scenario(dataset="citeseer", accelerator="sgcn", **TINY)

    store = ResultStore(tmp_path / "cache")
    report = SweepRunner(store=store, workers=2).run([good, bad, good2])
    assert report.num_failed == 1
    assert report.num_simulated == 2
    failed = report.failures[0]
    assert failed.scenario.dataset == "atlantis"
    assert failed.error and "atlantis" in failed.error
    assert not store.contains(bad)
    assert store.contains(good) and store.contains(good2)
    # The unknown dataset's task costs nothing, so the pool dispatches it last.
    topologies = [task.topology[0] for task in report.tasks]
    assert topologies == ["cora", "citeseer", "atlantis"]
    assert report.tasks[-1].predicted_cost == 0.0


def test_pool_loads_and_builds_once_per_topology():
    """Topology-affine dispatch: the pool repeats none of the serial work."""
    grid = SweepSpec(
        name="affinity",
        datasets=["cora", "citeseer", "pubmed"],
        accelerators=["sgcn", "gcnax"],
        max_vertices=128,
    ).expand()
    counts = []
    orders = []
    for workers in (1, 2):
        report = SweepRunner(workers=workers, profile=True).run(grid)
        assert report.num_failed == 0
        caches = report.metrics_document()["caches"]
        counts.append((caches["replay_memo"]["engines"], caches["dataset"]["misses"]))
        orders.append([task.topology[0] for task in report.tasks])
    assert counts[0][1] == 3
    assert counts[1] == counts[0]
    # Serially in order of first appearance; the pool longest first (no
    # topology exceeds half the predicted work, so none is split).
    assert orders == [["cora", "citeseer", "pubmed"], ["pubmed", "cora", "citeseer"]]


def test_sweeps_scope_the_trace_cache_to_one_topology(tmp_path, monkeypatch):
    """Serial and pooled sweeps hold one topology's traces at a time.

    Every run is logged with whether it moves its session to a new topology
    and how many entries the cache held then, and every trace-cache lookup
    with the topology of the run making it, whether it hit, the topology
    the key was first built under (in that process), and the cache size.
    No key is built twice in a serial sweep, no key built under one
    topology is hit under another, the cache is empty at the first lookup
    after a session moves to a new topology, the profiled trace-cache
    evictions are exactly the entries those moves dropped, and the
    summaries are byte-identical.
    """
    import json
    import os

    from repro.core.session import Session
    from repro.experiments.scenarios import get_pack
    from repro.experiments.store import export_summary_csv, summary_row
    from repro.memory.replay import TraceCache

    log = tmp_path / "trace-cache.jsonl"
    scoped: dict = {}  # id(trace cache) -> topology; copied into forked workers
    built: dict = {}  # key -> topology it was first built under

    def write(*record) -> None:
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(json.dumps([os.getpid(), *record]) + "\n")

    def run(self, spec, **kwargs):
        topology = [spec.dataset, spec.max_vertices, spec.seed]
        moved = scoped.get(id(self.trace_cache)) != topology
        write("run", moved, len(self.trace_cache) if moved else 0)
        scoped[id(self.trace_cache)] = topology
        return execute(self, spec, **kwargs)

    def get(self, key, builder):
        topology = scoped.get(id(self))
        hit = key in self
        write("get", topology, hit, built.get(key, topology) if hit else None,
              len(self), not hit and key in built)
        built.setdefault(key, topology)
        return lookup(self, key, builder)

    execute, lookup = Session.run, TraceCache.get
    monkeypatch.setattr(Session, "run", run)
    monkeypatch.setattr(TraceCache, "get", get)

    scenarios = get_pack("paper-comparison", max_vertices=64).expand()
    summaries = []
    for workers in (1, 2):
        log.unlink(missing_ok=True)
        scoped.clear()
        built.clear()
        report = SweepRunner(
            workers=workers, mp_context="fork", profile=True
        ).run(scenarios)
        assert report.num_failed == 0
        rows = [summary_row(o.scenario, o.result) for o in report.outcomes]
        summaries.append(export_summary_csv(tmp_path / f"{workers}.csv", rows).read_bytes())
        records = [json.loads(line) for line in log.read_text().splitlines()]
        gets = [record[2:] for record in records if record[1] == "get"]
        assert all(topology is not None for topology, *_ in gets)
        assert len({tuple(topology) for topology, *_ in gets}) >= 3
        assert any(hit for _, hit, *_ in gets)
        # A hit's key was built under the topology that hits it.
        assert all(owner == topology for topology, hit, owner, *_ in gets if hit)
        # A session that moved finds the cache empty at its next lookup.
        moved_pids = set()
        for pid, kind, *fields in records:
            if kind == "run" and fields[0]:
                moved_pids.add(pid)
            elif kind == "get" and pid in moved_pids:
                moved_pids.discard(pid)
                assert fields[3] == 0
        dropped = sum(record[3] for record in records if record[1] == "run")
        assert dropped > 0
        assert report.cache_totals()["trace"]["evictions"] == dropped
        if workers == 1:
            assert not any(rebuilt for *_, rebuilt in gets)
        else:
            assert len({record[0] for record in records}) == 2
    assert summaries[0] == summaries[1]


def test_group_pool_entry_isolates_a_malformed_scenario_dict(monkeypatch):
    from repro.experiments import runner

    # The pool entry builds a per-process session; keep it out of this one.
    monkeypatch.setattr(runner, "_WORKER_SESSION", None)
    good = Scenario(dataset="cora", accelerator="sgcn", **TINY)
    good2 = Scenario(dataset="citeseer", accelerator="sgcn", **TINY)
    wire = (
        [0, 1, 2],
        [good.to_dict(), {"dataset": "cora", "bogus": 1}, good2.to_dict()],
        False,
        None,
        None,
        [[], [], []],
    )
    payloads = dict(runner._worker_execute_group(wire))
    assert sorted(payloads) == [0, 1, 2]
    assert all(type(payload) is runner.RunPayload for payload in payloads.values())
    assert payloads[0].error is None and payloads[2].error is None
    failed = payloads[1]
    assert failed.result is None
    assert type(failed.error) is runner.RunError
    assert failed.error.type == "KeyError"
    assert "Traceback (most recent call last)" in failed.error.traceback


def test_spawn_pool_matches_serial():
    """The payload records pickle into freshly imported (spawned) workers."""
    scenarios = [
        Scenario(dataset=dataset, accelerator=accelerator, **TINY)
        for dataset in ("cora", "citeseer")
        for accelerator in ("sgcn", "gcnax")
    ] + [Scenario(dataset="atlantis", accelerator="sgcn", **TINY)]
    serial = SweepRunner(workers=1, profile=True).run(scenarios)
    spawned = SweepRunner(workers=2, mp_context="spawn", profile=True).run(scenarios)
    for report in (serial, spawned):
        assert [o.error_type for o in report.outcomes] == [None] * 4 + ["ConfigurationError"]
        assert all(o.telemetry is not None for o in report.outcomes)
        assert report.phase_totals()["replay"]["count"] == 4
    assert [o.result.to_dict() for o in serial.outcomes[:4]] == [
        o.result.to_dict() for o in spawned.outcomes[:4]
    ]


def test_keyboard_interrupt_aborts_serial_sweep(monkeypatch):
    from repro.core.session import Session

    def interrupt(self, spec, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(Session, "run", interrupt)
    scenario = Scenario(dataset="cora", accelerator="sgcn", **TINY)
    with pytest.raises(KeyboardInterrupt):
        SweepRunner(workers=1).run([scenario])


def test_progress_callback_sees_every_scenario(small_grid):
    seen = []
    SweepRunner(workers=1).run(
        small_grid, progress=lambda outcome, done, total: seen.append((done, total))
    )
    assert len(seen) == len(small_grid)
    assert seen[-1] == (len(small_grid), len(small_grid))


def test_runner_rejects_bad_parameters():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        SweepRunner(workers=0)
