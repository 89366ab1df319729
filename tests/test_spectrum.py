"""Multi-capacity spectrum replay and replay-knob sweep grouping.

Covers the whole vertical slice of the capacity-sweep fast path:

* ``ReplayEngine.evaluate`` over capacity vectors — bit-identical to
  per-capacity evaluation for randomized traces, including capacities below
  the largest row (streaming rows) and pinned partitions, and seeding the
  shared ``(table-digest, capacity, pinned-digest)`` memo so later
  single-capacity calls are hits;
* the id()-keyed size-table token cache;
* ``TraceCache.clear()`` eviction accounting;
* the schedule-at-nominal-capacity semantics of ``cache_capacity_bytes``
  overrides (``CacheConfig.schedule_capacity`` / ``build_config``);
* replay-knob equivalence classes (``replay_class_key``,
  ``replay_classes``), and grouped ``Session.run_many``, including over
  capacity-override siblings;
* the topology task list (``topology_tasks``, ``topology_cost``) both
  ``SweepRunner`` paths dispatch, and that grouped dispatch itself.
"""

import hashlib
import json

from pathlib import Path

import numpy as np
import pytest

from oracles import pinned_partition_replay
from repro.accelerator.pipeline import GCN_VARIANTS
from repro.accelerator.registry import available_accelerators
from repro.core.config import CacheConfig, SystemConfig
from repro.core.runspec import RunSpec, build_config
from repro.core.session import (
    Session,
    replay_class_key,
    replay_classes,
    topology_cost,
    topology_tasks,
)
from repro.errors import ConfigurationError
from repro.experiments.runner import SweepRunner, run_scenario
from repro.experiments.scenarios import get_pack
from repro.experiments.spec import Scenario
from repro.graphs.datasets import DATASET_SPECS
from repro.memory.replay import ReplayEngine, TraceCache

KB = 1024


def stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.hit_lines, stats.miss_lines)


def single(trace, table, capacity):
    """One table at one capacity on a fresh engine (no memo involved)."""
    return ReplayEngine(trace).evaluate([table], [capacity])[0][0]


class TestReplaySpectrum:
    def test_randomized_spectrum_matches_per_capacity_replay(self):
        rng = np.random.default_rng(11)
        for trial in range(60):
            num_rows = int(rng.integers(1, 50))
            length = int(rng.integers(0, 400))
            trace = rng.integers(0, num_rows, size=length).astype(np.int64)
            sizes = rng.integers(1, 14, size=num_rows).astype(np.int64)
            if trial % 3 == 0:
                sizes[int(rng.integers(0, num_rows))] = 10_000
            # Capacities deliberately straddle the size distribution: some
            # below the largest row (that row streams through), some inside
            # it (several weight groups), some above everything (one group).
            caps = [int(c) for c in rng.integers(1, 120, size=int(rng.integers(1, 7)))]
            caps.append(max(1, int(sizes.max()) - 1))
            (spectrum,) = ReplayEngine(trace).evaluate([sizes], caps)
            assert len(spectrum) == len(caps)
            for cap, got in zip(caps, spectrum):
                assert stats_tuple(got) == stats_tuple(single(trace, sizes, cap))

    def test_spectrum_with_pinned_rows(self):
        rng = np.random.default_rng(12)
        trace = rng.integers(0, 40, size=600).astype(np.int64)
        sizes = rng.integers(1, 8, size=40).astype(np.int64)
        pinned = np.asarray([2, 9, 31], dtype=np.int64)
        caps = [3, 17, 64, 5000]
        (spectrum,) = ReplayEngine(trace).evaluate([sizes], caps, pinned)
        for cap, got in zip(caps, spectrum):
            want = pinned_partition_replay(trace, sizes, cap, pinned)
            assert stats_tuple(got) == stats_tuple(want)

    def test_duplicate_capacities_and_order_preserved(self):
        rng = np.random.default_rng(13)
        trace = rng.integers(0, 20, size=200).astype(np.int64)
        sizes = rng.integers(1, 6, size=20).astype(np.int64)
        caps = [30, 7, 30, 100, 7]
        (spectrum,) = ReplayEngine(trace).evaluate([sizes], caps)
        assert len(spectrum) == len(caps)
        assert stats_tuple(spectrum[0]) == stats_tuple(spectrum[2])
        assert stats_tuple(spectrum[1]) == stats_tuple(spectrum[4])

    def test_randomized_spectrum_many_matches_per_table_spectrum(self):
        rng = np.random.default_rng(16)
        for trial in range(40):
            num_rows = int(rng.integers(1, 40))
            length = int(rng.integers(0, 300))
            trace = rng.integers(0, num_rows, size=length).astype(np.int64)
            tables = [
                rng.integers(1, 14, size=num_rows).astype(np.int64)
                for _ in range(int(rng.integers(1, 6)))
            ]
            if trial % 3 == 0:
                # Streaming rows split some tables' capacities into several
                # weight groups inside the same batch call.
                tables[0][int(rng.integers(0, num_rows))] = 10_000
            caps = [int(c) for c in rng.integers(1, 120, size=int(rng.integers(1, 5)))]
            batch = ReplayEngine(trace).evaluate(tables, caps)
            assert len(batch) == len(tables)
            for table, per_table in zip(tables, batch):
                assert len(per_table) == len(caps)
                for cap, got in zip(caps, per_table):
                    assert stats_tuple(got) == stats_tuple(single(trace, table, cap))

    def test_spectrum_many_with_pinned_rows(self):
        rng = np.random.default_rng(17)
        trace = rng.integers(0, 30, size=400).astype(np.int64)
        pinned = np.asarray([4, 11], dtype=np.int64)
        tables = [rng.integers(1, 7, size=30).astype(np.int64) for _ in range(3)]
        caps = [20, 90]
        batch = ReplayEngine(trace).evaluate(tables, caps, pinned)
        for table, per_table in zip(tables, batch):
            for cap, got in zip(caps, per_table):
                want = pinned_partition_replay(trace, table, cap, pinned)
                assert stats_tuple(got) == stats_tuple(want)

    def test_spectrum_many_seeds_and_reads_the_memo(self):
        rng = np.random.default_rng(18)
        trace = rng.integers(0, 20, size=200).astype(np.int64)
        tables = [rng.integers(1, 5, size=20).astype(np.int64) for _ in range(2)]
        engine = ReplayEngine(trace)
        engine.evaluate(tables, [50, 100])
        misses = engine.memo_misses
        again = engine.evaluate(tables, [50, 100])
        assert engine.memo_misses == misses
        assert engine.memo_hits >= 4
        for table, per_table in zip(tables, again):
            for cap, got in zip([50, 100], per_table):
                assert stats_tuple(got) == stats_tuple(single(trace, table, cap))

    def test_spectrum_seeds_the_replay_memo(self):
        rng = np.random.default_rng(14)
        trace = rng.integers(0, 30, size=300).astype(np.int64)
        sizes = rng.integers(1, 6, size=30).astype(np.int64)
        engine = ReplayEngine(trace)
        caps = [10, 40, 160]
        (spectrum,) = engine.evaluate([sizes], caps)
        assert engine.memo_misses == len(caps)
        # Later single-capacity calls are answered from the memo,
        # bit-identical to the spectrum-computed values.
        for cap, from_spectrum in zip(caps, spectrum):
            hits_before = engine.memo_hits
            ((one,),) = engine.evaluate([sizes], [cap])
            assert engine.memo_hits == hits_before + 1
            assert stats_tuple(one) == stats_tuple(from_spectrum)

    def test_empty_trace_and_invalid_capacity(self):
        engine = ReplayEngine(np.zeros(0, dtype=np.int64))
        (spectrum,) = engine.evaluate([np.asarray([4, 4])], [8, 16])
        assert [stats_tuple(s) for s in spectrum] == [(0, 0, 0, 0, 0)] * 2
        with pytest.raises(ConfigurationError):
            engine.evaluate([np.asarray([4])], [8, 0])

    def test_size_table_token_cached_by_identity(self, monkeypatch):
        import repro.memory.replay as replay_mod

        calls = []
        real = replay_mod.array_token

        def counting(array):
            calls.append(1)
            return real(array)

        monkeypatch.setattr(replay_mod, "array_token", counting)
        rng = np.random.default_rng(15)
        trace = rng.integers(0, 16, size=100).astype(np.int64)
        table = rng.integers(1, 5, size=16).astype(np.int64)
        engine = ReplayEngine(trace)
        engine.evaluate([table], [20])
        hashes = len(calls)
        assert hashes >= 1
        # Same table object at other capacities: no re-hash.
        engine.evaluate([table], [21])
        engine.evaluate([table], [22, 23])
        assert len(calls) == hashes
        # A different object with equal contents hashes once more and then
        # lands on the same memo entries.
        engine.evaluate([table.copy()], [20])
        assert len(calls) == hashes + 1
        assert engine.memo_hits >= 1


class TestTraceCacheAccounting:
    def test_clear_counts_dropped_entries_as_evictions(self):
        cache = TraceCache(max_entries=8)
        for key in range(5):
            cache.get(key, lambda: object())
        cache.get(0, lambda: object())
        assert cache.stats()["entries"] == 5
        cache.clear()
        stats = cache.stats()
        assert stats["evictions"] == 5
        assert stats["entries"] == 0
        assert stats["bytes"] == 0
        # Accounting identity: every miss is either still resident or was
        # evicted (clear() counts each dropped entry).
        assert stats["misses"] == stats["entries"] + stats["evictions"]

    def test_identity_holds_through_lru_eviction_and_clear(self):
        cache = TraceCache(max_entries=3)
        for key in range(7):
            cache.get(key, lambda: key)
        stats = cache.stats()
        assert stats["misses"] == stats["entries"] + stats["evictions"]
        cache.clear()
        stats = cache.stats()
        assert stats["misses"] == stats["entries"] + stats["evictions"]


class TestScheduleCapacityConfig:
    def test_defaults_to_physical_capacity(self):
        cache = CacheConfig()
        assert cache.schedule_capacity_bytes is None
        assert cache.schedule_capacity == cache.capacity_bytes

    def test_explicit_schedule_capacity(self):
        cache = CacheConfig(capacity_bytes=128 * KB, schedule_capacity_bytes=512 * KB)
        assert cache.schedule_capacity == 512 * KB

    def test_schedule_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            CacheConfig(schedule_capacity_bytes=0)

    def test_scaled_scales_both_capacities(self):
        cache = CacheConfig(capacity_bytes=256 * KB, schedule_capacity_bytes=512 * KB)
        scaled = cache.scaled(0.5)
        assert scaled.capacity_bytes == 128 * KB
        assert scaled.schedule_capacity_bytes == 256 * KB
        # Without a schedule capacity the field stays unset after scaling.
        assert CacheConfig().scaled(0.5).schedule_capacity_bytes is None

    def test_capacity_override_plans_schedule_at_nominal(self):
        base = SystemConfig()
        config = build_config({"cache_capacity_bytes": 128 * KB}, base)
        assert config.cache.capacity_bytes == 128 * KB
        assert config.cache.schedule_capacity == base.cache.capacity_bytes

    def test_override_equal_to_base_is_a_no_op(self):
        base = SystemConfig()
        config = build_config(
            {"cache_capacity_bytes": base.cache.capacity_bytes}, base
        )
        assert config.cache == base.cache
        assert config.cache.schedule_capacity_bytes is None


class TestReplayClasses:
    def test_replay_knobs_do_not_split_classes(self):
        base = RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64)
        for knob, value in [
            ("cache_capacity_bytes", 128 * KB),
            ("frequency_ghz", 1.4),
            ("dram", "hbm1"),
            ("simd_width", 32),
        ]:
            sibling = RunSpec(
                dataset="cora",
                accelerator="sgcn",
                max_vertices=64,
                overrides={knob: value},
            )
            assert replay_class_key(sibling) == replay_class_key(base)

    def test_non_replay_knobs_split_classes(self):
        base = RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64)
        for other in [
            RunSpec(dataset="citeseer", accelerator="sgcn", max_vertices=64),
            RunSpec(dataset="cora", accelerator="gcnax", max_vertices=64),
            RunSpec(dataset="cora", accelerator="sgcn", max_vertices=128),
            RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64, seed=1),
            RunSpec(
                dataset="cora",
                accelerator="sgcn",
                max_vertices=64,
                overrides={"sac_strip_height": 8},
            ),
        ]:
            assert replay_class_key(other) != replay_class_key(base)

    def test_replay_groups_partition_in_first_seen_order(self):
        specs = []
        for accelerator in ("gcnax", "sgcn"):
            for capacity in (128 * KB, 256 * KB):
                specs.append(
                    RunSpec(
                        dataset="cora",
                        accelerator=accelerator,
                        max_vertices=64,
                        overrides={"cache_capacity_bytes": capacity},
                    )
                )
        # Capacity-major order interleaves the classes.
        interleaved = [specs[0], specs[2], specs[1], specs[3]]
        spectrum = (128 * KB, 256 * KB)
        assert replay_classes(interleaved) == [([0, 2], spectrum), ([1, 3], spectrum)]

    def test_classes_without_a_capacity_sweep_carry_no_spectrum(self):
        specs = [
            RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64),
            RunSpec(
                dataset="cora",
                accelerator="sgcn",
                max_vertices=64,
                overrides={"frequency_ghz": 1.4},
            ),
            RunSpec(
                dataset="cora",
                accelerator="sgcn",
                max_vertices=64,
                overrides={"cache_capacity_bytes": SystemConfig().cache.capacity_bytes},
            ),
        ]
        assert replay_classes(specs) == [([0, 1, 2], ())]
        # The base config's capacity stands in for specs that do not
        # override it.
        base = build_config({"cache_capacity_bytes": 128 * KB})
        assert replay_classes(specs, base) == [
            ([0, 1, 2], (128 * KB, SystemConfig().cache.capacity_bytes))
        ]


class TestTopologyTasks:
    def test_tasks_group_by_topology_in_first_appearance_order(self):
        # Seed-major, dataset-minor order interleaves the topologies.
        specs = [
            RunSpec(
                dataset=dataset, accelerator=accelerator, max_vertices=64, seed=seed
            )
            for seed in (1, 0)
            for dataset in ("cora", "pubmed", "reddit")
            for accelerator in ("gcnax", "sgcn")
        ]
        tasks = topology_tasks(specs)
        assert [task.topology for task in tasks] == [
            ("cora", 64, 1),
            ("pubmed", 64, 1),
            ("reddit", 64, 1),
            ("cora", 64, 0),
            ("pubmed", 64, 0),
            ("reddit", 64, 0),
        ]
        for task in tasks:
            assert [index for index, _ in task.members] == [
                index
                for index, spec in enumerate(specs)
                if (spec.dataset, spec.max_vertices, spec.seed) == task.topology
            ]
            assert task.predicted_cost == 2 * topology_cost(task.topology[0], 64)
        # No topology exceeds a fair share of two workers: nothing splits.
        assert topology_tasks(specs, workers=2) == tasks

    def test_members_keep_class_order_and_their_own_spectrum(self):
        spectrum = (128 * KB, 256 * KB)
        specs = [
            RunSpec(
                dataset="cora",
                accelerator=accelerator,
                max_vertices=64,
                overrides={"cache_capacity_bytes": capacity},
            )
            for capacity in spectrum
            for accelerator in ("gcnax", "sgcn")
        ]
        specs.append(RunSpec(dataset="cora", accelerator="igcn", max_vertices=64))
        specs.append(RunSpec(dataset="citeseer", accelerator="sgcn", max_vertices=64))
        tasks = topology_tasks(specs)
        assert [task.topology for task in tasks] == [
            ("cora", 64, 0),
            ("citeseer", 64, 0),
        ]
        # Capacity-major input, class-major members: each class's members
        # back to back, each member with its own class's spectrum.
        assert tasks[0].members == [
            (0, spectrum),
            (2, spectrum),
            (1, spectrum),
            (3, spectrum),
            (4, ()),
        ]
        assert tasks[1].members == [(5, ())]

    def test_cost_is_the_scaled_edge_count(self):
        cora = DATASET_SPECS["cora"]
        assert topology_cost("cora", 64) == 64 * cora.average_degree
        assert topology_cost("CORA ", 64) == topology_cost("cora", 64)
        # Degree caps: 32 at scale, a quarter of the vertex count when small.
        assert topology_cost("reddit", 8192) == 8192 * 32
        assert topology_cost("reddit", 64) == 64 * 16
        assert topology_cost("cora", 8192) == cora.num_vertices * cora.average_degree

    def test_unknown_dataset_costs_nothing(self):
        assert topology_cost("atlantis", 64) == 0.0
        specs = [
            RunSpec(dataset="atlantis", accelerator="sgcn", max_vertices=64),
            RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64),
        ]
        for workers in (1, 2):
            tasks = topology_tasks(specs, workers=workers)
            assert [task.topology[0] for task in tasks] == ["atlantis", "cora"]
            assert tasks[0].predicted_cost == 0.0

    def test_paper_comparison_pool_order_and_split(self):
        specs = get_pack("paper-comparison", max_vertices=8192).expand()
        tasks = topology_tasks(specs, workers=2)
        assert all(len(task.members) == 6 for task in tasks)
        longest_first = sorted(tasks, key=lambda task: -task.predicted_cost)
        assert [task.topology[0] for task in longest_first] == [
            "reddit",
            "yelp",
            "github",
            "flickr",
            "dblp",
            "pubmed",
            "nell",
            "cora",
            "citeseer",
        ]
        # reddit is about 34% of the predicted work: more than a third, so
        # a 3-worker pool runs its six replay classes side by side.
        split = topology_tasks(specs, workers=3)
        reddit = [task for task in split if task.topology[0] == "reddit"]
        assert [len(task.members) for task in reddit] == [1] * 6
        assert len(split) == 8 + 6

    def test_a_topology_above_its_fair_share_splits_by_replay_class(self):
        # cache-size at 64 vertices: three topologies of two replay classes
        # (gcnax, sgcn), nine capacities each; github is ~59% of the cost.
        specs = get_pack("cache-size", max_vertices=64).expand()
        whole = topology_tasks(specs)
        assert [task.topology[0] for task in whole] == ["pubmed", "dblp", "github"]
        tasks = topology_tasks(specs, workers=2)
        assert [task.topology[0] for task in tasks] == [
            "pubmed",
            "dblp",
            "github",
            "github",
        ]
        classes = [
            (members, spectrum)
            for members, spectrum in replay_classes(specs)
            if specs[members[0]].dataset == "github"
        ]
        for task, (members, spectrum) in zip(tasks[2:], classes):
            assert len(spectrum) == 9
            assert task.members == [(index, spectrum) for index in members]
            assert task.predicted_cost == len(members) * topology_cost("github", 64)
        assert tasks[2].members + tasks[3].members == whole[2].members
        assert tasks[:2] == whole[:2]
        # A single topology always exceeds its share of two workers.
        quick = get_pack("sparsity-depth", quick=True).expand()
        assert len(topology_tasks(quick)) == 1
        assert [len(task.members) for task in topology_tasks(quick, workers=2)] == [
            1
        ] * len(quick)


def _capacity_sweep_specs():
    specs = []
    for accelerator in ("gcnax", "sgcn"):
        for capacity in (128 * KB, 256 * KB, 512 * KB):
            specs.append(
                RunSpec(
                    dataset="cora",
                    accelerator=accelerator,
                    max_vertices=64,
                    overrides={"cache_capacity_bytes": capacity},
                )
            )
    return specs


def _result_docs(results):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in results]


class TestSessionGroupedExecution:
    def test_grouped_run_many_byte_identical_to_ungrouped(self):
        specs = _capacity_sweep_specs()
        grouped = Session().run_many(specs, annotate=False)
        ungrouped = [Session().run(spec) for spec in specs]
        assert _result_docs(grouped) == _result_docs(ungrouped)

    def test_grouped_execution_order_visits_classes_back_to_back(self, monkeypatch):
        run = Session.run
        executed = []

        def logged(self, spec, **kwargs):
            executed.append(spec)
            return run(self, spec, **kwargs)

        monkeypatch.setattr(Session, "run", logged)
        specs = _capacity_sweep_specs()
        Session().run_many(specs, annotate=False)
        assert [specs.index(spec) for spec in executed] == [0, 1, 2, 3, 4, 5]
        interleaved = [specs[0], specs[3], specs[1], specs[4], specs[2], specs[5]]
        executed.clear()
        Session().run_many(interleaved, annotate=False)
        assert [interleaved.index(spec) for spec in executed] == [0, 2, 4, 1, 3, 5]

    @staticmethod
    def _capacity_siblings(capacities, **fields):
        return [
            RunSpec(overrides={"cache_capacity_bytes": capacity}, **fields)
            for capacity in capacities
        ]

    def test_capacity_siblings_match_individual_runs(self):
        capacities = [128 * KB, 512 * KB, 2048 * KB]
        siblings = self._capacity_siblings(
            capacities, dataset="citeseer", accelerator="sgcn", max_vertices=64
        )
        spectrum = Session().run_many(siblings, annotate=False)
        assert len(spectrum) == len(capacities)
        for capacity, result in zip(capacities, spectrum):
            solo = Session().run(
                RunSpec(
                    dataset="citeseer",
                    accelerator="sgcn",
                    max_vertices=64,
                    overrides={"cache_capacity_bytes": capacity},
                )
            )
            assert json.dumps(result.to_dict(), sort_keys=True) == json.dumps(
                solo.to_dict(), sort_keys=True
            )

    def test_spectrum_points_actually_differ(self):
        # Guard against the sweep degenerating into identical results: the
        # smallest and largest capacity must disagree somewhere.
        siblings = self._capacity_siblings(
            [16 * KB, 2048 * KB], dataset="pubmed", accelerator="gcnax",
            max_vertices=128,
        )
        small, large = Session().run_many(siblings, annotate=False)
        assert json.dumps(small.to_dict(), sort_keys=True) != json.dumps(
            large.to_dict(), sort_keys=True
        )


class TestSweepRunnerGroupedDispatch:
    def _scenarios(self):
        scenarios = []
        for capacity in (128 * KB, 256 * KB, 512 * KB):
            for accelerator in ("gcnax", "sgcn"):
                scenarios.append(
                    Scenario(
                        dataset="cora",
                        accelerator=accelerator,
                        max_vertices=64,
                        num_layers=4,
                        overrides={"cache_capacity_bytes": capacity},
                    )
                )
        return scenarios

    def test_serial_grouped_matches_ungrouped(self):
        scenarios = self._scenarios()
        grouped = SweepRunner(workers=1).run(scenarios)
        assert grouped.num_failed == 0
        assert [o.scenario.scenario_id for o in grouped.outcomes] == [
            s.scenario_id for s in scenarios
        ]
        # Ungrouped: every scenario alone in a fresh session.
        assert [o.result.summary() for o in grouped.outcomes] == [
            run_scenario(s, session=Session()).summary() for s in scenarios
        ]

    def test_pool_grouped_matches_serial(self):
        scenarios = self._scenarios()
        serial = SweepRunner(workers=1).run(scenarios)
        pooled = SweepRunner(workers=2).run(scenarios)
        assert pooled.num_failed == 0
        assert [o.scenario.scenario_id for o in serial.outcomes] == [
            o.scenario.scenario_id for o in pooled.outcomes
        ]
        assert [o.result.summary() for o in serial.outcomes] == [
            o.result.summary() for o in pooled.outcomes
        ]

    def test_grouped_failure_isolated_to_its_scenario(self):
        scenarios = self._scenarios()
        # An invalid capacity fails config validation inside the run; its
        # class siblings must still succeed.
        bad = Scenario(
            dataset="cora",
            accelerator="gcnax",
            max_vertices=64,
            num_layers=4,
            overrides={"cache_capacity_bytes": 1000},  # not a legal multiple
        )
        report = SweepRunner(workers=1).run(scenarios + [bad])
        assert report.num_failed == 1
        assert report.failures[0].scenario.scenario_id == bad.scenario_id
        assert report.num_simulated == len(scenarios)


GOLDEN = json.loads(
    (Path(__file__).parent / "golden_design_digests.json").read_text()
)


class TestGroupedGoldenDigests:
    """Grouped dispatch must not perturb a single golden digest.

    Every built-in design of one dataset runs through ``run_many``'s
    grouped path alongside a capacity-override sibling, so every replay
    class genuinely carries a multi-capacity spectrum — and the base runs
    must still hash to the pre-refactor goldens byte for byte.
    """

    @pytest.mark.parametrize(
        "dataset_name", sorted({key.split("/")[0] for key in GOLDEN["digests"]})
    )
    def test_grouped_sweep_reproduces_goldens(self, dataset_name):
        specs = [
            RunSpec(
                dataset=dataset_name,
                accelerator=accelerator,
                variant=variant,
                max_vertices=GOLDEN["max_vertices"],
            )
            for variant in GCN_VARIANTS
            for accelerator in available_accelerators()
        ]
        siblings = [
            RunSpec(
                dataset=spec.dataset,
                accelerator=spec.accelerator,
                variant=spec.variant,
                max_vertices=spec.max_vertices,
                overrides={"cache_capacity_bytes": 64 * KB},
            )
            for spec in specs
        ]
        session = Session()
        results = session.run_many(specs + siblings, annotate=False)
        mismatches = []
        for spec, result in zip(specs, results[: len(specs)]):
            doc = json.dumps(result.to_dict(), sort_keys=True)
            digest = hashlib.sha256(doc.encode("utf-8")).hexdigest()
            key = f"{spec.dataset}/{spec.accelerator}/{spec.variant}"
            if digest != GOLDEN["digests"][key]:
                mismatches.append(key)
        assert not mismatches, f"grouped dispatch drifted from golden: {mismatches}"
