"""Telemetry subsystem: spans, counters, metrics documents, and invariance."""

from __future__ import annotations

import json

import pytest

from repro import telemetry
from repro.core.runspec import RunSpec
from repro.core.session import Session
from repro.experiments.cli import main
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import Scenario
from repro.experiments.store import export_summary_csv, summary_row
from repro.memory.replay import ROUTES, TraceCache
from repro.telemetry.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsSnapshot,
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
from repro.telemetry.spans import _NULL_SPAN, SpanRecorder

TINY = dict(max_vertices=64, num_layers=4)


@pytest.fixture(autouse=True)
def _telemetry_off_after():
    """Every test leaves the process-global recorder disabled and empty."""
    yield
    telemetry.set_enabled(False)
    telemetry.reset_spans()


# --------------------------------------------------------------------------- #
# Span recorder
# --------------------------------------------------------------------------- #
class TestSpans:
    def test_spans_nest_into_a_tree(self):
        recorder = SpanRecorder()
        recorder.set_enabled(True)
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
            with recorder.span("inner"):
                pass
        with recorder.span("outer"):
            pass
        snapshot = recorder.snapshot()
        assert set(snapshot) == {"outer"}
        assert snapshot["outer"]["count"] == 2
        assert snapshot["outer"]["total_s"] > 0
        inner = snapshot["outer"]["children"]["inner"]
        assert inner["count"] == 2
        assert "children" not in inner

    def test_disabled_recorder_records_nothing_and_allocates_nothing(self):
        recorder = SpanRecorder()
        assert recorder.span("anything") is _NULL_SPAN
        with recorder.span("anything"):
            pass
        assert recorder.snapshot() == {}

    def test_global_helpers_and_reset(self):
        previous = telemetry.set_enabled(True)
        assert previous is False  # tier-1 default: off
        with telemetry.span("stage"):
            pass
        assert "stage" in telemetry.span_snapshot()
        telemetry.reset_spans()
        assert telemetry.span_snapshot() == {}
        assert telemetry.is_enabled() is True

    def test_exception_inside_span_still_closes_it(self):
        recorder = SpanRecorder()
        recorder.set_enabled(True)
        with pytest.raises(ValueError):
            with recorder.span("failing"):
                raise ValueError("boom")
        assert recorder.snapshot()["failing"]["count"] == 1


# --------------------------------------------------------------------------- #
# Cache counters
# --------------------------------------------------------------------------- #
class TestCounters:
    def test_trace_cache_counts_evictions_and_bytes(self):
        import numpy as np

        cache = TraceCache(max_entries=2)
        for key in ("a", "b", "c"):
            cache.get(key, lambda: np.zeros(8, dtype=np.int64))
        cache.get("c", lambda: None)  # hit
        stats = cache.stats()
        assert stats["misses"] == 3
        assert stats["hits"] == 1
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert stats["bytes"] == 2 * 8 * 8  # two resident 8-int64 arrays
        cache.clear()
        assert cache.stats()["bytes"] == 0
        assert cache.stats()["entries"] == 0

    def test_session_dataset_lru_counters(self):
        session = Session(max_cached_datasets=2)
        session.load_dataset("cora", **TINY)
        session.load_dataset("cora", **TINY)  # hit
        session.load_dataset("citeseer", **TINY)
        session.load_dataset("pubmed", **TINY)  # evicts cora
        caches = session.metrics_snapshot().caches
        assert caches["dataset"] == {
            "hits": 1, "misses": 3, "evictions": 1, "entries": 2,
        }

    def test_session_accelerator_counters(self):
        session = Session()
        session.accelerator("sgcn")
        session.accelerator("sgcn")
        session.accelerator("gcnax")
        accel = session.metrics_snapshot().caches["accelerator"]
        assert accel["hits"] == 1
        assert accel["misses"] == 2
        assert accel["entries"] == 2

    def test_topology_clear_keeps_replay_memo_counters(self, monkeypatch):
        from repro.core import session as session_module

        session = Session()
        session.run(RunSpec(dataset="cora", accelerator="sgcn", **TINY))
        before = session.metrics_snapshot().caches

        def stop(*args, **kwargs):
            raise RuntimeError("stop after the scoping point")

        # A run on another graph empties the cache before it simulates.
        monkeypatch.setattr(session_module, "simulate_design", stop)
        with pytest.raises(RuntimeError, match="scoping point"):
            session.run(RunSpec(dataset="citeseer", accelerator="sgcn", **TINY))
        after = session.metrics_snapshot().caches
        assert after["replay_memo"] == before["replay_memo"]
        assert after["replay_memo"]["engines"] >= 1
        assert after["trace"]["entries"] == 0
        assert after["trace"]["evictions"] == (
            before["trace"]["evictions"] + before["trace"]["entries"]
        )

    def test_clear_caches_moves_no_counter_backwards(self):
        session = Session()
        session.run(
            RunSpec(dataset="cora", accelerator="sgcn", sparsity="measured", **TINY)
        )
        before = session.metrics_snapshot().caches
        session.clear_caches()
        after = session.metrics_snapshot().caches
        assert before["replay_memo"]["engines"] >= 1
        assert after["replay_memo"] == before["replay_memo"]
        for name in ("trace", "measurement", "dataset", "accelerator"):
            assert before[name]["misses"] >= 1, name
            for counter in ("hits", "misses", "evictions"):
                assert after[name][counter] >= before[name][counter], (name, counter)
            # Every miss stored an entry that is still resident or evicted.
            assert after[name]["entries"] == 0, name
            assert after[name]["misses"] == after[name]["evictions"], name

    def test_metrics_snapshot_schema(self):
        session = Session()
        session.run(RunSpec(dataset="cora", accelerator="sgcn", **TINY))
        snapshot = session.metrics_snapshot()
        assert snapshot.schema_version == METRICS_SCHEMA_VERSION
        assert snapshot.telemetry_enabled is False
        assert snapshot.spans == {}  # disabled: counters only
        expected_caches = {
            "trace", "measurement", "dataset", "accelerator", "replay_memo",
        }
        assert set(snapshot.caches) == expected_caches
        assert snapshot.caches["replay_memo"]["engines"] >= 1
        assert snapshot.caches["trace"]["bytes"] > 0


# --------------------------------------------------------------------------- #
# Metrics algebra and documents
# --------------------------------------------------------------------------- #
class TestMetricsAlgebra:
    def test_merge_spans_sums_nodes_recursively(self):
        base = {"replay": {"total_s": 1.0, "count": 1,
                           "children": {"eval": {"total_s": 0.5, "count": 2}}}}
        extra = {"replay": {"total_s": 2.0, "count": 3,
                            "children": {"eval": {"total_s": 0.5, "count": 1},
                                         "build": {"total_s": 0.1, "count": 1}}},
                 "timing": {"total_s": 4.0, "count": 3}}
        merged = merge_spans(base, extra)
        assert merged["replay"]["total_s"] == pytest.approx(3.0)
        assert merged["replay"]["count"] == 4
        assert merged["replay"]["children"]["eval"]["count"] == 3
        assert merged["replay"]["children"]["build"]["count"] == 1
        assert merged["timing"]["count"] == 3

    def test_merge_and_diff_counters(self):
        before = {"trace": {"hits": 2, "misses": 5, "entries": 5}}
        after = {"trace": {"hits": 6, "misses": 7, "entries": 4}}
        delta = diff_counters(before, after)
        assert delta == {"trace": {"hits": 4, "misses": 2, "entries": -1}}
        total = merge_counters({"trace": {"hits": 1, "misses": 0, "entries": 1}},
                               delta)
        assert total["trace"] == {"hits": 5, "misses": 2, "entries": 0}

    def test_hit_ratio_edge_cases(self):
        assert hit_ratio({"hits": 3, "misses": 1}) == pytest.approx(0.75)
        assert hit_ratio({"hits": 0, "misses": 0}) is None
        assert cache_hit_ratios({"a": {"hits": 1, "misses": 1}, "b": {}}) == {
            "a": 0.5, "b": None,
        }

    def test_metrics_document_golden_shape(self, tmp_path):
        """Schema v1 golden: the exact top-level shape of both document kinds."""
        run_doc = run_metrics_document(
            MetricsSnapshot(
                telemetry_enabled=True,
                spans={},
                caches={"trace": {"hits": 1, "misses": 1}},
            ),
            scenario_id="abc123",
        )
        assert run_doc == {
            "schema_version": 1,
            "kind": "run-profile",
            "scenario_id": "abc123",
            "spans": {},
            "caches": {"trace": {"hits": 1, "misses": 1}},
            "cache_hit_ratios": {"trace": 0.5},
        }
        sweep_doc = sweep_metrics_document([{"pack": "p", "total_runs": 0}])
        assert sweep_doc == {
            "schema_version": 1,
            "kind": "sweep-profile",
            "sweeps": [{"pack": "p", "total_runs": 0}],
        }
        path = tmp_path / "metrics.json"
        write_metrics_json(path, run_doc)
        assert json.loads(path.read_text()) == run_doc
        rendered = render_metrics(run_doc)
        assert "metrics schema v1 (run-profile)" in rendered
        assert "abc123" in rendered


# --------------------------------------------------------------------------- #
# Sweep profiling (worker-snapshot merge)
# --------------------------------------------------------------------------- #
class TestSweepProfiling:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_profiled_sweep_merges_worker_telemetry(self, workers):
        scenarios = [
            Scenario(dataset=dataset, accelerator="sgcn", **TINY)
            for dataset in ("cora", "citeseer")
        ]
        report = SweepRunner(workers=workers, profile=True).run(scenarios)
        assert report.num_failed == 0
        for outcome in report.outcomes:
            assert outcome.telemetry is not None
            assert outcome.telemetry.spans  # each run carries its own spans
        document = report.metrics_document(pack="test")
        assert document["pack"] == "test"
        assert document["total_runs"] == 2
        # Each per-run delta holds exactly one pass through the pipeline, so
        # the merged top-level span counts equal the number of runs.
        for stage in ("build_context", "schedule", "replay", "timing", "energy"):
            assert document["spans"][stage]["count"] == 2
        assert document["caches"]["trace"]["misses"] > 0
        assert document["elapsed_seconds"] == report.elapsed_s
        assert document["runs_per_second"] > 0
        # One task per topology, predicted cost next to measured seconds.
        tasks = document["tasks"]
        assert [task["topology"]["dataset"] for task in tasks] == ["cora", "citeseer"]
        for task, outcome in zip(tasks, report.outcomes):
            assert task["topology"] == {
                "dataset": outcome.scenario.dataset,
                "max_vertices": 64,
                "seed": 0,
            }
            assert task["members"] == 1
            assert task["predicted_cost"] > 0
            assert task["measured_s"] == outcome.elapsed_s > 0

    def test_unprofiled_sweep_carries_no_telemetry(self):
        scenario = Scenario(dataset="cora", accelerator="sgcn", **TINY)
        report = SweepRunner(workers=1).run([scenario])
        assert report.outcomes[0].telemetry is None
        assert report.metrics_document()["spans"] == {}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failure_round_trips_structured_traceback(self, workers):
        bad = Scenario(dataset="atlantis", accelerator="sgcn", **TINY)
        report = SweepRunner(workers=workers).run([bad])
        failed = report.failures[0]
        assert failed.error and "atlantis" in failed.error
        assert failed.error_type and failed.error.startswith(failed.error_type)
        assert failed.traceback and "Traceback (most recent call last)" in failed.traceback
        assert "atlantis" in failed.traceback

    def test_profiling_does_not_change_results(self):
        scenario = Scenario(dataset="cora", accelerator="sgcn", **TINY)
        plain = SweepRunner(workers=1).run([scenario]).outcomes[0]
        profiled = SweepRunner(workers=1, profile=True).run([scenario]).outcomes[0]
        assert json.dumps(plain.result.to_dict(), sort_keys=True) == json.dumps(
            profiled.result.to_dict(), sort_keys=True
        )


# --------------------------------------------------------------------------- #
# Digest invariance (identity neutrality)
# --------------------------------------------------------------------------- #
class TestDigestInvariance:
    def test_results_byte_identical_with_telemetry_enabled(self):
        """Telemetry observes; it must never perturb a result document."""
        specs = [
            RunSpec(dataset=dataset, accelerator=accelerator, variant=variant,
                    **TINY)
            for dataset in ("cora", "nell")
            for accelerator in ("sgcn", "gcnax", "igcn")
            for variant in ("gcn", "gin")
        ]
        plain = Session()
        baseline = [
            json.dumps(result.to_dict(), sort_keys=True)
            for result in plain.run_many(specs, annotate=False)
        ]
        telemetry.set_enabled(True)
        telemetry.reset_spans()
        traced = Session()
        instrumented = [
            json.dumps(result.to_dict(), sort_keys=True)
            for result in traced.run_many(specs, annotate=False)
        ]
        assert instrumented == baseline
        assert telemetry.span_snapshot()  # the runs actually recorded spans
        # The replay routes are decided by the data, never by telemetry.
        memo = plain.metrics_snapshot().caches["replay_memo"]
        assert traced.metrics_snapshot().caches["replay_memo"] == memo
        assert sum(memo[route] for route in ROUTES) == memo["misses"] > 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_outputs_byte_identical_with_profiling(self, tmp_path, workers):
        """Profiling (spans, counters, the task cost check) stays out of results."""
        scenarios = [
            Scenario(dataset=dataset, accelerator=accelerator, **TINY)
            for dataset in ("cora", "nell", "pubmed")
            for accelerator in ("sgcn", "gcnax")
        ]
        outputs = []
        for profile in (False, True):
            report = SweepRunner(workers=workers, profile=profile).run(scenarios)
            assert report.num_failed == 0
            csv_path = export_summary_csv(
                tmp_path / f"summary-{profile}.csv",
                [summary_row(o.scenario, o.result) for o in report.outcomes],
            )
            outputs.append(
                (
                    csv_path.read_bytes(),
                    [
                        json.dumps(o.result.to_dict(), sort_keys=True)
                        for o in report.outcomes
                    ],
                )
            )
            document = report.metrics_document()
            assert len(document["tasks"]) == 3
            if profile:
                memo = document["caches"]["replay_memo"]
                assert sum(memo[route] for route in ROUTES) == memo["misses"] > 0
        assert outputs[1] == outputs[0]


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestCliObservability:
    def test_profiled_sweep_writes_metrics_and_stats_renders_it(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "results"
        assert main(
            [
                "sweep", "hbm-generation", "--quick", "--profile",
                "--out", str(out_dir), "--max-vertices", "64",
            ]
        ) == 0
        capsys.readouterr()
        metrics_path = out_dir / "metrics.json"
        assert metrics_path.is_file()
        document = json.loads(metrics_path.read_text())
        assert document["schema_version"] == METRICS_SCHEMA_VERSION
        assert document["kind"] == "sweep-profile"
        (sweep,) = document["sweeps"]
        assert sweep["pack"] == "hbm-generation"
        assert sweep["simulated"] == sweep["total_runs"] > 0
        assert set(sweep["spans"]) >= {
            "build_context", "schedule", "replay", "timing", "energy",
        }
        assert sweep["cache_hit_ratios"]["trace"] is not None
        assert sweep["elapsed_seconds"] > 0 and sweep["runs_per_second"] > 0
        assert sum(task["members"] for task in sweep["tasks"]) == sweep["simulated"]

        assert main(["stats", str(metrics_path)]) == 0
        rendered = capsys.readouterr().out
        assert "sweep-profile" in rendered
        assert "replay" in rendered
        assert "runs/s" in rendered
        # Counters beyond the common ones are rendered too, the replay
        # routes among them.
        assert all(f"{key}=" in rendered for key in ("engines", *ROUTES))

    def test_profiled_sweep_attributes_dataset_loads_and_reorders(
        self, tmp_path, capsys
    ):
        """paper-comparison loads datasets and runs I-GCN's reorder: both are
        spans of the sweep, and recording them leaves every result as is."""
        results = {}
        for profile in (False, True):
            out_dir = tmp_path / f"profile-{profile}"
            assert main(
                [
                    "sweep", "paper-comparison", "--quick", "--no-cache",
                    "--out", str(out_dir), "--max-vertices", "64",
                ]
                + (["--profile"] if profile else [])
            ) == 0
            results[profile] = {
                path.name: path.read_bytes()
                for path in (out_dir / "paper-comparison").glob("*-*.json")
            }
        capsys.readouterr()
        assert len(results[True]) == 54
        assert results[True] == results[False]

        metrics = json.loads((tmp_path / "profile-True" / "metrics.json").read_text())
        spans = metrics["sweeps"][0]["spans"]
        # One load and one reorder per dataset; the reorder runs while the
        # I-GCN run builds its context.
        datasets = {name.split("-")[0] for name in results[True]}
        assert spans["dataset_load"]["count"] == len(datasets)
        reorder = spans["build_context"]["children"]["reorder"]
        assert reorder["count"] == len(datasets) and reorder["total_s"] > 0

    def test_profiled_run_writes_run_profile(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(
            [
                "run", "--dataset", "cora", "--max-vertices", "64",
                "--layers", "4", "--profile", "--metrics-out", str(metrics_path),
            ]
        ) == 0
        capsys.readouterr()
        document = json.loads(metrics_path.read_text())
        assert document["kind"] == "run-profile"
        assert "replay" in document["spans"]
        assert document["caches"]["trace"]["misses"] >= 1
        assert telemetry.is_enabled() is False  # the CLI restores the flag

    def test_stats_on_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "nope.json")]) == 2
        assert "no metrics document" in capsys.readouterr().err

    def test_quiet_suppresses_narration_but_not_data(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        assert main(
            [
                "--quiet", "sweep", "hbm-generation", "--quick",
                "--out", str(out_dir), "--max-vertices", "64",
            ]
        ) == 0
        assert capsys.readouterr().out == ""
        assert main(["--quiet", "list"]) == 0
        assert "paper-comparison" in capsys.readouterr().out

    def test_profiled_summary_csv_carries_sweep_throughput_columns(
        self, tmp_path, capsys
    ):
        import csv

        out_dir = tmp_path / "results"
        assert main(
            [
                "sweep", "hbm-generation", "--quick", "--profile",
                "--out", str(out_dir), "--max-vertices", "64",
            ]
        ) == 0
        capsys.readouterr()
        with (out_dir / "hbm-generation" / "summary.csv").open(
            encoding="utf-8", newline=""
        ) as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        elapsed = {row["sweep_elapsed_seconds"] for row in rows}
        throughput = {row["sweep_runs_per_second"] for row in rows}
        assert len(elapsed) == 1 and float(elapsed.pop()) > 0
        assert len(throughput) == 1 and float(throughput.pop()) > 0

    def test_unprofiled_summary_csv_stays_deterministic(self, tmp_path, capsys):
        # Wall-clock columns stay empty without --profile so summary.csv is
        # byte-identical across worker counts and reruns.
        csv_bytes = []
        for workers in ("1", "2"):
            out_dir = tmp_path / f"w{workers}"
            assert main(
                [
                    "sweep", "hbm-generation", "--quick",
                    "--workers", workers, "--no-cache",
                    "--out", str(out_dir), "--max-vertices", "64",
                ]
            ) == 0
            csv_bytes.append(
                (out_dir / "hbm-generation" / "summary.csv").read_bytes()
            )
        capsys.readouterr()
        assert csv_bytes[0] == csv_bytes[1]
        header, first_row = csv_bytes[0].decode("utf-8").splitlines()[:2]
        assert header.endswith("sweep_elapsed_seconds,sweep_runs_per_second")
        assert first_row.endswith(",,")
