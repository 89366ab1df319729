"""Session-level trace caching and the bench harness."""

import json

from repro.core.runspec import RunSpec
from repro.core.session import Session
from repro.experiments.cli import main


class TestSessionTraceCache:
    def test_sweep_over_timing_knobs_reuses_traces(self):
        # Cache-size and frequency overrides change timing, not the schedule
        # shape here: plan_tiling sees the same inputs, so the trace and its
        # replay structure are built once and reused across the grid.
        session = Session()
        specs = [
            RunSpec(
                dataset="cora",
                accelerator="gcnax",
                max_vertices=128,
                overrides={"frequency_ghz": freq},
            )
            for freq in (0.8, 1.0, 1.2, 1.4)
        ]
        session.run_many(specs)
        stats = session.trace_cache.stats()
        first_run_misses = stats["misses"]
        # Everything shareable (trace, engine, per-layer row tables) was
        # built exactly once: the remaining runs add no misses at all.
        session.run_many(specs)
        stats = session.trace_cache.stats()
        assert stats["misses"] == first_run_misses
        assert stats["hits"] >= 3 * len(specs)

    def test_cached_results_identical_to_cold_session(self):
        spec = RunSpec(dataset="citeseer", accelerator="sgcn", max_vertices=128)
        warm = Session()
        first = warm.run(spec).to_dict()
        second = warm.run(spec).to_dict()  # trace-cache hit path
        cold = Session().run(spec).to_dict()
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
        assert json.dumps(first, sort_keys=True) == json.dumps(cold, sort_keys=True)

    def test_reordered_graph_cached_for_igcn(self):
        session = Session()
        spec = RunSpec(dataset="cora", accelerator="igcn", max_vertices=128)
        session.run(spec)
        misses_after_first = session.trace_cache.stats()["misses"]
        session.run(spec)
        assert session.trace_cache.stats()["misses"] == misses_after_first

    def test_run_many_holds_one_graph_at_a_time(self, monkeypatch):
        # Two topologies interleaved in the input: run_many runs each one's
        # specs back to back, so no trace-cache key is built twice, the cache
        # ends holding only the last graph's entries, and every result equals
        # a fresh session's.
        from repro.memory.replay import TraceCache

        specs = [
            RunSpec(dataset=dataset, accelerator=accelerator, max_vertices=64,
                    num_layers=4)
            for accelerator in ("sgcn", "igcn", "gcnax")
            for dataset in ("cora", "citeseer")
        ]
        session = Session()
        built = {}  # key -> dataset of the run that built it
        running = []
        run, lookup = Session.run, TraceCache.get

        def logged_run(self, spec, **kwargs):
            running.append(spec.dataset)
            return run(self, spec, **kwargs)

        def logged_get(self, key, builder):
            if key not in self:
                assert key not in built, key
                built[key] = running[-1]
            return lookup(self, key, builder)

        monkeypatch.setattr(Session, "run", logged_run)
        monkeypatch.setattr(TraceCache, "get", logged_get)
        results = session.run_many(specs)
        monkeypatch.undo()
        assert running == ["cora"] * 3 + ["citeseer"] * 3
        resident = [key for key in built if key in session.trace_cache]
        assert len(resident) == len(session.trace_cache) > 0
        assert {built[key] for key in resident} == {"citeseer"}
        assert "cora" in built.values()
        fresh = [Session().run(spec, annotate=True) for spec in specs]
        assert [json.dumps(r.to_dict(), sort_keys=True) for r in results] == [
            json.dumps(r.to_dict(), sort_keys=True) for r in fresh
        ]

    def test_clear_caches_drops_traces(self):
        session = Session()
        session.run(RunSpec(dataset="cora", accelerator="gcnax", max_vertices=128))
        assert len(session.trace_cache) > 0
        session.clear_caches()
        assert len(session.trace_cache) == 0


class TestBenchHarness:
    def test_bench_pack_reports_speedup(self):
        from repro.bench import bench_pack

        result = bench_pack(
            "hbm-generation", max_vertices=96, repeats=1, sensitivity=True
        )
        assert result.runs == 18
        assert result.vectorized_s > 0 and result.spectrum_s > 0
        assert result.spectrum_speedup == result.vectorized_s / result.spectrum_s
        assert result.replay_classes == 9
        document = result.to_dict()
        assert {"pack", "runs", "vectorized_s", "spectrum_speedup"} <= set(document)
        assert "legacy_s" not in document and "speedup" not in document

    def test_run_benchmarks_schema_and_output(self, tmp_path):
        from repro.bench import BENCH_SCHEMA_VERSION, run_benchmarks

        out = tmp_path / "BENCH_test.json"
        document = run_benchmarks(cases=[("hbm-generation", 96)], repeats=1, out=out)
        assert out.exists()
        loaded = json.loads(out.read_text())
        assert loaded == json.loads(json.dumps(document))
        assert loaded["benchmark"] == "trace_engine"
        assert loaded["schema_version"] == BENCH_SCHEMA_VERSION == 4
        assert "legacy_s" not in loaded["results"][0]
        assert "overall_speedup" not in loaded["summary"]
        assert loaded["summary"]["total_vectorized_s"] > 0

    def test_cli_bench_quick(self, tmp_path, capsys):
        out = tmp_path / "BENCH_quick.json"
        code = main(["bench", "--quick", "--out", str(out)])
        assert code == 0
        assert out.exists()
        loaded = json.loads(out.read_text())
        assert loaded["quick"] is True
        assert loaded["results"][0]["vectorized_s"] > 0
        stdout = capsys.readouterr().out
        assert "vectorized=" in stdout and "wrote" in stdout
