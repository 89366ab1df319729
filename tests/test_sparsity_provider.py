"""Sparsity providers: profile bugfix, vectorized slice counts, measured mode.

Covers the measured-sparsity subsystem end to end:

* the :func:`layer_sparsity_profile` mean-drift fix (property-tested across
  the Table II range) plus a golden snapshot of the nine dataset profiles,
  guarding every cached scenario_id built on them;
* the vectorized :func:`per_slice_nonzeros` pinned to its loop reference;
* measured-vs-synthetic semantics: heterogeneous tables that flow into the
  replay stage, calibrated averages, byte-identical synthetic defaults, and
  Session-level memoization of the trained model.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from oracles import per_slice_nonzeros_reference
from repro import RunSpec, Session
from repro.accelerator.pipeline import (
    build_context,
    build_workloads,
    replay,
    resolve_sparsity_dataset,
    schedule,
)
from repro.accelerator.registry import DESIGN_POINTS
from repro.core.config import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.gcn.providers import (
    SPARSITY_MODES,
    MeasuredSparsityCache,
    MeasuredSparsityProvider,
    SyntheticSparsityProvider,
    depth_scaled_average_sparsity,
    make_sparsity_provider,
    resolve_sparsity_mode,
)
from repro.gcn.sparsity import (
    layer_sparsity_profile,
    per_slice_nonzeros,
    row_nonzero_distribution,
    sparsity_vs_depth,
)
from repro.graphs.datasets import DATASET_SPECS, load_dataset

TINY = dict(max_vertices=96, num_layers=4)


def digest(result) -> str:
    doc = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------- #
# layer_sparsity_profile: mean drift fix
# --------------------------------------------------------------------------- #
class TestProfileMean:
    @pytest.mark.parametrize("name", sorted(DATASET_SPECS))
    @pytest.mark.parametrize("num_layers", [1, 4, 12, 28])
    def test_table_ii_targets_hit_exactly(self, name, num_layers):
        target = DATASET_SPECS[name].intermediate_sparsity
        profile = layer_sparsity_profile(num_layers, target, seed=0)
        assert len(profile) == num_layers
        assert abs(float(np.mean(profile)) - target) <= 1e-9

    @pytest.mark.parametrize("target", [0.05, 0.0501, 0.3, 0.5, 0.7, 0.88, 0.899, 0.9])
    @pytest.mark.parametrize("num_layers", [1, 2, 7, 28, 64])
    @pytest.mark.parametrize("seed", [0, 1, 7, None])
    def test_clipped_targets_converge(self, target, num_layers, seed):
        # 0.88 / 0.05 are the historical drift cases (0.8761 / 0.0619 before
        # the redistribution fix); every target inside [floor, ceiling] must
        # now land within 1e-9.
        profile = layer_sparsity_profile(num_layers, target, seed=seed)
        assert abs(float(np.mean(profile)) - target) <= 1e-9
        assert min(profile) >= 0.05 - 1e-12
        assert max(profile) <= 0.90 + 1e-12

    def test_randomized_targets_converge(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            target = float(rng.uniform(0.05, 0.90))
            num_layers = int(rng.integers(1, 40))
            profile = layer_sparsity_profile(num_layers, target, seed=int(rng.integers(0, 100)))
            assert abs(float(np.mean(profile)) - target) <= 1e-9

    def test_target_outside_band_saturates(self):
        # Unreachable targets pin every layer to the nearest bound instead of
        # looping forever.
        low = layer_sparsity_profile(8, 0.01, seed=0)
        assert low == [0.05] * 8
        high = layer_sparsity_profile(8, 0.99, seed=0)
        assert high == [0.90] * 8

    def test_dataset_profile_golden_snapshot(self):
        """Pin the nine default 28-layer profiles (first/mid/last layer).

        These feed every synthetic-mode simulation: a change here knowingly
        invalidates all cached sweeps (the redistribution fix is a no-op for
        the Table II targets because the clip never binds at defaults).
        """
        golden = {
            "cora": (0.605948, 0.640738, 0.704999),
            "citeseer": (0.641948, 0.676738, 0.740999),
            "pubmed": (0.651948, 0.686738, 0.750999),
            "nell": (0.454948, 0.489738, 0.553999),
            "reddit": (0.528948, 0.563738, 0.627999),
            "flickr": (0.409948, 0.444738, 0.508999),
            "yelp": (0.584948, 0.619738, 0.683999),
            "dblp": (0.539948, 0.574738, 0.638999),
            "github": (0.390948, 0.425738, 0.489999),
        }
        for name, (first, mid, last) in golden.items():
            dataset = load_dataset(name, max_vertices=64)
            profile = dataset.layer_sparsities()
            assert len(profile) == 28
            for got, expected in zip(
                (profile[0], profile[14], profile[27]), (first, mid, last)
            ):
                assert got == pytest.approx(expected, abs=1e-6), name


# --------------------------------------------------------------------------- #
# per_slice_nonzeros vectorization
# --------------------------------------------------------------------------- #
class TestPerSliceNonzeros:
    def test_randomized_equivalence_with_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            rows = int(rng.integers(1, 50))
            width = int(rng.integers(1, 300))
            slice_size = int(rng.integers(1, width + 8))
            density = float(rng.random())
            matrix = rng.normal(size=(rows, width)) * (rng.random((rows, width)) < density)
            expected = per_slice_nonzeros_reference(matrix, slice_size)
            got = per_slice_nonzeros(matrix, slice_size)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    def test_ragged_last_slice(self):
        matrix = np.ones((3, 10))
        counts = per_slice_nonzeros(matrix, 4)
        assert counts.shape == (3, 3)
        assert np.array_equal(counts, [[4, 4, 2]] * 3)

    def test_rejects_bad_inputs(self):
        with pytest.raises(SimulationError):
            per_slice_nonzeros(np.ones(5), 2)
        with pytest.raises(SimulationError):
            per_slice_nonzeros(np.ones((2, 3)), 0)


# --------------------------------------------------------------------------- #
# Provider semantics
# --------------------------------------------------------------------------- #
class TestProviders:
    def test_mode_resolution(self):
        assert resolve_sparsity_mode(None) is None
        assert resolve_sparsity_mode("Measured_Residual") == "measured"
        assert resolve_sparsity_mode("SYNTHETIC") == "synthetic"
        assert resolve_sparsity_mode("traditional") == "measured-traditional"
        with pytest.raises(ConfigurationError, match="unknown sparsity mode"):
            resolve_sparsity_mode("bogus")
        for mode in SPARSITY_MODES:
            provider = make_sparsity_provider(mode)
            assert provider.name == mode

    def test_synthetic_provider_matches_historical_draw(self):
        dataset = load_dataset("cora", **TINY)
        provider = SyntheticSparsityProvider()
        assert provider.layer_profile(dataset) is None
        row_nnz, slice_nnz = provider.layer_tables(
            dataset, layer_index=3, num_rows=96, width=256,
            sparsity=0.6, slice_size=96, seed=5,
        )
        expected = row_nonzero_distribution(
            num_rows=96, width=256, sparsity=0.6, seed=5 + 3
        )
        assert slice_nnz is None
        assert np.array_equal(row_nnz, expected)

    def test_measured_tables_are_heterogeneous_and_consistent(self):
        dataset = load_dataset("cora", **TINY)
        provider = MeasuredSparsityProvider()
        row_nnz, slice_nnz = provider.layer_tables(
            dataset, layer_index=2, num_rows=dataset.num_vertices,
            width=dataset.hidden_width, sparsity=0.6, slice_size=96, seed=0,
        )
        assert row_nnz.shape == (dataset.num_vertices,)
        assert len(np.unique(row_nnz)) > 3  # heterogeneous rows
        assert slice_nnz is not None
        assert slice_nnz.shape == (dataset.num_vertices, 3)  # 256 / 96 slices
        assert np.array_equal(slice_nnz.sum(axis=1), row_nnz)
        # per-slice distribution is measured, not an even split
        even = np.ptp(slice_nnz, axis=1)
        assert even.max() > 1

    def test_measured_profile_lands_on_published_average(self):
        dataset = load_dataset("cora", max_vertices=128)  # default 28 layers
        provider = MeasuredSparsityProvider()
        profile = provider.layer_profile(dataset)
        assert len(profile) == 28
        assert float(np.mean(profile)) == pytest.approx(
            dataset.intermediate_sparsity, abs=0.02
        )

    def test_traditional_mode_tracks_fig2a_curve(self):
        dataset = load_dataset("pubmed", **TINY)
        residual = MeasuredSparsityProvider(residual=True)
        traditional = MeasuredSparsityProvider(residual=False)
        mean_residual = float(np.mean(residual.layer_profile(dataset)))
        mean_traditional = float(np.mean(traditional.layer_profile(dataset)))
        assert mean_traditional < mean_residual
        assert mean_traditional == pytest.approx(
            depth_scaled_average_sparsity(
                dataset.intermediate_sparsity, dataset.num_layers, False
            ),
            abs=0.03,
        )

    def test_depth_scaling_anchored_at_paper_operating_point(self):
        assert depth_scaled_average_sparsity(0.661, 28, True) == pytest.approx(0.661)
        assert depth_scaled_average_sparsity(0.661, 4, True) < 0.661
        assert depth_scaled_average_sparsity(0.661, 28, False) < \
            depth_scaled_average_sparsity(0.661, 28, True)
        # monotone in depth for residual networks, like sparsity_vs_depth
        assert sparsity_vs_depth(28, True) > sparsity_vs_depth(4, True)

    def test_harvest_memoized_per_topology(self):
        cache = MeasuredSparsityCache(max_entries=4)
        provider = MeasuredSparsityProvider(cache=cache)
        dataset = load_dataset("cora", **TINY)
        first = provider.measure(dataset)
        again = provider.measure(dataset)
        assert again is first
        stats = cache.stats()
        assert (stats["entries"], stats["hits"], stats["misses"]) == (1, 1, 1)
        assert stats["evictions"] == 0
        # Harvests report their mask + slice-table footprint to the gauge.
        assert stats["bytes"] > 0
        other_depth = dataset.with_layers(3)
        assert provider.measure(other_depth) is not first
        assert cache.stats()["misses"] == 2


# --------------------------------------------------------------------------- #
# Pipeline integration
# --------------------------------------------------------------------------- #
class TestPipelineIntegration:
    def test_measured_row_tables_flow_into_replay(self):
        """Acceptance: measured per-row line-count tables reach ReplayEngine."""
        dataset = load_dataset("cora", **TINY)
        design = DESIGN_POINTS["sgcn"]
        config = SystemConfig()

        def replayed_layers(provider):
            resolved = resolve_sparsity_dataset(dataset, provider)
            fmt = design.format_instance()
            context = build_context(design, fmt, resolved, config, sparsity=provider)
            context.plan = schedule(
                design, fmt, resolved, context.graph, config.schedule
            )
            return replay(
                context, build_workloads(resolved), seed=0, max_sampled_layers=6
            )

        measured = replayed_layers(MeasuredSparsityProvider())
        synthetic = replayed_layers(None)
        assert measured.layers and synthetic.layers
        for layer in measured.layers:
            # heterogeneous per-row transfer-size tables, consumed by the
            # cache replay (layer.replay is the engine's output over them)
            assert len(np.unique(layer.row_lines)) > 1
            assert layer.replay is not None
            assert layer.replay.accesses > 0
        measured_tables = [layer.row_lines for layer in measured.layers]
        synthetic_tables = [layer.row_lines for layer in synthetic.layers]
        assert any(
            not np.array_equal(m, s)
            for m, s in zip(measured_tables, synthetic_tables)
        )

    def test_measured_results_do_not_depend_on_earlier_depths(self):
        """A run's row tables come from its own depth's harvest.

        At 512 vertices, a sampled layer of github's 4- and 8-layer
        traditional models shares its index, width and input sparsity, so
        a row-table cache key without the depth served the 8-layer run the
        4-layer run's tables whenever both ran in one session.
        """
        specs = [
            RunSpec(
                dataset="github",
                accelerator="sgcn",
                max_vertices=512,
                max_sampled_layers=6,
                num_layers=depth,
                sparsity="measured-traditional",
            )
            for depth in (4, 8)
        ]
        session = Session()
        session.run(specs[0])
        after_shallow = session.run(specs[1]).summary()
        assert after_shallow == Session().run(specs[1]).summary()

    def test_measured_profile_reaches_workloads(self):
        dataset = load_dataset("cora", **TINY)
        provider = MeasuredSparsityProvider()
        resolved = resolve_sparsity_dataset(dataset, provider)
        workloads = build_workloads(resolved)
        measured_profile = provider.layer_profile(dataset)
        assert [w.output_sparsity for w in workloads] == pytest.approx(
            measured_profile
        )
        # the original memoized dataset instance is untouched
        assert dataset.layer_sparsities() != measured_profile

    def test_measured_tables_follow_the_walked_graph(self):
        """Derived graphs (reorder/transpose) relabel ids: tables must be
        harvested on the graph the trace walks, not the dataset's."""
        dataset = load_dataset("cora", **TINY)
        provider = MeasuredSparsityProvider()
        transposed = dataset.graph.transpose()
        row_direct, _ = provider.layer_tables(
            dataset, layer_index=2, num_rows=dataset.num_vertices,
            width=dataset.hidden_width, sparsity=0.6, slice_size=None, seed=0,
        )
        row_walked, _ = provider.layer_tables(
            dataset, layer_index=2, num_rows=dataset.num_vertices,
            width=dataset.hidden_width, sparsity=0.6, slice_size=None, seed=0,
            graph=transposed,
        )
        # one harvest per topology fingerprint...
        assert provider.cache.stats()["misses"] == 2
        # ...and the walked-graph harvest is its own measurement
        assert not np.array_equal(row_direct, row_walked)

    def test_harvest_drops_float_traces(self):
        provider = MeasuredSparsityProvider()
        dataset = load_dataset("cora", **TINY)
        measured = provider.measure(dataset)
        assert measured.model.traces() == []
        assert measured.model._forward_cache is None
        # The layers' saved inputs are activations too.
        assert all(layer.linear._input is None for layer in measured.model.layers)
        with pytest.raises(SimulationError, match="before forward"):
            measured.model.backward(dataset.graph, np.zeros((1, 1), dtype=np.float32))

    def test_first_layer_never_queries_measured_tables(self):
        provider = MeasuredSparsityProvider()
        dataset = load_dataset("cora", **TINY)
        with pytest.raises(SimulationError, match="intermediate"):
            provider.layer_tables(
                dataset, layer_index=0, num_rows=96, width=256,
                sparsity=0.9, slice_size=None, seed=0,
            )


# --------------------------------------------------------------------------- #
# RunSpec / Session / sweep integration
# --------------------------------------------------------------------------- #
class TestRunSpecAxis:
    def test_sparsity_only_enters_identity_when_set(self):
        plain = RunSpec(dataset="cora", accelerator="sgcn")
        assert "sparsity" not in plain.key()
        assert "sparsity" not in plain.to_dict()
        for mode in SPARSITY_MODES:
            spec = RunSpec(dataset="cora", accelerator="sgcn", sparsity=mode)
            assert spec.key()["sparsity"] == mode
            assert spec.scenario_id != plain.scenario_id

    def test_alias_spellings_share_identity(self):
        a = RunSpec(dataset="cora", accelerator="sgcn", sparsity="measured")
        b = RunSpec(dataset="cora", accelerator="sgcn", sparsity="Measured_Residual")
        assert a == b and a.scenario_id == b.scenario_id

    def test_round_trip_and_label(self):
        spec = RunSpec(
            dataset="pubmed", accelerator="sgcn", sparsity="measured", **TINY
        )
        rebuilt = RunSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert "measured" in spec.label()

    def test_validate_rejects_unknown_mode(self):
        spec = RunSpec(dataset="cora", accelerator="sgcn", sparsity="guessed")
        with pytest.raises(ConfigurationError, match="unknown sparsity mode"):
            spec.validate()


class TestSessionIntegration:
    def test_synthetic_mode_byte_identical_to_default(self):
        session = Session()
        default = session.run(RunSpec(dataset="cora", accelerator="sgcn", **TINY))
        synthetic = session.run(
            RunSpec(dataset="cora", accelerator="sgcn", sparsity="synthetic", **TINY)
        )
        assert digest(default) == digest(synthetic)
        assert session.measurement_cache.stats()["misses"] == 0

    def test_measured_mode_changes_results(self):
        session = Session()
        default = session.run(RunSpec(dataset="cora", accelerator="sgcn", **TINY))
        measured = session.run(
            RunSpec(dataset="cora", accelerator="sgcn", sparsity="measured", **TINY)
        )
        assert digest(default) != digest(measured)

    def test_session_memoizes_trained_model_across_runs(self):
        session = Session()
        spec = RunSpec(dataset="cora", accelerator="sgcn", sparsity="measured", **TINY)
        session.run(spec)
        assert session.measurement_cache.stats()["misses"] == 1
        model = next(
            iter(session.measurement_cache._entries.values())
        ).model
        # A second run — and a different accelerator on the same topology —
        # reuse the same harvest (and therefore the same trained model).
        session.run(spec)
        session.run(
            RunSpec(dataset="cora", accelerator="gcnax", sparsity="measured", **TINY)
        )
        assert session.measurement_cache.stats()["misses"] == 1
        assert next(
            iter(session.measurement_cache._entries.values())
        ).model is model
        hits = session.measurement_cache.stats()["hits"]
        session.clear_caches()
        assert session.measurement_cache.stats() == {
            "entries": 0, "hits": hits, "misses": 1, "evictions": 1, "bytes": 0,
        }

    def test_measured_mode_works_across_accelerators(self):
        session = Session()
        for accelerator in ("sgcn", "gcnax", "igcn", "awb_gcn"):
            result = session.run(
                RunSpec(
                    dataset="cora", accelerator=accelerator,
                    sparsity="measured", **TINY,
                )
            )
            assert result.total_cycles > 0


class TestSweepIntegration:
    def test_sparsities_axis_expands_and_validates(self):
        from repro.experiments.spec import SweepSpec

        spec = SweepSpec(
            name="t", datasets=("cora",), accelerators=("sgcn",),
            sparsities=(None, "measured"), max_vertices=96,
        )
        scenarios = spec.expand()
        assert len(scenarios) == spec.num_scenarios == 2
        assert {scenario.sparsity for scenario in scenarios} == {None, "measured"}
        rebuilt = SweepSpec.from_dict(spec.to_dict())
        assert [s.scenario_id for s in rebuilt.expand()] == [
            s.scenario_id for s in scenarios
        ]

    def test_sparsity_depth_pack_shapes(self):
        from repro.experiments.scenarios import get_pack

        full = get_pack("sparsity-depth")
        assert full.num_scenarios == 24  # 3 datasets x 4 depths x 2 modes
        quick = get_pack("sparsity-depth", quick=True)
        scenarios = quick.expand()
        assert len(scenarios) == 4  # 1 dataset x 2 depths x 2 modes
        assert all(s.sparsity in ("measured", "measured-traditional") for s in scenarios)

    def test_quick_pack_runs_through_sweep_runner(self, tmp_path):
        from repro.experiments.runner import SweepRunner
        from repro.experiments.scenarios import get_pack
        from repro.experiments.store import ResultStore

        scenarios = get_pack("sparsity-depth", quick=True).expand()
        store = ResultStore(tmp_path / "cache")
        report = SweepRunner(store=store).run(scenarios)
        assert report.num_failed == 0
        assert report.num_simulated == len(scenarios)
        again = SweepRunner(store=store).run(scenarios)
        assert again.num_cached == len(scenarios)

    def test_cli_run_accepts_sparsity_flag(self, capsys):
        from repro.experiments.cli import main

        code = main([
            "run", "--dataset", "cora", "--accelerator", "sgcn",
            "--sparsity", "measured", "--max-vertices", "96",
        ])
        assert code == 0
        row = json.loads(capsys.readouterr().out)
        assert row["sparsity"] == "measured"
        assert row["cycles"] > 0
