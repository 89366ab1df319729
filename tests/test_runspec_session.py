"""RunSpec/Session API: validation, round-trips, memoization, shim parity."""

from __future__ import annotations

import json

import pytest

import repro.core.session as session_module
from repro import RunSpec, Session, compare_accelerators, simulate
from repro.errors import (
    ConfigurationError,
    DatasetError,
    FormatError,
    SimulationError,
)
from repro.graphs.datasets import load_dataset

TINY = dict(max_vertices=64, num_layers=4)


# --------------------------------------------------------------------------- #
# RunSpec validation and serialisation
# --------------------------------------------------------------------------- #
def test_runspec_validate_accepts_good_spec():
    spec = RunSpec(dataset="cora", accelerator="sgcn", **TINY)
    assert spec.validate() is spec


@pytest.mark.parametrize(
    "kwargs, match",
    [
        (dict(dataset="atlantis", accelerator="sgcn"), "unknown dataset"),
        (dict(dataset="cora", accelerator="tpu"), "unknown accelerator"),
        (dict(dataset="cora", accelerator="sgcn", variant="gat"), "variant"),
        (dict(dataset="cora", accelerator="sgcn", num_layers=0), "num_layers"),
        (dict(dataset="cora", accelerator="sgcn", max_vertices=1), "max_vertices"),
        (dict(dataset="cora", accelerator="sgcn", max_sampled_layers=0),
         "max_sampled_layers"),
        (dict(dataset="cora", accelerator="sgcn", overrides={"warp": 1}),
         "unknown SystemConfig override"),
    ],
)
def test_runspec_validate_rejects_bad_fields(kwargs, match):
    with pytest.raises(ConfigurationError, match=match):
        RunSpec(**kwargs).validate()


def test_runspec_validate_rejects_unknown_format_override():
    spec = RunSpec(dataset="cora", accelerator="sgcn", feature_format="parquet")
    with pytest.raises(FormatError, match="unknown format"):
        spec.validate()


def test_runspec_dict_round_trip_including_new_fields():
    spec = RunSpec(
        dataset="pubmed", accelerator="awb-gcn", variant="sage", seed=3,
        max_vertices=256, num_layers=12, feature_format="BEICSR",
        overrides={"cache_capacity_bytes": 262144}, tag="x",
    )
    rebuilt = RunSpec.from_dict(spec.to_dict())
    assert rebuilt == spec
    assert rebuilt.scenario_id == spec.scenario_id
    assert rebuilt.accelerator == "awb_gcn"
    assert rebuilt.feature_format == "beicsr"  # canonical folding


def test_feature_format_only_enters_identity_when_set():
    plain = RunSpec(dataset="cora", accelerator="sgcn")
    assert "feature_format" not in plain.key()
    assert "feature_format" not in plain.to_dict()
    overridden = RunSpec(dataset="cora", accelerator="sgcn", feature_format="csr")
    assert overridden.key()["feature_format"] == "csr"
    assert overridden.scenario_id != plain.scenario_id


def test_run_id_aliases_scenario_id():
    spec = RunSpec(dataset="cora", accelerator="sgcn")
    assert spec.run_id == spec.scenario_id


# --------------------------------------------------------------------------- #
# scenario_id stability (content-addressed cache compatibility)
# --------------------------------------------------------------------------- #
#: Frozen (kwargs, scenario_id) pairs captured from the pre-RunSpec Scenario
#: implementation.  A change here invalidates every existing ResultStore
#: cache — bump repro.experiments.store.SCHEMA_VERSION if you mean it.
GOLDEN_SCENARIO_IDS = [
    ({"dataset": "cora", "accelerator": "sgcn"}, "efb5953a7650"),
    ({"dataset": "CORA", "accelerator": "SGCN", "tag": "label"}, "efb5953a7650"),
    ({"dataset": "cora", "accelerator": "i-gcn"}, "94e0c71c2b54"),
    ({"dataset": "pubmed", "accelerator": "awb-gcn", "variant": "sage",
      "seed": 3, "max_vertices": 256, "num_layers": 12,
      "overrides": {"cache_capacity_bytes": 262144, "dram": "hbm1"},
      "tag": "x"}, "a7e424b1b8b1"),
    ({"dataset": "citeseer", "accelerator": "gcnax", "variant": "gin",
      "seed": 7, "max_vertices": 128, "max_sampled_layers": 4,
      "num_layers": 8}, "d5ce3ecdc608"),
    ({"dataset": "reddit", "accelerator": "hygcn",
      "overrides": {"num_engines": 16, "dram_bandwidth_gbps": 512.0}},
     "c5f8c332a8d0"),
    ({"dataset": "github", "accelerator": "engn", "seed": 2,
      "overrides": {"pipeline_phases": False}}, "7a4c2c24b090"),
    ({"dataset": "yelp", "accelerator": "sgcn_no_sac", "max_vertices": 4096},
     "ed297669d299"),
]


@pytest.mark.parametrize("kwargs, expected", GOLDEN_SCENARIO_IDS)
def test_scenario_id_matches_pre_runspec_golden(kwargs, expected):
    assert RunSpec(**kwargs).scenario_id == expected


# --------------------------------------------------------------------------- #
# Session memoization
# --------------------------------------------------------------------------- #
def test_session_reuses_one_dataset_across_a_batch(monkeypatch):
    calls = []
    real_load = session_module._load_dataset

    def counting_load(name, **kwargs):
        calls.append(name)
        return real_load(name, **kwargs)

    monkeypatch.setattr(session_module, "_load_dataset", counting_load)
    session = Session()
    specs = [
        RunSpec(dataset="cora", accelerator=name, **TINY)
        for name in ("gcnax", "hygcn", "sgcn")
    ]
    results = session.run_many(specs)
    assert all(result is not None for result in results)
    assert calls == ["cora"]  # one topology build for three runs
    assert session.load_dataset("cora", max_vertices=64, num_layers=4) is (
        session.load_dataset("cora", max_vertices=64, num_layers=4)
    )


def test_session_dataset_cache_is_bounded_lru():
    session = Session(max_cached_datasets=2)
    a = session.load_dataset("cora", max_vertices=64)
    session.load_dataset("citeseer", max_vertices=64)
    assert session.load_dataset("cora", max_vertices=64) is a  # refreshed
    session.load_dataset("pubmed", max_vertices=64)  # evicts citeseer
    assert len(session._datasets) == 2
    assert session.load_dataset("cora", max_vertices=64) is a  # survived


def test_session_rejects_dataset_codes_and_shares_one_entry_per_name():
    session = Session()
    with pytest.raises(DatasetError, match="available: citeseer, cora"):
        session.load_dataset("cr", max_vertices=64)
    padded = session.load_dataset(" Cora ", max_vertices=64)
    assert session.load_dataset("cora", max_vertices=64) is padded
    # The rejected name built nothing, so it is no miss.
    counters = session.metrics_snapshot().caches["dataset"]
    assert (counters["misses"], counters["hits"], counters["entries"]) == (1, 1, 1)


def test_session_memoizes_accelerator_instances():
    session = Session()
    assert session.accelerator("sgcn") is session.accelerator("SGCN")
    assert session.accelerator("i-gcn") is session.accelerator("igcn")
    overridden = session.accelerator("gcnax", feature_format="csr")
    assert overridden != session.accelerator("gcnax")
    assert overridden.feature_format == "csr"


def test_session_compare_rejects_mixed_datasets_and_duplicates():
    session = Session()
    mixed = [
        RunSpec(dataset="cora", accelerator="gcnax", **TINY),
        RunSpec(dataset="pubmed", accelerator="sgcn", **TINY),
    ]
    with pytest.raises(SimulationError, match="same dataset"):
        session.compare(mixed, baseline="gcnax")
    duplicated = [
        RunSpec(dataset="cora", accelerator="gcnax", seed=0, **TINY),
        RunSpec(dataset="cora", accelerator="gcnax", seed=1, **TINY),
    ]
    with pytest.raises(SimulationError, match="one spec per accelerator"):
        session.compare(duplicated, baseline="gcnax")
    # One dataset at two scales is two graphs: their "speedups" mean nothing.
    scales = [
        RunSpec(dataset="cora", accelerator="gcnax", max_vertices=64, num_layers=4),
        RunSpec(dataset="cora", accelerator="sgcn", max_vertices=256, num_layers=4),
    ]
    with pytest.raises(SimulationError, match="cora@64 seed 0, cora@256 seed 0"):
        session.compare(scales, baseline="gcnax")
    seeds = [
        RunSpec(dataset="cora", accelerator="gcnax", seed=0, **TINY),
        RunSpec(dataset="cora", accelerator="sgcn", seed=1, **TINY),
    ]
    with pytest.raises(SimulationError, match="seed 0, cora@64 seed 1"):
        session.compare(seeds, baseline="gcnax")


def test_simulate_derived_format_point_matches_design_axis():
    # The derived point's format reaches the run: it is the spec's design
    # override, not dropped in favour of the registered point's format.
    point = Session().accelerator("gcnax").with_format("csr")
    via_shim = simulate(load_dataset("cora", **TINY), point)
    via_axis = Session().run(
        RunSpec(dataset="cora", accelerator="gcnax", design={"feature_format": "csr"},
                **TINY)
    )
    assert _as_bytes(via_shim) == _as_bytes(via_axis)
    native = Session().run(RunSpec(dataset="cora", accelerator="gcnax", **TINY))
    assert _as_bytes(via_shim) != _as_bytes(native)


def test_config_for_layers_overrides_on_session_base():
    from repro.core.config import SystemConfig

    plain = Session()
    spec = RunSpec(dataset="cora", accelerator="sgcn", **TINY)
    assert plain.config_for(spec) is None  # model defaults apply

    overridden = RunSpec(dataset="cora", accelerator="sgcn",
                         overrides={"num_engines": 4}, **TINY)
    config = plain.config_for(overridden)
    assert config.engines.num_aggregation_engines == 4

    base = SystemConfig()
    with_base = Session(config=base)
    assert with_base.config_for(spec) is base
    layered = with_base.config_for(overridden)
    assert layered.engines.num_aggregation_engines == 4
    assert layered.cache == base.cache


def test_compare_shim_rejects_unregistered_design_point(monkeypatch):
    from repro.accelerator.design import SGCN_DESIGN, DesignPoint

    def explode(*args, **kwargs):
        raise AssertionError("simulated an inexpressible design point")

    monkeypatch.setattr(session_module, "simulate_design", explode)
    my_accel = DesignPoint.from_dict({**SGCN_DESIGN.to_dict(), "name": "My-Accel"})
    renamed = SGCN_DESIGN.derive(display_name="Mine")
    dataset = load_dataset("cora", max_vertices=64, num_layers=4)
    for point in (my_accel, renamed):
        with pytest.raises(ConfigurationError, match="simulate_design"):
            compare_accelerators(dataset, [point, "gcnax"], baseline="gcnax")


def test_compare_shim_rejects_repeated_design_names(monkeypatch):
    from repro.accelerator.registry import get_design

    def explode(*args, **kwargs):
        raise AssertionError("simulated before the duplicate check")

    monkeypatch.setattr(session_module, "simulate_design", explode)
    dataset = load_dataset("cora", max_vertices=64, num_layers=4)
    half = get_design("gcnax").derive(tiling_fill_fraction=0.5)
    for entries in ([half, "gcnax"], ["sgcn", "SGCN"]):
        with pytest.raises(SimulationError, match="one spec per accelerator"):
            compare_accelerators(dataset, entries, baseline="gcnax")


def test_compare_shim_accepts_alias_baseline():
    dataset = load_dataset("cora", max_vertices=64, num_layers=4)
    comparison = compare_accelerators(
        dataset, ["awb-gcn", "gcnax"], baseline="awb-gcn"
    )
    assert comparison.baseline == "awb_gcn"
    assert comparison.speedups("awb_gcn")["awb_gcn"] == pytest.approx(1.0)


def test_use_format_copies_instead_of_mutating_cached_models():
    session = Session()
    native = session.accelerator("sgcn")
    native_format = native.feature_format
    overridden = native.with_format("csr")
    assert overridden is not native
    assert overridden.feature_format == "csr"
    # The session's memoized point is untouched, so later runs with no
    # format override still use the design's native format.
    assert session.accelerator("sgcn").feature_format == native_format


def test_feature_format_override_changes_traffic():
    session = Session()
    native = session.run(RunSpec(dataset="cora", accelerator="gcnax", **TINY))
    compressed = session.run(
        RunSpec(dataset="cora", accelerator="gcnax", feature_format="beicsr", **TINY)
    )
    assert compressed.total_cycles > 0
    assert compressed.dram_traffic_bytes != native.dram_traffic_bytes


# --------------------------------------------------------------------------- #
# Shim equivalence: classic API == Session API, byte for byte
# --------------------------------------------------------------------------- #
def _as_bytes(result) -> str:
    return json.dumps(result.to_dict(), sort_keys=True)


def test_simulate_shim_is_byte_identical_to_session_run():
    dataset = load_dataset("cora", max_vertices=64, num_layers=4)
    # A Dataset instance carries its seed: a different one cannot apply.
    with pytest.raises(ConfigurationError, match="seed"):
        simulate(dataset, "sgcn", seed=1)
    via_session = Session().run(
        RunSpec(dataset="cora", accelerator="sgcn", seed=1, **TINY)
    )
    spec_dataset = load_dataset("cora", max_vertices=64, num_layers=4, seed=1)
    via_shim_seeded = simulate(spec_dataset, "sgcn", seed=1)
    assert _as_bytes(via_shim_seeded) == _as_bytes(via_session)
    assert _as_bytes(simulate(spec_dataset, "sgcn")) == _as_bytes(via_session)


def test_simulate_shim_is_byte_identical_for_named_dataset():
    via_shim = simulate("cora", "sgcn", max_vertices=64)
    via_session = Session().run(RunSpec(dataset="cora", accelerator="sgcn",
                                        max_vertices=64))
    assert _as_bytes(via_shim) == _as_bytes(via_session)


def test_compare_shim_is_byte_identical_to_session_compare():
    specs = [
        RunSpec(dataset="cora", accelerator=name, **TINY)
        for name in ("gcnax", "sgcn")
    ]
    via_session = Session().compare(specs, baseline="gcnax")
    dataset = load_dataset("cora", max_vertices=64, num_layers=4)
    via_shim = compare_accelerators(dataset, ["gcnax", "sgcn"], baseline="gcnax")
    assert json.dumps(via_shim.to_dict(), sort_keys=True) == json.dumps(
        via_session.to_dict(), sort_keys=True
    )


# --------------------------------------------------------------------------- #
# Session batch semantics
# --------------------------------------------------------------------------- #
def test_run_many_isolates_failures_via_on_error():
    session = Session()
    good = RunSpec(dataset="cora", accelerator="sgcn", **TINY)
    bad = RunSpec(dataset="atlantis", accelerator="sgcn", **TINY)
    errors = []
    results = session.run_many(
        [good, bad, good],
        on_error=lambda index, spec, exc: errors.append((index, spec.dataset)),
    )
    assert results[0] is not None and results[2] is not None
    assert results[1] is None
    assert errors == [(1, "atlantis")]


def test_run_many_raises_without_on_error():
    session = Session()
    bad = RunSpec(dataset="atlantis", accelerator="sgcn", **TINY)
    with pytest.raises(ConfigurationError, match="unknown dataset"):
        session.run_many([bad])


def test_run_many_annotates_results_with_spec_identity():
    session = Session()
    spec = RunSpec(dataset="cora", accelerator="sgcn", **TINY)
    (result,) = session.run_many([spec])
    assert result.metadata["scenario_id"] == spec.scenario_id
    assert result.metadata["scenario"] == spec.to_dict()


def test_session_compare_fails_fast_on_missing_baseline(monkeypatch):
    import repro.core.session as session_module

    def explode(*args, **kwargs):
        raise AssertionError("simulated before baseline validation")

    monkeypatch.setattr(session_module, "simulate_design", explode)
    session = Session()
    specs = [RunSpec(dataset="cora", accelerator="sgcn", **TINY)]
    with pytest.raises(SimulationError, match="baseline"):
        session.compare(specs, baseline="gcnax")
    with pytest.raises(SimulationError, match="at least one"):
        session.compare([], baseline="gcnax")
