"""API-boundary behaviour: smoke path, empty selections, variant checks."""

from __future__ import annotations

import pytest

from repro import (
    ConfigurationError,
    SimulationError,
    compare_accelerators,
    simulate,
)
from repro.graphs.datasets import load_dataset


@pytest.fixture(scope="module")
def tiny_dataset():
    return load_dataset("cora", max_vertices=64, num_layers=4)


def test_simulate_smoke(tiny_dataset):
    result = simulate(tiny_dataset, "sgcn")
    assert result.accelerator == "sgcn"
    assert result.dataset == "cora"
    assert result.total_cycles > 0
    assert result.dram_traffic_bytes > 0
    assert result.energy.total_joules > 0
    assert len(result.layers) == tiny_dataset.num_layers  # 4 <= sampling budget


def test_compare_smoke_and_speedups(tiny_dataset):
    comparison = compare_accelerators(tiny_dataset, ["gcnax", "sgcn"])
    speedups = comparison.speedups("gcnax")
    assert speedups["gcnax"] == pytest.approx(1.0)
    assert speedups["sgcn"] > 0


def test_compare_empty_selection_raises(tiny_dataset):
    with pytest.raises(SimulationError, match="empty accelerator"):
        compare_accelerators(tiny_dataset, [])


def test_compare_none_defaults_to_paper_set():
    # Only check the default resolution logic, not a full 6-accelerator run:
    # an empty list must NOT silently fall back to the paper set.
    from repro.core import api

    assert api.PAPER_COMPARISON == ("gcnax", "hygcn", "awb_gcn", "engn", "igcn", "sgcn")


def test_unknown_variant_fails_fast(tiny_dataset):
    with pytest.raises(ConfigurationError, match="variant"):
        simulate(tiny_dataset, "sgcn", variant="transformer")
    with pytest.raises(ConfigurationError, match="variant"):
        compare_accelerators(tiny_dataset, ["sgcn"], variant="gat", baseline="sgcn")


def test_variant_is_case_insensitive(tiny_dataset):
    result = simulate(tiny_dataset, "sgcn", variant="GCN")
    assert result.metadata["variant"] == "gcn"


def test_unknown_accelerator_raises(tiny_dataset):
    with pytest.raises(ConfigurationError, match="unknown accelerator"):
        simulate(tiny_dataset, "tpu")


def test_explicit_cap_with_dataset_instance_raises(tiny_dataset):
    # Historically max_vertices was silently dropped when a Dataset instance
    # was passed; now the contradiction is an error.
    with pytest.raises(ConfigurationError, match="max_vertices"):
        simulate(tiny_dataset, "sgcn", max_vertices=128)
    with pytest.raises(ConfigurationError, match="max_vertices"):
        compare_accelerators(tiny_dataset, ["sgcn"], baseline="sgcn",
                             max_vertices=128)


def test_compare_baseline_checked_before_any_simulation(tiny_dataset, monkeypatch):
    import repro.core.session as session_module

    def explode(*args, **kwargs):
        raise AssertionError("simulated before baseline validation")

    monkeypatch.setattr(session_module, "simulate_design", explode)
    with pytest.raises(SimulationError, match="baseline 'gcnax' was not among"):
        compare_accelerators(tiny_dataset, ["sgcn", "hygcn"], baseline="gcnax")


def test_shims_pass_one_runspec_per_run(tiny_dataset, monkeypatch):
    from repro import RunSpec, Session
    from repro.accelerator.registry import get_design

    seen = []
    run = Session.run

    def spy(self, spec, **kwargs):
        assert set(kwargs) <= {"annotate", "capacity_spectrum"}, kwargs
        seen.append(spec)
        return run(self, spec, **kwargs)

    monkeypatch.setattr(Session, "run", spy)
    derived = get_design("gcnax").derive(tiling_fill_fraction=0.5,
                                         feature_format="beicsr")
    tiny = dict(max_vertices=64, num_layers=4)
    cases = [
        (lambda: simulate("cora", "sgcn", max_vertices=64, seed=1),
         [RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64, seed=1)]),
        (lambda: simulate(tiny_dataset, "sgcn"),
         [RunSpec(dataset="cora", accelerator="sgcn", **tiny)]),
        (lambda: simulate(tiny_dataset, derived),
         [RunSpec(dataset="cora", accelerator="gcnax", **tiny,
                  design={"tiling_fill_fraction": 0.5,
                          "feature_format": "beicsr"})]),
        (lambda: compare_accelerators(tiny_dataset, [derived, "sgcn"]),
         [RunSpec(dataset="cora", accelerator="gcnax", **tiny,
                  design={"tiling_fill_fraction": 0.5,
                          "feature_format": "beicsr"}),
          RunSpec(dataset="cora", accelerator="sgcn", **tiny)]),
    ]
    for call, expected in cases:
        seen.clear()
        call()
        assert [spec.scenario_id for spec in seen] == [
            spec.scenario_id for spec in expected
        ]


def test_shims_reject_what_no_runspec_describes(tiny_dataset, monkeypatch):
    import repro.core.session as session_module
    from repro.accelerator.design import SGCN_DESIGN, DesignPoint

    def explode(*args, **kwargs):
        raise AssertionError("simulated an input no RunSpec describes")

    monkeypatch.setattr(session_module, "simulate_design", explode)
    profile = [0.5] * tiny_dataset.num_layers
    unregistered = DesignPoint.from_dict({**SGCN_DESIGN.to_dict(), "name": "mine"})
    cases = [
        (load_dataset("cora", max_vertices=64, num_layers=4, hidden_width=128), "sgcn"),
        (load_dataset("cora", max_vertices=64, num_layers=4, normalize=False), "sgcn"),
        (tiny_dataset.with_sparsity_profile(profile), "sgcn"),
        (tiny_dataset, unregistered),
    ]
    for dataset, accelerator in cases:
        with pytest.raises(ConfigurationError, match="simulate_design"):
            simulate(dataset, accelerator)
        with pytest.raises(ConfigurationError, match="simulate_design"):
            compare_accelerators(dataset, [accelerator, "gcnax"])
