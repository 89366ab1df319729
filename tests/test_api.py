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
