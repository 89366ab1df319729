"""Generic registry behaviour shared by accelerators and formats."""

from __future__ import annotations

import pytest

from repro.accelerator.design import SGCN_DESIGN, DesignPoint
from repro.accelerator.registry import (
    ACCELERATORS,
    available_accelerators,
    get_accelerator,
    register_accelerator,
    temporary_accelerator,
    unregister_accelerator,
)
from repro.accelerator.simulator import AcceleratorModel
from repro.errors import ConfigurationError, FormatError
from repro.formats.dense import DenseFormat
from repro.formats.registry import (
    FORMATS,
    available_formats,
    get_format,
    register_format,
    temporary_format,
    unregister_format,
)
from repro.registry import Registry


def _sgcn_model() -> AcceleratorModel:
    return AcceleratorModel(SGCN_DESIGN)


def test_case_dash_space_folding_and_aliases():
    assert ACCELERATORS.canonical("AWB-GCN") == "awb_gcn"
    assert ACCELERATORS.canonical("i gcn") == "igcn"
    assert get_accelerator("I-GCN").name == "igcn"
    assert get_format("Dense").name == "dense"


def test_unknown_names_raise_family_error():
    with pytest.raises(ConfigurationError, match="unknown accelerator"):
        get_accelerator("tpu")
    with pytest.raises(FormatError, match="unknown format"):
        get_format("parquet")


def test_duplicate_registration_rejected():
    with pytest.raises(ConfigurationError, match="already registered"):
        register_accelerator("sgcn", _sgcn_model)
    with pytest.raises(FormatError, match="already registered"):
        register_format("dense", DenseFormat)


def test_register_unregister_round_trip_leaves_no_state():
    before = available_accelerators()
    register_accelerator("custom_model", _sgcn_model)
    assert "custom_model" in ACCELERATORS
    assert get_accelerator("custom-model").design == SGCN_DESIGN
    unregister_accelerator("custom_model")
    assert available_accelerators() == before
    with pytest.raises(ConfigurationError, match="cannot unregister"):
        unregister_accelerator("custom_model")

    before_formats = available_formats()
    register_format("custom_fmt", DenseFormat)
    unregister_format("custom_fmt")
    assert available_formats() == before_formats


def test_temporary_registration_is_scoped():
    assert "mock" not in ACCELERATORS
    with temporary_accelerator("mock", _sgcn_model):
        assert get_accelerator("mock").name == "sgcn"
    assert "mock" not in ACCELERATORS

    with temporary_format("mock_fmt", DenseFormat):
        assert get_format("mock_fmt").name == "dense"
    assert "mock_fmt" not in FORMATS


def test_temporary_shadows_and_restores_existing_entry():
    fake = DesignPoint.from_dict({**SGCN_DESIGN.to_dict(), "name": "fake_sgcn"})
    with ACCELERATORS.temporary("sgcn", lambda: AcceleratorModel(fake)):
        assert get_accelerator("sgcn").design == fake
    assert get_accelerator("sgcn").design == SGCN_DESIGN


def test_temporary_restores_even_on_error():
    with pytest.raises(RuntimeError):
        with temporary_accelerator("doomed", _sgcn_model):
            raise RuntimeError("boom")
    assert "doomed" not in ACCELERATORS


def test_alias_cannot_hijack_existing_name():
    registry: Registry[int] = Registry("widget")
    registry.register("alpha", lambda: 1)
    with pytest.raises(ConfigurationError, match="alias 'alpha' is already"):
        registry.register("beta", lambda: 2, aliases=("alpha",))
    assert registry.get("alpha") == 1  # untouched
    # The failed call must not leave 'beta' half-registered.
    assert "beta" not in registry
    registry.register("beta", lambda: 2, aliases=("b",))
    assert registry.get("b") == 2


def test_name_cannot_collide_with_existing_alias():
    registry: Registry[int] = Registry("widget")
    registry.register("alpha", lambda: 1, aliases=("al",))
    with pytest.raises(ConfigurationError, match="'al' is already registered"):
        registry.register("al", lambda: 2)
    # The real entry is untouched and still reachable through the alias.
    assert registry.get("al") == 1
    registry.unregister("al")  # resolves through the alias to 'alpha'
    assert "alpha" not in registry


def test_temporary_shadows_through_alias():
    with ACCELERATORS.temporary("awb-gcn", _sgcn_model):
        assert get_accelerator("awbgcn").name == "sgcn"
        assert get_accelerator("awb_gcn").name == "sgcn"
    assert get_accelerator("awbgcn").name == "awb_gcn"  # restored


def test_unregister_removes_aliases():
    registry: Registry[int] = Registry("widget")
    registry.register("alpha", lambda: 1, aliases=("a", "al"))
    assert registry.get("AL") == 1
    registry.unregister("alpha")
    assert "a" not in registry
    assert registry.canonical("a") == "a"  # alias no longer redirects


def test_overwrite_alias_takeover_evicts_stranded_factory():
    registry: Registry[int] = Registry("widget")
    registry.register("x", lambda: 1)
    registry.register("y", lambda: 2, aliases=("x",), overwrite=True)
    assert registry.names() == ["y"]  # 'x' is an alias now, not a name
    assert registry.get("x") == 2


def test_generic_registry_error_class_is_configurable():
    registry: Registry[int] = Registry("thing", FormatError)
    with pytest.raises(FormatError, match="unknown thing 'x'"):
        registry.get("x")
