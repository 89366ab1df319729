"""DesignPoint: validation, identity, the name table, and the RunSpec design axis."""

import hashlib
import json

import pytest

from repro.accelerator.design import (
    BUILTIN_DESIGNS,
    DESIGN_KNOBS,
    DesignPoint,
    SGCN_DESIGN,
    field_names,
)
from repro.accelerator.registry import DESIGN_POINTS, get_design
from repro.core.api import simulate
from repro.core.runspec import RunSpec
from repro.core.session import Session
from repro.errors import ConfigurationError, FormatError
from repro.graphs.datasets import load_dataset

TINY = dict(max_vertices=64, num_layers=4)


# --------------------------------------------------------------------------- #
# Validation (satellite: knobs checked at construction)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "knobs",
    [
        {"tiling_fill_fraction": 0.0},
        {"tiling_fill_fraction": -1.0},
        {"tiling_fill_fraction": float("nan")},
        {"tiling_fill_fraction": 100.0},
        {"psum_buffer_fraction": 0.0},
        {"psum_buffer_fraction": 1.5},
        {"pinned_cache_fraction": -0.25},
        {"pinned_cache_fraction": 2.0},
        {"aggregation_compute_scale": 0.0},
        {"aggregation_compute_scale": 1.2},
        {"engine_partition": "diagonal"},
        {"execution_order": "sideways"},
        {"assumed_tiling_sparsity": 1.0},
        {"assumed_tiling_sparsity": -0.1},
        {"psum_traffic_factor": -1.0},
        {"dataflow_feature_passes": 0},
        {"slice_size": 0},
    ],
)
def test_bad_knob_values_raise_at_construction(knobs):
    with pytest.raises(ConfigurationError):
        DesignPoint(name="bad", **knobs)


def test_empty_name_rejected():
    with pytest.raises(ConfigurationError, match="name"):
        DesignPoint(name="  ")


def test_unknown_format_raises_format_error():
    with pytest.raises(FormatError):
        DesignPoint(name="x", feature_format="nope")


def test_engn_style_deliberate_overflow_is_legal():
    # Coarse vertex tiling overflows the cache on purpose (EnGN uses 3.0);
    # only nonsense values beyond the documented bound are rejected.
    assert DesignPoint(name="coarse", tiling_fill_fraction=3.0).tiling_fill_fraction == 3.0


def test_derive_validates_and_rejects_unknown_knobs():
    base = BUILTIN_DESIGNS["gcnax"]
    derived = base.derive(tiling_fill_fraction=0.5, sparse_aggregation_compute=True)
    assert derived.tiling_fill_fraction == 0.5
    assert derived.name == base.name
    with pytest.raises(ConfigurationError, match="unknown design knob"):
        base.derive(warp_speed=9)
    with pytest.raises(ConfigurationError):
        base.derive(psum_buffer_fraction=0.0)


# --------------------------------------------------------------------------- #
# Identity / round-trips
# --------------------------------------------------------------------------- #
def test_every_registered_design_round_trips():
    assert len(DESIGN_POINTS) >= 9
    for name, design in DESIGN_POINTS.items():
        rebuilt = DesignPoint.from_dict(design.to_dict())
        assert rebuilt == design, name
        assert hash(rebuilt) == hash(design), name
        # to_dict() must be JSON-serialisable as-is.
        json.dumps(design.to_dict())


def test_from_dict_rejects_unknown_fields():
    data = BUILTIN_DESIGNS["gcnax"].to_dict()
    data["mystery"] = True
    with pytest.raises(ConfigurationError, match="unknown design point field"):
        DesignPoint.from_dict(data)


def test_with_format_copies_equal_identically_configured_points():
    # Satellite: a with_format copy must compare/hash equal to an
    # identically-configured point — including explicit spellings of the
    # format's defaults.
    assert SGCN_DESIGN.with_format("beicsr") == SGCN_DESIGN
    assert SGCN_DESIGN.with_format("beicsr", slice_size=96) == SGCN_DESIGN
    assert hash(SGCN_DESIGN.with_format("beicsr", slice_size=96)) == hash(SGCN_DESIGN)
    custom = SGCN_DESIGN.with_format("beicsr", slice_size=128)
    assert custom != SGCN_DESIGN
    assert custom == SGCN_DESIGN.derive(slice_size=128)
    # Formats without a slice knob normalise the slice away entirely.
    dense_a = SGCN_DESIGN.with_format("dense")
    dense_b = SGCN_DESIGN.derive(feature_format="dense", slice_size=None)
    assert dense_a == dense_b
    assert dense_a.slice_size is None


# --------------------------------------------------------------------------- #
# Name table and custom design points
# --------------------------------------------------------------------------- #
def _digest(result) -> str:
    document = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def test_custom_design_point_runs_like_the_design_axis():
    custom = get_design("gcnax").derive(tiling_fill_fraction=0.5)
    via_shim = simulate(load_dataset("cora", max_vertices=64), custom)
    via_axis = Session().run(
        RunSpec(
            dataset="cora",
            accelerator="gcnax",
            max_vertices=64,
            design={"tiling_fill_fraction": 0.5},
        )
    )
    assert _digest(via_shim) == _digest(via_axis)
    assert _digest(via_shim) != _digest(
        Session().run(RunSpec(dataset="cora", accelerator="gcnax", max_vertices=64))
    )


def test_get_design_raises_for_unknown_names():
    with pytest.raises(ConfigurationError, match="unknown accelerator"):
        get_design("not-a-design")


# --------------------------------------------------------------------------- #
# Session integration (memoization by design identity)
# --------------------------------------------------------------------------- #
def test_session_dedupes_native_format_spelled_explicitly():
    session = Session()
    plain = session.accelerator("sgcn")
    explicit = session.accelerator("sgcn", feature_format="beicsr")
    assert explicit == plain  # the native format spelled out is the same point
    assert hash(explicit) == hash(plain)


def test_session_design_overrides_build_distinct_models():
    session = Session()
    base = session.accelerator("gcnax")
    half = session.accelerator("gcnax", design={"tiling_fill_fraction": 0.5})
    assert half != base
    assert half.tiling_fill_fraction == 0.5
    assert session.accelerator("gcnax", design={"tiling_fill_fraction": 0.5}) is half
    # A design override that spells out the declared value resolves to the
    # same point.
    same = session.accelerator("gcnax", design={"tiling_fill_fraction": 0.95})
    assert same == base


def test_session_run_threads_design_axis():
    session = Session()
    native = session.run(RunSpec(dataset="cora", accelerator="gcnax", **TINY))
    overridden = session.run(
        RunSpec(
            dataset="cora",
            accelerator="gcnax",
            design={"feature_format": "beicsr", "sparse_aggregation_compute": True},
            **TINY,
        )
    )
    assert overridden.dram_traffic_bytes != native.dram_traffic_bytes


def test_session_rejects_design_with_preresolved_accelerator():
    session = Session()
    spec = RunSpec(
        dataset="cora",
        accelerator="gcnax",
        design={"tiling_fill_fraction": 0.5},
        **TINY,
    )
    # Session.run takes no pre-resolved design point that could drop the
    # spec's design overrides.
    with pytest.raises(TypeError, match="accelerator"):
        session.run(spec, accelerator=session.accelerator("gcnax"))
    # A pre-resolved point reaches a run only as its design-axis spec, and
    # one whose overrides no design axis describes is rejected.
    half = get_design("gcnax").derive(tiling_fill_fraction=0.5)
    with pytest.raises(ConfigurationError, match="not design knobs"):
        simulate("cora", half.derive(display_name="Half"), max_vertices=64)


# --------------------------------------------------------------------------- #
# RunSpec design axis
# --------------------------------------------------------------------------- #
def test_design_axis_enters_identity_only_when_set():
    plain = RunSpec(dataset="cora", accelerator="sgcn")
    empty = RunSpec(dataset="cora", accelerator="sgcn", design={})
    assert empty.design is None
    assert empty.scenario_id == plain.scenario_id
    assert "design" not in plain.key()
    overridden = RunSpec(
        dataset="cora", accelerator="sgcn", design={"tiling_fill_fraction": 0.5}
    )
    assert overridden.scenario_id != plain.scenario_id
    assert overridden.key()["design"] == {"tiling_fill_fraction": 0.5}
    assert "tiling_fill_fraction=0.5" in overridden.label()


def test_design_axis_round_trips_and_validates():
    spec = RunSpec(
        dataset="cora",
        accelerator="gcnax",
        design={"feature_format": "beicsr", "tiling_fill_fraction": 0.5},
    )
    spec.validate()
    assert RunSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ConfigurationError, match="unknown design knob"):
        RunSpec(
            dataset="cora", accelerator="gcnax", design={"bogus": 1}
        ).validate()
    with pytest.raises(ConfigurationError):
        RunSpec(
            dataset="cora",
            accelerator="gcnax",
            design={"psum_buffer_fraction": 0.0},
        ).validate()


def test_design_knobs_cover_simulation_fields_only():
    assert set(DESIGN_KNOBS) <= set(field_names())
    for excluded in ("name", "display_name", "execution_order", "target_layers"):
        assert excluded not in DESIGN_KNOBS


# --------------------------------------------------------------------------- #
# Review regressions
# --------------------------------------------------------------------------- #
def test_boolean_knobs_reject_truthy_strings():
    # "False" is truthy: accepting it would silently invert the design while
    # the run identity claims the opposite.
    with pytest.raises(ConfigurationError, match="boolean"):
        DesignPoint(name="x", uses_destination_tiling="False")
    with pytest.raises(ConfigurationError, match="boolean"):
        BUILTIN_DESIGNS["gcnax"].derive(column_product="True")


def test_session_rejects_non_knob_design_keys():
    session = Session()
    with pytest.raises(ConfigurationError, match="unknown design knob"):
        session.accelerator("gcnax", design={"name": "not-gcnax"})
    # A deserialised spec cannot smuggle a non-knob field into a run either.
    spec = RunSpec(dataset="cora", accelerator="gcnax", **TINY)
    spec = RunSpec.from_dict({**spec.to_dict(), "design": {"name": "evil"}})
    with pytest.raises(ConfigurationError, match="unknown design knob"):
        session.run(spec)


def test_design_axis_canonicalises_values_and_drops_noops():
    # Spelling variants of the same configuration share one identity…
    upper = RunSpec(dataset="cora", accelerator="gcnax",
                    design={"feature_format": "BEICSR"})
    lower = RunSpec(dataset="cora", accelerator="gcnax",
                    design={"feature_format": "beicsr"})
    assert upper.scenario_id == lower.scenario_id
    assert upper.design == {"feature_format": "beicsr"}
    # …and overrides equal to the registered design vanish entirely.
    noop = RunSpec(dataset="cora", accelerator="gcnax",
                   design={"column_product": False})
    assert noop.design is None
    assert noop.scenario_id == RunSpec(dataset="cora", accelerator="gcnax").scenario_id
    explicit_default = RunSpec(dataset="cora", accelerator="sgcn",
                               design={"slice_size": 96, "engine_partition": "sac"})
    assert explicit_default.design is None


def test_explicit_format_default_shares_identity():
    with_default = RunSpec(dataset="cora", accelerator="gcnax",
                           design={"feature_format": "beicsr", "slice_size": 96})
    without = RunSpec(dataset="cora", accelerator="gcnax",
                      design={"feature_format": "beicsr"})
    assert with_default.scenario_id == without.scenario_id
    assert with_default.design == {"feature_format": "beicsr"}


def test_ineffective_slice_size_override_errors():
    with pytest.raises(ConfigurationError, match="no slice knob"):
        RunSpec(dataset="cora", accelerator="gcnax", design={"slice_size": 128})
    with pytest.raises(ConfigurationError, match="no slice knob"):
        RunSpec(dataset="cora", accelerator="sgcn",
                design={"feature_format": "beicsr_nonsliced", "slice_size": 128})


def test_format_axis_and_design_format_knobs_conflict():
    # Rejected at construction (deriving format knobs against the base
    # design while the axis would replace the format is never meaningful)…
    with pytest.raises(ConfigurationError, match="one mechanism only"):
        RunSpec(dataset="cora", accelerator="sgcn",
                feature_format="dense",
                design={"feature_format": "beicsr", "slice_size": 128})
    with pytest.raises(ConfigurationError, match="one mechanism only"):
        RunSpec(dataset="cora", accelerator="gcnax",
                feature_format="beicsr", design={"slice_size": 128})
    # …and independently by Session.accelerator for direct calls.
    session = Session()
    with pytest.raises(ConfigurationError, match="one mechanism only"):
        session.accelerator("sgcn", feature_format="dense",
                            design={"feature_format": "beicsr"})


def test_numeric_knob_spellings_share_identity_and_hash():
    as_int = RunSpec(dataset="cora", accelerator="gcnax",
                     design={"tiling_fill_fraction": 1})
    as_float = RunSpec(dataset="cora", accelerator="gcnax",
                       design={"tiling_fill_fraction": 1.0})
    assert as_int == as_float
    assert hash(as_int) == hash(as_float)
    assert as_int.scenario_id == as_float.scenario_id
    assert BUILTIN_DESIGNS["gcnax"].derive(tiling_fill_fraction=1) == (
        BUILTIN_DESIGNS["gcnax"].derive(tiling_fill_fraction=1.0)
    )


def test_registry_models_expose_slice_size():
    assert get_design("sgcn").slice_size == 96
    assert get_design("gcnax").slice_size is None
    assert SGCN_DESIGN.derive(slice_size=128).slice_size == 128
