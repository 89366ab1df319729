"""The fixed name tables of accelerators and feature formats."""

from __future__ import annotations

import pytest

from repro.accelerator.design import BUILTIN_DESIGNS
from repro.accelerator.registry import (
    DESIGN_POINTS,
    available_accelerators,
    canonical_accelerator,
    get_design,
)
from repro.errors import ConfigurationError, FormatError
from repro.formats.registry import FORMATS, available_formats, get_format


def test_case_dash_space_folding_and_aliases():
    assert canonical_accelerator("AWB-GCN") == "awb_gcn"
    assert canonical_accelerator("i gcn") == "igcn"
    assert canonical_accelerator("awbgcn") == "awb_gcn"
    assert canonical_accelerator("I_GCN") == "igcn"
    assert get_design("I-GCN").name == "igcn"
    assert get_design("AwbGcn") is DESIGN_POINTS["awb_gcn"]
    assert get_format("Dense").name == "dense"
    assert get_format("Blocked-Ellpack").name == "blocked_ellpack"


def test_unknown_names_raise_family_error():
    with pytest.raises(
        ConfigurationError, match="unknown accelerator 'tpu'; available: awb_gcn, "
    ):
        get_design("tpu")
    with pytest.raises(FormatError, match="unknown format 'parquet'; available: "):
        get_format("parquet")


def test_tables_hold_the_builtin_designs_and_formats():
    assert dict(DESIGN_POINTS) == BUILTIN_DESIGNS
    assert available_accelerators() == sorted(BUILTIN_DESIGNS)
    assert available_formats() == [
        "beicsr",
        "beicsr_nonsliced",
        "beicsr_packed",
        "blocked_ellpack",
        "bsr",
        "coo",
        "csr",
        "dense",
    ]
    with pytest.raises(TypeError):
        DESIGN_POINTS["mock"] = BUILTIN_DESIGNS["sgcn"]  # type: ignore[index]
    with pytest.raises(TypeError):
        FORMATS["mock"] = FORMATS["dense"]  # type: ignore[index]
