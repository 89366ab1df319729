"""Sparse feature formats, each modelled by the memory layout it builds."""

from __future__ import annotations

from repro.formats.base import (
    CACHELINE_BYTES,
    ELEMENT_BYTES,
    FeatureFormat,
    FeatureLayout,
    bytes_to_lines,
)
from repro.formats.dense import DenseFormat
from repro.formats.csr import CSRFeatureFormat
from repro.formats.coo import COOFeatureFormat
from repro.formats.bsr import BSRFeatureFormat
from repro.formats.blocked_ellpack import BlockedEllpackFormat
from repro.formats.beicsr import BEICSRFormat
from repro.formats.registry import (
    FORMATS,
    available_formats,
    get_format,
)

__all__ = [
    "CACHELINE_BYTES",
    "ELEMENT_BYTES",
    "FeatureFormat",
    "FeatureLayout",
    "bytes_to_lines",
    "DenseFormat",
    "CSRFeatureFormat",
    "COOFeatureFormat",
    "BSRFeatureFormat",
    "BlockedEllpackFormat",
    "BEICSRFormat",
    "FORMATS",
    "available_formats",
    "get_format",
]
