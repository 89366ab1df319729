"""The feature formats by name: a fixed table of format factories.

The experiment harness refers to formats by short names (as the paper's
Fig. 3 legend does); this module maps those names to configured format
instances.  Names fold case, dashes and spaces (``"Blocked-Ellpack"`` is
``blocked_ellpack``), the same folding the accelerator table applies.  The
table is read-only: the eight formats are the ones the paper compares.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, List, Mapping, Optional

from repro.errors import FormatError
from repro.formats.base import FeatureFormat
from repro.formats.beicsr import BEICSRFormat
from repro.formats.blocked_ellpack import BlockedEllpackFormat
from repro.formats.bsr import BSRFeatureFormat
from repro.formats.coo import COOFeatureFormat
from repro.formats.csr import CSRFeatureFormat
from repro.formats.dense import DenseFormat

#: Factory of every feature format, by canonical name.
FORMATS: Mapping[str, Callable[[], FeatureFormat]] = MappingProxyType(
    {
        "dense": DenseFormat,
        "csr": CSRFeatureFormat,
        "coo": COOFeatureFormat,
        "bsr": BSRFeatureFormat,
        "blocked_ellpack": BlockedEllpackFormat,
        "beicsr": lambda: BEICSRFormat(slice_size=96),
        "beicsr_nonsliced": lambda: BEICSRFormat(slice_size=None),
        "beicsr_packed": lambda: BEICSRFormat(slice_size=96, in_place=False),
    }
)


def fold_name(name: str) -> str:
    """Normalise spelling: lower-case, dashes/spaces become underscores."""
    return name.strip().lower().replace("-", "_").replace(" ", "_")


def available_formats() -> List[str]:
    """Names of all feature formats."""
    return sorted(FORMATS)


def get_format(name: str, slice_size: Optional[int] = None) -> FeatureFormat:
    """Instantiate a feature format by name.

    Args:
        name: Format name (case-insensitive).
        slice_size: Override the BEICSR unit slice size (ignored by other
            formats).

    Raises:
        FormatError: If ``name`` is not a known format.
    """
    factory = FORMATS.get(fold_name(name))
    if factory is None:
        raise FormatError(
            f"unknown format {name!r}; available: {', '.join(available_formats())}"
        )
    instance = factory()
    if slice_size is not None and isinstance(instance, BEICSRFormat) and instance.slice_size:
        instance = BEICSRFormat(slice_size=slice_size, in_place=instance.in_place)
    return instance


__all__ = ["FORMATS", "available_formats", "fold_name", "get_format"]
