"""The accelerators by name: a fixed table of design points.

Every accelerator the library simulates is a frozen
:class:`~repro.accelerator.design.DesignPoint`; the nine built-in ones are
declared in :mod:`repro.accelerator.design` (:data:`BUILTIN_DESIGNS`, paper
Table I).  This module maps names to them.  Lookups fold case, dashes and
spaces (``"AWB-GCN"`` is ``awb_gcn``) and accept the aliases ``awbgcn`` and
``i_gcn``.  The table is read-only: a custom design is not registered but
run directly by :func:`repro.accelerator.pipeline.simulate_design`.  One
derived from a table entry by design knobs also runs as
``simulate(dataset, point)`` or through the
:class:`~repro.core.runspec.RunSpec` ``design`` axis.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import List, Mapping

from repro.accelerator.design import BUILTIN_DESIGNS, DesignPoint
from repro.errors import ConfigurationError
from repro.formats.registry import fold_name

#: Every accelerator's design point, by canonical name.
DESIGN_POINTS: Mapping[str, DesignPoint] = MappingProxyType(dict(BUILTIN_DESIGNS))

#: Alternative spellings (after folding) and the names they stand for.
_ALIASES = {"awbgcn": "awb_gcn", "i_gcn": "igcn"}

#: Accelerators plotted in the paper's main comparison figures (11, 13-16).
PAPER_COMPARISON = ("gcnax", "hygcn", "awb_gcn", "engn", "igcn", "sgcn")

#: Accelerators of the ablation study (Fig. 12), in bar order.
ABLATION_SEQUENCE = ("gcnax", "sgcn_nonsliced", "sgcn_no_sac", "sgcn")


def canonical_accelerator(name: str) -> str:
    """The canonical name ``name`` folds to (aliases followed).

    Never raises, so run identities can fold a name before it is validated.
    """
    key = fold_name(name)
    return _ALIASES.get(key, key)


def available_accelerators() -> List[str]:
    """Names of every accelerator."""
    return sorted(DESIGN_POINTS)


def get_design(name: str) -> DesignPoint:
    """The design point of accelerator ``name`` (case-insensitive, aliases).

    Raises:
        ConfigurationError: If ``name`` is not a known accelerator.
    """
    design = DESIGN_POINTS.get(canonical_accelerator(name))
    if design is None:
        raise ConfigurationError(
            f"unknown accelerator {name!r}; "
            f"available: {', '.join(available_accelerators())}"
        )
    return design


__all__ = [
    "ABLATION_SEQUENCE",
    "DESIGN_POINTS",
    "PAPER_COMPARISON",
    "available_accelerators",
    "canonical_accelerator",
    "get_design",
]
