"""Accelerator models: SGCN and the prior-work baselines it is compared to.

An accelerator is a :class:`DesignPoint` (:mod:`repro.accelerator.design`);
:mod:`repro.accelerator.registry` names the nine built-in points, and
:func:`simulate_design` (:mod:`repro.accelerator.pipeline`) runs any point.
"""

from __future__ import annotations

from repro.accelerator.engines import SIMDAggregationEngine
from repro.accelerator.systolic import SystolicArray
from repro.accelerator.design import (
    BUILTIN_DESIGNS,
    DESIGN_KNOBS,
    DesignPoint,
)
from repro.accelerator.pipeline import (
    LayerWorkload,
    PhaseResult,
    build_workloads,
    simulate_design,
)
from repro.accelerator.registry import (
    DESIGN_POINTS,
    available_accelerators,
    get_design,
)

__all__ = [
    "BUILTIN_DESIGNS",
    "DESIGN_KNOBS",
    "DESIGN_POINTS",
    "DesignPoint",
    "get_design",
    "simulate_design",
    "SIMDAggregationEngine",
    "SystolicArray",
    "LayerWorkload",
    "PhaseResult",
    "build_workloads",
    "available_accelerators",
]
