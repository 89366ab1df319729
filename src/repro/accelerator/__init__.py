"""Accelerator models: SGCN and the prior-work baselines it is compared to."""

from __future__ import annotations

from repro.accelerator.engines import SIMDAggregationEngine
from repro.accelerator.systolic import SystolicArray
from repro.accelerator.design import (
    BUILTIN_DESIGNS,
    DESIGN_KNOBS,
    DesignPoint,
)
from repro.accelerator.pipeline import simulate_design
from repro.accelerator.simulator import (
    LayerWorkload,
    PhaseResult,
    build_workloads,
    AcceleratorModel,
)
from repro.accelerator.registry import (
    ACCELERATORS,
    DESIGN_POINTS,
    available_accelerators,
    get_accelerator,
    get_design,
    register_accelerator,
    register_design,
    temporary_accelerator,
    unregister_accelerator,
)

__all__ = [
    "BUILTIN_DESIGNS",
    "DESIGN_KNOBS",
    "DESIGN_POINTS",
    "DesignPoint",
    "get_design",
    "register_design",
    "simulate_design",
    "SIMDAggregationEngine",
    "SystolicArray",
    "LayerWorkload",
    "PhaseResult",
    "build_workloads",
    "AcceleratorModel",
    "ACCELERATORS",
    "available_accelerators",
    "get_accelerator",
    "register_accelerator",
    "temporary_accelerator",
    "unregister_accelerator",
]
