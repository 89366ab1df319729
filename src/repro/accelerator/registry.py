"""Registry of accelerator models by name.

A thin instantiation of the generic :class:`repro.registry.Registry`: all
folding/alias/extension machinery lives there; this module declares the
built-in designs and re-exports the family-specific helpers the rest of the
library (and downstream users) import.

The registry stores *factories* returning :class:`AcceleratorModel`
instances, and it registers design points directly
(:func:`register_design`): the nine built-in accelerators are
:class:`~repro.accelerator.design.DesignPoint` declarations from
:mod:`repro.accelerator.design`.  A plain factory
(:func:`register_accelerator`) also returns an ``AcceleratorModel`` wrapping
some design point; only its instances know which one.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.accelerator.design import BUILTIN_DESIGNS, DesignPoint
from repro.accelerator.simulator import AcceleratorModel
from repro.errors import ConfigurationError
from repro.registry import Registry

#: The accelerator family registry (the single extension point for new
#: accelerator backends).
ACCELERATORS: Registry[AcceleratorModel] = Registry(
    "accelerator", ConfigurationError
)

#: Canonical design points registered through :func:`register_design`
#: (includes every built-in design).
DESIGN_POINTS: Dict[str, DesignPoint] = {}

#: Factory installed by :func:`register_design` per design name, so
#: :func:`get_design` can detect when another registration (e.g. a
#: ``temporary_accelerator`` shadow) has taken the name over and the recorded
#: design no longer describes what the registry instantiates.
_DESIGN_FACTORIES: Dict[str, object] = {}


def register_design(
    design: DesignPoint,
    *,
    aliases: Sequence[str] = (),
    overwrite: bool = False,
) -> None:
    """Register a :class:`DesignPoint` as an accelerator.

    The registry entry is a factory producing :class:`AcceleratorModel`
    wrappers around ``design``; the point itself is recorded in
    :data:`DESIGN_POINTS` for introspection (``repro accelerators
    --describe``, :func:`get_design`).

    Raises:
        ConfigurationError: If ``design.name`` is already registered and
            ``overwrite`` is false.
    """
    factory = lambda: AcceleratorModel(design)  # noqa: E731
    ACCELERATORS.register(
        design.name, factory, aliases=aliases, overwrite=overwrite
    )
    key = ACCELERATORS.canonical(design.name)
    DESIGN_POINTS[key] = design
    _DESIGN_FACTORIES[key] = factory


def get_design(name: str) -> Optional[DesignPoint]:
    """The canonical design point registered under ``name``.

    Returns ``None`` for accelerators registered as plain factories
    (:func:`register_accelerator`) whose design is only known per instance,
    and for design-registered names currently shadowed by another
    registration (``temporary_accelerator``) — the recorded point would not
    describe what the registry instantiates.  Raises for unknown names.

    Raises:
        ConfigurationError: If ``name`` is not a registered accelerator.
    """
    factory = ACCELERATORS.factory(name)  # raises for unknown names
    key = ACCELERATORS.canonical(name)
    if _DESIGN_FACTORIES.get(key) is not factory:
        return None
    return DESIGN_POINTS.get(key)


def resolve_design(name: str) -> DesignPoint:
    """The design point the registry would execute for ``name``.

    Uses the recorded design for design-registered names, and falls back to
    instantiating the registered factory and reading its ``.design`` for
    plain factory registrations (or names shadowed by
    ``temporary_accelerator``).

    Raises:
        ConfigurationError: If ``name`` is not a registered accelerator.
    """
    design = get_design(name)
    if design is None:
        design = ACCELERATORS.get(name).design
    return design


_BUILTIN_ALIASES = {"awb_gcn": ("awbgcn",), "igcn": ("i_gcn",)}
for _design in BUILTIN_DESIGNS.values():
    register_design(_design, aliases=_BUILTIN_ALIASES.get(_design.name, ()))

#: Alternative spellings accepted for registry names (after case/dash/space
#: folding).  Kept as a plain mapping for backward compatibility; the live
#: alias table is ``ACCELERATORS.aliases()``.
ACCELERATOR_ALIASES: Dict[str, str] = ACCELERATORS.aliases()

#: Accelerators plotted in the paper's main comparison figures (11, 13-16).
PAPER_COMPARISON = ("gcnax", "hygcn", "awb_gcn", "engn", "igcn", "sgcn")

#: Accelerators of the ablation study (Fig. 12), in bar order.
ABLATION_SEQUENCE = ("gcnax", "sgcn_nonsliced", "sgcn_no_sac", "sgcn")


def available_accelerators() -> List[str]:
    """Names of every registered accelerator model."""
    return ACCELERATORS.names()


def register_accelerator(name: str, factory: Callable[[], AcceleratorModel]) -> None:
    """Register a custom accelerator model.

    Raises:
        ConfigurationError: If ``name`` is already registered.
    """
    ACCELERATORS.register(name, factory)


def unregister_accelerator(name: str) -> None:
    """Remove a registered accelerator model (see :meth:`Registry.unregister`)."""
    key = ACCELERATORS.canonical(name)
    ACCELERATORS.unregister(name)
    DESIGN_POINTS.pop(key, None)
    _DESIGN_FACTORIES.pop(key, None)


def temporary_accelerator(name: str, factory: Callable[[], AcceleratorModel]):
    """Context manager registering an accelerator for a ``with`` block only."""
    return ACCELERATORS.temporary(name, factory)


def get_accelerator(name: str) -> AcceleratorModel:
    """Instantiate an accelerator model by name (case-insensitive).

    Common aliases (``"awb-gcn"``, ``"i-gcn"``) are accepted.
    """
    return ACCELERATORS.get(name)


__all__ = [
    "ABLATION_SEQUENCE",
    "ACCELERATORS",
    "ACCELERATOR_ALIASES",
    "DESIGN_POINTS",
    "PAPER_COMPARISON",
    "available_accelerators",
    "get_accelerator",
    "get_design",
    "register_accelerator",
    "register_design",
    "resolve_design",
    "temporary_accelerator",
    "unregister_accelerator",
]
