"""Should-flag fixture for F3: a stage reads un-keyed ambient state."""

from __future__ import annotations

import os
from typing import Sequence

_active_mode = "fast"

_KNOBS = {"weighted": False}


def set_active_mode(name: str) -> None:
    global _active_mode
    _active_mode = name


def set_knob(name: str, value: bool) -> None:
    _KNOBS[name] = value


def replay(trace: Sequence[int]) -> int:
    # Leak: the memoized path branches on un-keyed module state.
    if _active_mode == "fast":
        return len(trace)
    # Leak: an UPPER_CASE name is no constant once a setter mutates it.
    if _KNOBS["weighted"]:
        return 2 * sum(trace)
    # Leak: one environment read, reported once.
    if os.environ.get("REPRO_SHORTCUT"):
        return 0
    return sum(trace)
