"""Should-flag fixture for F3: a model module holds un-keyed ambient state.

Its path maps it to ``repro.memory.f3_flag``, one of the model modules.
"""

from __future__ import annotations

import os
from typing import Sequence

# Leak: lowercase module state, rebound by a setter.
_active_mode = "fast"

# Leak: an UPPER_CASE name is no constant once a setter mutates it.
_KNOBS = {"weighted": False}


def set_active_mode(name: str) -> None:
    global _active_mode
    _active_mode = name


def set_knob(name: str, value: bool) -> None:
    _KNOBS[name] = value


def replay(trace: Sequence[int]) -> int:
    if _active_mode == "fast":
        return len(trace)
    if _KNOBS["weighted"]:
        return 2 * sum(trace)
    # Leak: one environment read, reported once.
    if os.environ.get("REPRO_SHORTCUT"):
        return 0
    return sum(trace)


def replay_in_session(trace: Sequence[int]) -> int:
    # Leak: a lazy import reaches the process-wide session.
    from repro.core.session import default_session

    return len(trace) + len(default_session().trace_cache)
