"""Should-pass fixture for F3: a model module with fixed module bindings only.

Its path maps it to ``repro.memory.f3_pass``, one of the model modules.
"""

from __future__ import annotations

import logging
from typing import Sequence, TypeVar

from repro.telemetry.spans import span

__all__ = ["replay"]

logger = logging.getLogger(__name__)

T = TypeVar("T")

FAST_MODE = "fast"

WEIGHTS = (1, 2, 4)

# Suppressed: the reason says why the state cannot change a result.
_calls = [0]  # repro: noqa[F3] a call counter no result reads


def replay(trace: Sequence[int], mode: str = FAST_MODE) -> int:
    _calls[0] += 1
    with span("replay"):
        if mode == FAST_MODE:
            return len(trace)
        return sum(weight * row for weight, row in zip(WEIGHTS, trace))
