"""Should-pass fixture for F3: ambient reads are constant or suppressed."""

from __future__ import annotations

from typing import Sequence

FAST_MODE = "fast"

_backend = "reference"


def set_backend(name: str) -> None:
    global _backend
    _backend = name


def replay(trace: Sequence[int]) -> int:
    if _backend == FAST_MODE:  # repro: noqa[F3] both backends are bit-identical
        return len(trace)
    return sum(trace)
