"""Sweep checkpointing: crash, restart, resume — only the missing work runs.

A :class:`SweepCheckpoint` is a schema-versioned JSON document the sweep
runner flushes atomically every few outcomes (and once at the end) next to
the :class:`~repro.experiments.store.ResultStore`.  It records, per scenario
id, whether the run completed (``ok`` / ``cached`` / ``degraded``) or failed
(error type + attempts + timeout flag), plus the merged telemetry deltas of
profiled sweeps.  ``repro sweep <pack> --resume`` loads the document and
skips every completed scenario whose result the store can still produce;
failures and never-started scenarios re-execute.

The checkpoint deliberately stores *accounting*, not results — results live
in the content-addressed store; the checkpoint is the sweep-shaped index
over it that survives a SIGKILL mid-flight.
"""

from __future__ import annotations

import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Set, Union

from repro.telemetry.metrics import TelemetryDelta, merge_counters, merge_spans

logger = logging.getLogger(__name__)

#: Bump when the checkpoint document shape changes; loaders reject other
#: versions (a stale checkpoint must not silently skip work).
CHECKPOINT_SCHEMA_VERSION = 1

CHECKPOINT_KIND = "sweep-checkpoint"

#: Default file name, placed next to the sweep's output/store root.
CHECKPOINT_FILENAME = "checkpoint.json"


class SweepCheckpoint:
    """Accumulates per-scenario outcomes and flushes them atomically."""

    def __init__(
        self,
        path: Union[str, Path],
        total: int,
        flush_interval: int = 8,
    ) -> None:
        self.path = Path(path)
        self.total = int(total)
        self.flush_interval = max(1, int(flush_interval))
        self.completed: Dict[str, Dict[str, object]] = {}
        self.failures: Dict[str, Dict[str, object]] = {}
        self.telemetry: Dict[str, Dict[str, Any]] = {"spans": {}, "caches": {}}
        self._dirty = 0

    # ------------------------------------------------------------------ #
    def record_success(
        self,
        scenario_id: str,
        status: str = "ok",
        attempts: int = 1,
        telemetry: Optional[TelemetryDelta] = None,
    ) -> None:
        """Record a completed scenario (``ok`` / ``cached`` / ``degraded``)."""
        self.completed[scenario_id] = {"status": status, "attempts": attempts}
        self.failures.pop(scenario_id, None)
        self._absorb_telemetry(telemetry)
        self._dirty += 1
        if self._dirty >= self.flush_interval:
            self.flush()

    def record_failure(
        self,
        scenario_id: str,
        error_type: str,
        error: str,
        attempts: int = 1,
        timed_out: bool = False,
        telemetry: Optional[TelemetryDelta] = None,
    ) -> None:
        """Record a failed scenario (kept so ``--resume`` retries it)."""
        self.failures[scenario_id] = {
            "error_type": error_type,
            "error": error,
            "attempts": attempts,
            "timed_out": timed_out,
        }
        self.completed.pop(scenario_id, None)
        self._absorb_telemetry(telemetry)
        self._dirty += 1
        if self._dirty >= self.flush_interval:
            self.flush()

    def _absorb_telemetry(self, telemetry: Optional[TelemetryDelta]) -> None:
        if telemetry is not None:
            merge_spans(self.telemetry["spans"], telemetry.spans)
            merge_counters(self.telemetry["caches"], telemetry.caches)

    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, object]:
        """The schema-versioned checkpoint document."""
        return {
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "kind": CHECKPOINT_KIND,
            "total": self.total,
            "completed": dict(sorted(self.completed.items())),
            "failures": dict(sorted(self.failures.items())),
            "telemetry": self.telemetry,
        }

    def flush(self) -> Path:
        """Atomically write the checkpoint document; returns its path."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.path, self.to_dict())
        self._dirty = 0
        return self.path

    # ------------------------------------------------------------------ #
    @staticmethod
    def load(path: Union[str, Path]) -> Optional[Dict[str, object]]:
        """Load a checkpoint document, or ``None`` if absent/unusable.

        A corrupt or wrong-schema checkpoint logs a warning and is treated
        as absent — resuming then simply re-runs everything, which is always
        safe (the result store still deduplicates the actual work).
        """
        path = Path(path)
        if not path.is_file():
            return None
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            logger.warning("ignoring unreadable checkpoint %s (%s)", path, exc)
            return None
        if (
            not isinstance(document, dict)
            or document.get("schema") != CHECKPOINT_SCHEMA_VERSION
            or document.get("kind") != CHECKPOINT_KIND
        ):
            logger.warning(
                "ignoring checkpoint %s with unexpected schema/kind", path
            )
            return None
        return document

    @staticmethod
    def completed_ids(document: Optional[Mapping[str, object]]) -> Set[str]:
        """Scenario ids a loaded checkpoint marks completed."""
        if not document:
            return set()
        completed = document.get("completed")
        if not isinstance(completed, dict):
            return set()
        return set(completed)


def atomic_write_json(path: Path, payload: object) -> None:
    """Temp-file + ``os.replace`` write; a crash never truncates the target.

    A payload ``json.dump`` rejects leaves the target's bytes unchanged and
    no temp file behind.  The result store writes through this too.
    """
    handle = tempfile.NamedTemporaryFile(
        "w",
        encoding="utf-8",
        dir=str(path.parent),
        prefix=f".{path.name}.",
        suffix=".tmp",
        delete=False,
    )
    try:
        with handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(handle.name, path)
    except (KeyboardInterrupt, SystemExit):
        # Control-flow exceptions re-raise explicitly ahead of the broad
        # cleanup clause: an interrupt must never be delayed or re-labelled
        # by temp-file housekeeping.
        _unlink_quietly(handle.name)
        raise
    except BaseException:
        _unlink_quietly(handle.name)
        raise


def _unlink_quietly(name: str) -> None:
    try:
        os.unlink(name)
    except OSError:
        pass


__all__ = [
    "CHECKPOINT_FILENAME",
    "CHECKPOINT_KIND",
    "CHECKPOINT_SCHEMA_VERSION",
    "SweepCheckpoint",
    "atomic_write_json",
]
