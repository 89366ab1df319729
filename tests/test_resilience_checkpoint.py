"""Sweep checkpointing: periodic flush, resume accounting, corrupt handling."""

from __future__ import annotations

import json

import pytest

from repro.experiments.store import export_summary_json
from repro.resilience.checkpoint import (
    CHECKPOINT_KIND,
    CHECKPOINT_SCHEMA_VERSION,
    SweepCheckpoint,
    atomic_write_json,
)


def test_checkpoint_round_trips(tmp_path):
    path = tmp_path / "checkpoint.json"
    checkpoint = SweepCheckpoint(path, total=3, flush_interval=100)
    checkpoint.record_success("scenario-a", status="ok", attempts=1)
    checkpoint.record_success("scenario-b", status="degraded", attempts=2)
    checkpoint.record_failure(
        "scenario-c",
        error_type="SimulationError",
        error="boom",
        attempts=3,
        timed_out=True,
    )
    checkpoint.flush()

    document = SweepCheckpoint.load(path)
    assert document is not None
    assert document["schema"] == CHECKPOINT_SCHEMA_VERSION
    assert document["kind"] == CHECKPOINT_KIND
    assert document["total"] == 3
    assert document["completed"]["scenario-a"]["status"] == "ok"
    assert document["completed"]["scenario-b"]["status"] == "degraded"
    failure = document["failures"]["scenario-c"]
    assert failure["error_type"] == "SimulationError"
    assert failure["attempts"] == 3
    assert failure["timed_out"] is True
    assert SweepCheckpoint.completed_ids(document) == {"scenario-a", "scenario-b"}


def test_checkpoint_flushes_on_its_interval(tmp_path):
    path = tmp_path / "checkpoint.json"
    checkpoint = SweepCheckpoint(path, total=4, flush_interval=2)
    checkpoint.record_success("scenario-a")
    assert not path.exists()  # one outcome: below the interval
    checkpoint.record_success("scenario-b")
    assert path.exists()  # second outcome: flushed
    document = SweepCheckpoint.load(path)
    assert set(document["completed"]) == {"scenario-a", "scenario-b"}


def test_unusable_checkpoints_load_as_absent(tmp_path):
    assert SweepCheckpoint.load(tmp_path / "missing.json") is None

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{half a docum")
    assert SweepCheckpoint.load(corrupt) is None

    wrong_kind = tmp_path / "kind.json"
    wrong_kind.write_text(json.dumps({"kind": "bench", "schema": 1}))
    assert SweepCheckpoint.load(wrong_kind) is None

    future = tmp_path / "future.json"
    future.write_text(
        json.dumps({"kind": CHECKPOINT_KIND, "schema": CHECKPOINT_SCHEMA_VERSION + 1})
    )
    assert SweepCheckpoint.load(future) is None

    assert SweepCheckpoint.completed_ids(None) == set()


@pytest.mark.parametrize(
    "write",
    [
        atomic_write_json,
        lambda path, payload: export_summary_json(path, [payload]),
    ],
    ids=["checkpoint", "store"],
)
def test_rejected_payload_leaves_target_untouched(tmp_path, write):
    path = tmp_path / "doc.json"
    write(path, {"x": 1})
    before = path.read_bytes()
    # json.dump streams chunks, so the temp file already holds a partial
    # document when it reaches the object it cannot encode.
    with pytest.raises(TypeError):
        write(path, {"x": object()})
    assert path.read_bytes() == before
    assert [entry.name for entry in tmp_path.iterdir()] == ["doc.json"]
