"""Content-addressed on-disk result cache and exporters.

Every cached entry is keyed by a SHA-256 over the scenario's canonical
identity (:meth:`~repro.experiments.spec.Scenario.key`) plus a schema
version, so re-running a sweep only simulates scenarios whose results are
missing, and bumping :data:`SCHEMA_VERSION` after a model change invalidates
every stale entry at once.

The store also provides the export paths the paper-figure tooling consumes:
per-scenario JSON documents and a merged CSV of one summary row per run.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.core.results import SimulationResult
from repro.errors import SimulationError
from repro.experiments.spec import Scenario
from repro.resilience.checkpoint import atomic_write_json
from repro.resilience.faults import fault_point
from repro.telemetry.spans import span

logger = logging.getLogger(__name__)

#: Bump when the performance model changes in a way that invalidates cached
#: results (cache keys incorporate this value).
SCHEMA_VERSION = 1

#: Directory (under the store root) where corrupt entries are moved for
#: post-mortem inspection instead of being deleted.
QUARANTINE_DIRNAME = "quarantine"

#: Column order of the merged summary CSV.
SUMMARY_COLUMNS: Tuple[str, ...] = (
    "scenario_id",
    "tag",
    "dataset",
    "accelerator",
    "variant",
    "seed",
    "num_layers",
    "max_vertices",
    "sparsity",
    "overrides",
    "design",
    "cycles",
    "runtime_s",
    "dram_bytes",
    "macs",
    "energy_j",
    "cache_hit_rate",
    # Sweep-level throughput context (identical on every row of one sweep).
    # Only populated by profiled sweeps (`repro sweep --profile`): wall-clock
    # values would otherwise break the byte-identical summary.csv guarantee
    # across worker counts and reruns. Empty outside sweeps too, e.g.
    # `repro export` over a bare cache store.
    "sweep_elapsed_seconds",
    "sweep_runs_per_second",
)


def scenario_cache_key(scenario: Scenario) -> str:
    """Full SHA-256 cache key of ``scenario`` under the current schema."""
    payload = json.dumps(
        {"schema": SCHEMA_VERSION, "scenario": scenario.key()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def result_checksum(result_document: Dict[str, object]) -> str:
    """SHA-256 over the canonical JSON form of a result document.

    Embedded in every store entry and verified on :meth:`ResultStore.get`,
    so bit-rot (or a partial write that still parses) surfaces as a
    quarantined entry instead of a silently wrong cached result.
    """
    payload = json.dumps(result_document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def summary_row(scenario: Scenario, result: SimulationResult) -> Dict[str, object]:
    """One merged-CSV row for ``(scenario, result)``."""
    row: Dict[str, object] = {
        "scenario_id": scenario.scenario_id,
        "tag": scenario.tag,
        "dataset": scenario.dataset,
        "accelerator": scenario.accelerator,
        "variant": scenario.variant,
        "seed": scenario.seed,
        "num_layers": scenario.num_layers,
        "max_vertices": scenario.max_vertices,
        "sparsity": scenario.sparsity or "synthetic",
        "overrides": json.dumps(dict(sorted(scenario.overrides.items())), sort_keys=True),
        "design": json.dumps(dict(scenario.design or {}), sort_keys=True),
    }
    summary = result.summary()
    for column in ("cycles", "runtime_s", "dram_bytes", "macs", "energy_j",
                   "cache_hit_rate"):
        row[column] = summary[column]
    return row


class ResultStore:
    """Content-addressed cache of :class:`SimulationResult` documents.

    Entries live under ``root/<k0:2>/<key>.json`` (two-level fan-out keeps
    directories small for big sweeps).  Writes are atomic (temp file +
    ``os.replace``) so a crashed worker never leaves a truncated entry.

    Every entry embeds a SHA-256 checksum over its result document, verified
    on :meth:`get`.  A corrupt entry (unreadable, unparsable, or checksum
    mismatch) is *quarantined* — moved under ``root/quarantine/`` and
    counted in :meth:`stats` — never silently deleted, so damaged caches
    stay debuggable while sweeps heal around them.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.puts = 0

    # ------------------------------------------------------------------ #
    def path_for(self, scenario: Scenario) -> Path:
        """On-disk path of the entry for ``scenario``."""
        key = scenario_cache_key(scenario)
        return self.root / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved for post-mortem inspection."""
        return self.root / QUARANTINE_DIRNAME

    def contains(self, scenario: Scenario) -> bool:
        """Whether a cached result exists for ``scenario``."""
        return self.path_for(scenario).is_file()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/corruption counters of this store instance."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "puts": self.puts,
        }

    def get(self, scenario: Scenario) -> Optional[SimulationResult]:
        """Load the cached result for ``scenario``, or ``None`` on a miss.

        Corrupt entries — unreadable, unparsable, or failing their embedded
        checksum — count as misses and are moved to ``quarantine/`` so a
        sweep heals a damaged cache without destroying the evidence.
        """
        fault_point("store:get")
        path = self.path_for(scenario)
        if not path.is_file():
            self.misses += 1
            return None
        try:
            with span("store_get"):
                with path.open("r", encoding="utf-8") as handle:
                    document = json.load(handle)
                expected = document.get("checksum")
                if expected is not None and expected != result_checksum(
                    document["result"]
                ):
                    raise ValueError("embedded checksum mismatch")
                result = SimulationResult.from_dict(document["result"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            self.misses += 1
            self._quarantine(path, exc)
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path, reason: Exception) -> None:
        """Move a corrupt entry under ``quarantine/`` (never delete it)."""
        self.corrupt += 1
        destination = self.quarantine_dir / path.name
        logger.warning(
            "quarantining corrupt cache entry %s -> %s (%s)",
            path,
            destination,
            reason,
        )
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, destination)
        except OSError as exc:
            logger.warning("could not quarantine %s (%s)", path, exc)

    def put(self, scenario: Scenario, result: SimulationResult) -> Path:
        """Store ``result`` for ``scenario`` and return the entry path."""
        fault_point("store:put")
        path = self.path_for(scenario)
        with span("store_put"):
            path.parent.mkdir(parents=True, exist_ok=True)
            result_document = result.to_dict()
            document = {
                "schema": SCHEMA_VERSION,
                "key": scenario_cache_key(scenario),
                "scenario": scenario.to_dict(),
                "result": result_document,
                "checksum": result_checksum(result_document),
                "summary": result.summary(),
            }
            atomic_write_json(path, document)
        self.puts += 1
        return path

    # ------------------------------------------------------------------ #
    def entries(self) -> Iterable[Tuple[Scenario, SimulationResult]]:
        """Iterate over every (scenario, result) pair in the store."""
        for path in sorted(self.root.glob("*/*.json")):
            if path.parent.name == QUARANTINE_DIRNAME:
                continue
            try:
                with path.open("r", encoding="utf-8") as handle:
                    document = json.load(handle)
                yield (
                    Scenario.from_dict(document["scenario"]),
                    SimulationResult.from_dict(document["result"]),
                )
            except (OSError, ValueError, KeyError, TypeError) as exc:
                logger.warning("skipping unreadable cache entry %s (%s)", path, exc)

    def __len__(self) -> int:
        return sum(
            1
            for path in self.root.glob("*/*.json")
            if path.parent.name != QUARANTINE_DIRNAME
        )


# --------------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------------- #
def export_scenario_json(
    out_dir: Union[str, Path],
    scenario: Scenario,
    result: SimulationResult,
) -> Path:
    """Write one per-scenario JSON document and return its path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{scenario.dataset}-{scenario.accelerator}-{scenario.scenario_id}.json"
    document = {
        "scenario": scenario.to_dict(),
        "summary": result.summary(),
        "result": result.to_dict(),
    }
    atomic_write_json(path, document)
    return path


def export_summary_csv(
    path: Union[str, Path],
    rows: Sequence[Dict[str, object]],
) -> Path:
    """Write the merged summary CSV (one row per scenario) and return its path."""
    if not rows:
        raise SimulationError("no rows to export; run the sweep first")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(SUMMARY_COLUMNS))
        writer.writeheader()
        for row in rows:
            writer.writerow({column: row.get(column, "") for column in SUMMARY_COLUMNS})
    return path


def export_summary_json(
    path: Union[str, Path],
    rows: Sequence[Dict[str, object]],
) -> Path:
    """Write the merged summary as a JSON array and return its path."""
    if not rows:
        raise SimulationError("no rows to export; run the sweep first")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(path, list(rows))
    return path


def load_sweep_rows(results_dir: Union[str, Path]) -> List[Dict[str, object]]:
    """Collect summary rows from a directory of per-scenario JSON documents.

    Accepts both the sweep output layout (flat ``*.json`` files) and the
    cache-store layout (two-level fan-out); merged summary files are ignored.
    Hidden directories (notably the ``.cache`` store a sweep places under its
    output root) are skipped, and documents describing the same scenario are
    deduplicated, so exporting an output tree that also contains the cache
    yields one row per scenario.
    """
    results_dir = Path(results_dir)
    if not results_dir.is_dir():
        raise SimulationError(f"no such results directory: {results_dir}")
    rows: List[Dict[str, object]] = []
    seen: set = set()
    duplicates = 0
    for path in sorted(results_dir.rglob("*.json")):
        relative = path.relative_to(results_dir)
        if any(part.startswith(".") for part in relative.parts):
            continue
        try:
            with path.open("r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, ValueError) as exc:
            logger.warning("skipping unreadable result %s (%s)", path, exc)
            continue
        if not isinstance(document, dict) or "scenario" not in document:
            continue
        try:
            scenario = Scenario.from_dict(document["scenario"])
            result = SimulationResult.from_dict(document["result"])
        except (KeyError, ValueError, TypeError) as exc:
            logger.warning("skipping malformed result %s (%s)", path, exc)
            continue
        if scenario.scenario_id in seen:
            duplicates += 1
            continue
        seen.add(scenario.scenario_id)
        rows.append(summary_row(scenario, result))
    if duplicates:
        logger.info("skipped %d duplicate scenario document(s)", duplicates)
    return rows


__all__ = [
    "QUARANTINE_DIRNAME",
    "ResultStore",
    "SCHEMA_VERSION",
    "SUMMARY_COLUMNS",
    "export_scenario_json",
    "export_summary_csv",
    "export_summary_json",
    "load_sweep_rows",
    "result_checksum",
    "scenario_cache_key",
    "summary_row",
]
