"""Run one scenario pack at a chosen RNG seed, writing what ``repro sweep`` writes.

``repro sweep`` has no seed flag, so held-out seeds go through this thin
script over the public API: ``get_pack`` -> ``SweepSpec(seeds=...)`` ->
``SweepRunner.run`` -> ``export_scenario_json`` / ``export_summary_csv``.
It mirrors the CLI's default sweep path (result store under
``<out>/.cache``, checkpoint file, replay-knob grouping, per-scenario JSON,
``summary.csv`` and ``summary.json``), so at seed 0 its ``summary.csv`` is
byte-identical to the CLI's.

Usage::

    python perfbench/seeded_sweep.py PACK --seed N --out DIR
        [--workers W] [--max-vertices V]

It prints the CLI's footer line (``... N simulated, N cache hits, N failed``)
and exits 1 if any scenario failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path
from typing import List, Optional, Sequence


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pack")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--max-vertices", type=int, default=None)
    args = parser.parse_args(argv)

    from repro.experiments.runner import SweepRunner
    from repro.experiments.scenarios import get_pack
    from repro.experiments.store import (
        ResultStore,
        export_scenario_json,
        export_summary_csv,
        export_summary_json,
        summary_row,
    )
    from repro.resilience.checkpoint import CHECKPOINT_FILENAME

    spec = dataclasses.replace(
        get_pack(args.pack, max_vertices=args.max_vertices), seeds=(args.seed,)
    )
    out_root = Path(args.out)
    pack_dir = out_root / spec.name
    runner = SweepRunner(
        store=ResultStore(out_root / ".cache"),
        workers=args.workers,
        checkpoint_path=str(pack_dir / CHECKPOINT_FILENAME),
    )
    report = runner.run(spec.expand())
    rows: List[dict] = []
    for outcome in report.successes():
        export_scenario_json(pack_dir, outcome.scenario, outcome.result)
        rows.append(summary_row(outcome.scenario, outcome.result))
    if rows:
        export_summary_csv(pack_dir / "summary.csv", rows)
        export_summary_json(pack_dir / "summary.json", rows)
    print(
        f"  done in {report.elapsed_seconds:.1f}s: {report.num_simulated} simulated, "
        f"{report.num_cached} cache hits, {report.num_failed} failed"
    )
    for outcome in report.failures:
        print(f"FAILED {outcome.scenario.label()}: {outcome.error}", file=sys.stderr)
    return 1 if report.failures else 0


if __name__ == "__main__":
    sys.exit(main())
