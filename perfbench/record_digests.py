#!/usr/bin/env python3
"""Record the reference ``summary.csv`` digests the benchmark gates on.

Usage (from the root of a checkout)::

    python3 perfbench/record_digests.py

For every distinct (pack, scale) of the benchmark's workloads and every
workload seed ``0 .. DIGEST_SEEDS-1`` it runs one serial cold sweep the way
``run.py`` does and writes the sha256 of its ``summary.csv`` to
``perfbench/reference_digests.json``.  Re-record only for a change that is
meant to alter simulated results; a speed-only change must leave every
digest as it is.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import (
    DIGEST_SEEDS,
    DIGESTS_PATH,
    TMP_ROOT,
    WORKLOADS,
    gate_sweep,
    run_child,
    summary_digest,
    sweep_argv,
)


def main() -> int:
    digests = {}
    serial = {
        w.digest_key: dataclasses.replace(w, workers=1) for w in WORKLOADS.values()
    }
    TMP_ROOT.mkdir(exist_ok=True)
    for key, workload in sorted(serial.items()):
        digests[key] = {}
        for seed in range(DIGEST_SEEDS):
            cwd = Path(tempfile.mkdtemp(dir=TMP_ROOT))
            try:
                child = run_child(
                    sweep_argv(workload, seed), cwd, time.perf_counter() + 600.0
                )
                out = cwd / "out"
                summary = out / workload.pack / "summary.csv"
                digest = summary_digest(summary)[0] if summary.is_file() else ""
                # The digest matches itself; the gate checks everything else.
                problems = gate_sweep(child, out, workload, digest)
            finally:
                shutil.rmtree(cwd)
            if problems:
                raise SystemExit(f"{key} seed {seed}: {'; '.join(problems)}")
            digests[key][str(seed)] = digest
            print(f"{key} seed {seed}: {digest} ({child.wall_s:.1f}s)")
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    try:
        TMP_ROOT.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
