"""Run one sweep with timers around the program's public layer boundaries.

Usage::

    python perfbench/traced.py RECORDS_DIR cli ARGS...
    python perfbench/traced.py RECORDS_DIR seeded ARGS...

``cli`` runs ``python -m repro ARGS...``; ``seeded`` runs
``perfbench/seeded_sweep.py ARGS...``.

Before handing over to the entry point it times the import of the CLI
module, turns on the sweep runner's span and cache-counter profiling (what
``--profile`` records, written to ``RECORDS_DIR/metrics.json``), and wraps
these calls so that each one appends a JSON line
``[name, pid, start, end, hit]`` to ``RECORDS_DIR/<pid>.jsonl``:

* ``repro.graphs.datasets.load_dataset``            -> ``datasets.load``
* ``Session.run``                                   -> ``session.run``
* ``ResultStore.get`` / ``ResultStore.put``         -> ``store.get`` / ``store.put``
* ``export_scenario_json`` / ``export_summary_csv``
  / ``export_summary_json``                         -> ``cli.export``
* ``SweepRunner.run``                               -> ``runner.run``
* ``ReplayEngine`` construction                     -> ``replay.engine_build``

Each line is written and closed at once, so the records of forked pool
workers survive however the pool ends them.  Start and end come from
``time.perf_counter`` (the system-wide monotonic clock), so records of
different processes share one time base.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, Callable, Optional


class Recorder:
    """Appends timed calls to per-process JSON-lines files in one directory."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory

    def record(
        self, name: str, start: float, end: float, hit: Optional[bool] = None
    ) -> None:
        pid = os.getpid()
        with open(self.directory / f"{pid}.jsonl", "a", encoding="utf-8") as handle:
            handle.write(json.dumps([name, pid, start, end, hit]) + "\n")

    def timed(
        self,
        name: str,
        fn: Callable[..., Any],
        hit: Optional[Callable[[Any], bool]] = None,
    ) -> Callable[..., Any]:
        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self.record(name, start, end, hit(result) if hit is not None else None)

        return wrapper

    def rebind_function(self, module: Any, attr: str, name: str) -> None:
        """Wrap ``module.attr`` and every ``repro`` module-level alias of it."""
        original = getattr(module, attr)
        wrapper = self.timed(name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not loaded_name.startswith("repro"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapper)


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries listed in the module docstring."""
    from repro.core.session import Session
    from repro.experiments import store
    from repro.experiments.runner import SweepRunner
    from repro.graphs import datasets
    from repro.memory.replay import ReplayEngine
    from repro.telemetry.metrics import sweep_metrics_document, write_metrics_json

    recorder.rebind_function(datasets, "load_dataset", "datasets.load")
    for attr in ("export_scenario_json", "export_summary_csv", "export_summary_json"):
        recorder.rebind_function(store, attr, "cli.export")
    Session.run = recorder.timed("session.run", Session.run)
    store.ResultStore.get = recorder.timed(
        "store.get", store.ResultStore.get, hit=lambda result: result is not None
    )
    store.ResultStore.put = recorder.timed("store.put", store.ResultStore.put)
    ReplayEngine.__init__ = recorder.timed("replay.engine_build", ReplayEngine.__init__)
    timed_run = recorder.timed("runner.run", SweepRunner.run)

    def profiled_run(self: SweepRunner, *args: Any, **kwargs: Any) -> Any:
        # What ``--profile`` turns on in the runner, without the CLI's
        # extra summary.csv timing columns, so the traced summary.csv must
        # still equal the untraced one.
        self.profile = True
        report = timed_run(self, *args, **kwargs)
        write_metrics_json(
            recorder.directory / "metrics.json",
            sweep_metrics_document([report.metrics_document(pack="traced")]),
        )
        return report

    SweepRunner.run = profiled_run


def main() -> int:
    recorder = Recorder(Path(sys.argv[1]))
    entry, argv = sys.argv[2], sys.argv[3:]
    start = time.perf_counter()
    from repro.experiments import cli

    recorder.record("cli.import", start, time.perf_counter())
    install(recorder)
    if entry == "cli":
        return cli.main(argv)
    import seeded_sweep

    return seeded_sweep.main(argv)


if __name__ == "__main__":
    sys.exit(main())
