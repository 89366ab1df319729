#!/usr/bin/env python3
"""End-to-end benchmark of ``python -m repro sweep``, serial and pooled.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every sweep runs as a subprocess of this script, one at a time (a closed
loop with a single client, at most two processes per sweep), on an empty
output directory and result store inside ``.perfbench_tmp/`` of the
checkout, so each timed sweep pays the store's write path.  Children get
one BLAS/OpenMP thread and a fixed ``PYTHONHASHSEED`` (see ``CHILD_ENV``).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (the median, over
at least ``SETUP_REPEATS`` ``--dry-run`` invocations, of each one's wall
time over that of the ``REFERENCE_CODE`` run just before it, times
``REFERENCE_NOMINAL_S``), and the medians over the cold sweeps that fit in
``--seconds`` of ``sweep_s`` (wall time, process start to exit), ``cpu_s``
(user+system seconds of the sweep process and its reaped pool workers),
each sweep's scaled like ``setup_s`` by the mean of the reference runs
just before and just after it, and ``peak_rss_mb`` (the largest resident
set of any single process of the sweep, parent or pool worker).

``--trace 1`` reports per-layer metrics from one sweep run under
``perfbench/traced.py`` (runner profiling on), one warm rerun on the same
store, and untraced cold sweeps for the tracing overhead.

Every sweep passes a correctness gate: exit code 0, ``0 failed`` in the
footer, one ``summary.csv`` row per expanded scenario, and a
``summary.csv`` sha256 equal to the digest recorded in
``reference_digests.json``.  ``paper-8k`` and ``paper-8k-2w`` share one
digest: serial and pooled sweeps must agree byte for byte.

The workload seed is ``--seed`` modulo ``DIGEST_SEEDS``.  Seed 0 runs the
CLI exactly as users do; other seeds run ``perfbench/seeded_sweep.py``,
which writes the same files through the public API.  The last line of
stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
TMP_ROOT = ROOT / ".perfbench_tmp"
DIGESTS_PATH = BENCH_DIR / "reference_digests.json"

#: Number of workload seeds with a recorded reference digest.
DIGEST_SEEDS = 10
#: Reference runs, each followed by a timed ``--dry-run``, before each
#: cold sweep.
SETUP_BURST = 2
#: Fewest timed ``--dry-run`` invocations (and reference runs) in a run.
SETUP_REPEATS = 8
#: Every run ends within this many seconds, killing a hung sweep.
RUN_DEADLINE_S = 170.0
#: Fixed work timed in a child interpreter just before each timed
#: ``--dry-run``, as a gauge of the host's speed at that moment.  It is
#: module-level code, so like an import it pays for interpreter start and
#: global-dict lookups; a tight loop inside a function missed the
#: slowdowns that hit the dry runs.
REFERENCE_CODE = "total = 0\nfor i in range(1_500_000):\n    total += i * i\n"
#: Wall seconds of the reference run on the nominal host to which
#: ``setup_s`` is scaled.
REFERENCE_NOMINAL_S = 0.25

#: Environment of every child.  One BLAS thread: unpinned, OpenBLAS starts
#: one thread per core and GCN training then competes with itself, which
#: made the measured-sparsity workload swing by 10-15% between runs.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Workload:
    pack: str
    max_vertices: int
    workers: int
    scenarios: int

    @property
    def digest_key(self) -> str:
        return f"{self.pack}@{self.max_vertices}"


WORKLOADS: Dict[str, Workload] = {
    # Replay engine build path: engine_build dominates, no GCN training.
    "paper-8k": Workload("paper-comparison", 8192, 1, 54),
    # The same sweep on a 2-worker pool: pool dispatch, engines rebuilt
    # per worker; must produce paper-8k's summary.csv byte for byte.
    "paper-8k-2w": Workload("paper-comparison", 8192, 2, 54),
    # DeepGCN training dominates, replay is negligible: the control for
    # replay changes.  Full 24-cell depth x residual grid at reduced scale.
    "measured-sparsity": Workload("sparsity-depth", 64, 1, 24),
}

FOOTER = re.compile(r"(\d+) simulated, (\d+) cache hits, (\d+) failed")


# --------------------------------------------------------------------------- #
# Children
# --------------------------------------------------------------------------- #
@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    pid: int


def child_env(tmp: Path) -> Dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmp)
    return env


def run_child(argv: Sequence[str], cwd: Path, deadline: float) -> Child:
    """Run ``argv`` to completion and return its wall time and rusage.

    ``os.wait4`` reports the child's resource usage together with that of
    every descendant it reaped, so pool workers count in ``cpu_s`` and
    ``peak_rss_mb`` (``ru_maxrss`` is the largest single process).  The
    child leads its own process group, which is killed if ``deadline``
    passes.
    """
    out_path = cwd / "stdout.txt"
    with open(out_path, "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            cwd=cwd,
            env=child_env(cwd),
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        watchdog = threading.Timer(
            max(0.0, deadline - time.perf_counter()),
            os.killpg,
            (proc.pid, signal.SIGKILL),
        )
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            watchdog.cancel()
        # Reaped above; tell Popen so it does not wait for the pid again.
        proc.returncode = os.waitstatus_to_exitcode(status)
    _wait_group_gone(proc.pid)
    return Child(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        pid=proc.pid,
    )


def _wait_group_gone(pgid: int) -> None:
    """Kill and outwait any process left in the child's group."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


#: How each sweep entry point is started; ``traced.py`` takes the key.
ENTRY_POINTS = {"cli": ["-m", "repro"], "seeded": [str(BENCH_DIR / "seeded_sweep.py")]}


def sweep_command(workload: Workload, seed: int) -> Tuple[str, List[str]]:
    """Entry point and arguments of a sweep writing to ``./out``."""
    args = [
        "--out",
        "out",
        "--max-vertices",
        str(workload.max_vertices),
        "--workers",
        str(workload.workers),
    ]
    if seed == 0:
        return "cli", ["sweep", workload.pack, *args]
    return "seeded", [workload.pack, "--seed", str(seed), *args]


def sweep_argv(workload: Workload, seed: int) -> List[str]:
    entry, args = sweep_command(workload, seed)
    return [sys.executable, *ENTRY_POINTS[entry], *args]


def traced_argv(workload: Workload, seed: int, records: Path) -> List[str]:
    entry, args = sweep_command(workload, seed)
    traced = str(BENCH_DIR / "traced.py")
    return [sys.executable, traced, str(records), entry, *args]


def dry_run_argv(workload: Workload) -> List[str]:
    return [
        sys.executable,
        "-m",
        "repro",
        "sweep",
        workload.pack,
        "--max-vertices",
        str(workload.max_vertices),
        "--out",
        "out",
        "--dry-run",
    ]


# --------------------------------------------------------------------------- #
# Correctness gate
# --------------------------------------------------------------------------- #
def summary_digest(path: Path) -> Tuple[str, int]:
    """sha256 of a ``summary.csv`` and its number of data rows."""
    data = path.read_bytes()
    rows = list(csv.reader(data.decode("utf-8").splitlines()))
    return hashlib.sha256(data).hexdigest(), max(0, len(rows) - 1)


def gate_sweep(
    child: Child, out: Path, workload: Workload, digest: str, warm: bool = False
) -> List[str]:
    """Problems with one sweep's output; empty when it passes."""
    problems = []
    if child.exit_code != 0:
        problems.append(f"exit code {child.exit_code}")
    footer = FOOTER.findall(child.stdout)
    if not footer:
        problems.append("no sweep footer")
    else:
        simulated, hits, failed = (int(value) for value in footer[-1])
        if failed != 0:
            problems.append(f"{failed} failed")
        expected_hits = workload.scenarios if warm else 0
        if hits != expected_hits or simulated + hits != workload.scenarios:
            problems.append(f"{simulated} simulated, {hits} cache hits")
    summary = out / workload.pack / "summary.csv"
    if not summary.is_file():
        problems.append("no summary.csv")
        return problems
    actual, rows = summary_digest(summary)
    if rows != workload.scenarios:
        problems.append(f"summary.csv has {rows} rows, expected {workload.scenarios}")
    if actual != digest:
        problems.append(f"summary.csv sha256 {actual[:12]} != reference {digest[:12]}")
    return problems


# --------------------------------------------------------------------------- #
# Runs
# --------------------------------------------------------------------------- #
class Run:
    """One benchmark invocation: a temp area, a deadline, an operation tally."""

    def __init__(self, workload: Workload, seed: int, digest: str) -> None:
        self.workload = workload
        self.seed = seed
        self.digest = digest
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        TMP_ROOT.mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))

    def fresh_dir(self) -> Path:
        return Path(tempfile.mkdtemp(dir=self.tmp))

    def check(self, label: str, problems: List[str]) -> None:
        """Count one operation, failed if ``problems`` is not empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)

    def dry_run(self, label: str) -> float:
        """One gated ``--dry-run`` of the CLI; returns its wall time."""
        workload = self.workload
        expected = f"{workload.pack}: {workload.scenarios} scenarios (validated)"
        cwd = self.fresh_dir()
        child = run_child(dry_run_argv(self.workload), cwd, self.deadline)
        problems = [] if child.exit_code == 0 else [f"exit code {child.exit_code}"]
        if expected not in child.stdout:
            problems.append(f"dry run did not print {expected!r}")
        self.check(label, problems)
        shutil.rmtree(cwd)
        return child.wall_s

    def reference(self) -> float:
        """Wall time of one run of ``REFERENCE_CODE`` in a child."""
        cwd = self.fresh_dir()
        child = run_child([sys.executable, "-c", REFERENCE_CODE], cwd, self.deadline)
        shutil.rmtree(cwd)
        if child.exit_code != 0:
            raise RuntimeError(f"reference run exited with {child.exit_code}")
        return child.wall_s

    def cold_sweep(self, label: str) -> Child:
        """One gated cold sweep in a fresh directory, removed afterwards."""
        cwd = self.fresh_dir()
        child = run_child(sweep_argv(self.workload, self.seed), cwd, self.deadline)
        self.check(label, gate_sweep(child, cwd / "out", self.workload, self.digest))
        shutil.rmtree(cwd)
        return child

    def sweeps_for(
        self,
        seconds: float,
        label: str,
        before_each: Callable[[], object] = lambda: None,
    ) -> List[Child]:
        """Cold sweeps back to back while the next one fits in ``seconds``."""
        children: List[Child] = []
        start = time.perf_counter()
        while True:
            before_each()
            children.append(self.cold_sweep(f"{label} {len(children)}"))
            # Start another only if it should end within ``seconds`` even
            # when 10% slower than the slowest so far.
            longest = 1.1 * max(c.wall_s for c in children)
            elapsed = time.perf_counter() - start
            if elapsed + longest > seconds:
                return children
            if time.perf_counter() + longest > self.deadline:
                return children

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass


def end_to_end(run: Run, seconds: float) -> Dict[str, Tuple[float, str]]:
    run.dry_run("dry-run warm-up")  # untimed: compiles bytecode in a fresh checkout
    # A dry run's speed follows the host's, which drifts by up to 45% for
    # minutes at a time: medians of raw dry-run times moved by 40% between
    # sets of runs of the same code.  So each timed dry run is paired with a
    # reference run just before it, and setup_s is the median dry/reference
    # ratio times the reference's nominal time: set-up seconds on a host of
    # nominal speed.  The pairs are spread through the run, a burst before
    # each sweep, one after the last and more until there are
    # ``SETUP_REPEATS``.  Each sweep is scaled the same way by the mean of
    # the references in the bursts on either side of it: raw sweep medians
    # of ten runs of the same code spread by up to 0.36.
    setup: List[float] = []
    reference: List[float] = []

    def sample_setup() -> None:
        for _ in range(SETUP_BURST):
            reference.append(run.reference())
            setup.append(run.dry_run(f"dry-run {len(setup)}"))

    children = run.sweeps_for(seconds, "sweep", before_each=sample_setup)
    sample_setup()
    while len(setup) < SETUP_REPEATS:
        sample_setup()
    ratio = statistics.median(dry / ref for dry, ref in zip(setup, reference))
    walls = _seconds(c.wall_s for c in children)
    print(f"sweeps: {len(children)} cold sweeps, wall {walls}")
    print(f"setup: {len(setup)} dry runs, wall {_seconds(setup)}")
    print(f"reference: {len(reference)} runs, {_seconds(reference)}")
    # Sweep i ran between bursts i and i + 1.
    scales = [
        REFERENCE_NOMINAL_S
        / statistics.mean(reference[SETUP_BURST * i : SETUP_BURST * (i + 2)])
        for i in range(len(children))
    ]
    print(f"host scale per sweep: {', '.join(f'{s:.3f}' for s in scales)}")
    sweep_walls = [c.wall_s * scale for c, scale in zip(children, scales)]
    sweep_cpus = [c.cpu_s * scale for c, scale in zip(children, scales)]
    return {
        "setup_s": (ratio * REFERENCE_NOMINAL_S, "s"),
        "sweep_s": (statistics.median(sweep_walls), "s"),
        "cpu_s": (statistics.median(sweep_cpus), "s"),
        "peak_rss_mb": (statistics.median(c.peak_rss_mb for c in children), "MB"),
    }


def _seconds(values: Iterable[float]) -> str:
    return ", ".join(f"{value:.3f}" for value in values) + " s"


# --------------------------------------------------------------------------- #
# Traced run
# --------------------------------------------------------------------------- #
def _records(directory: Path) -> List[list]:
    records = []
    for path in sorted(directory.glob("*.jsonl")):
        for line in path.read_text(encoding="utf-8").splitlines():
            records.append(json.loads(line))
    return records


def _sum(records: List[list], name: str) -> Tuple[float, int]:
    durations = [end - start for kind, _, start, end, _ in records if kind == name]
    return sum(durations), len(durations)


def _span_total(tree: Dict[str, dict], name: str) -> Tuple[float, int]:
    """Total seconds and count of span ``name`` anywhere in a span tree."""
    total, count = 0.0, 0
    for span_name, node in tree.items():
        if span_name == name:
            total += node["total_s"]
            count += node["count"]
        sub_total, sub_count = _span_total(node.get("children", {}), name)
        total += sub_total
        count += sub_count
    return total, count


def _hit_ratio(counters: Dict[str, int]) -> float:
    lookups = counters.get("hits", 0) + counters.get("misses", 0)
    return counters.get("hits", 0) / lookups if lookups else 0.0


def per_layer(run: Run, seconds: float) -> Dict[str, Tuple[float, str]]:
    workload = run.workload
    untraced = run.sweeps_for(seconds / 2, "untraced sweep")

    cwd = run.fresh_dir()
    cold_records = cwd / "records-cold"
    warm_records = cwd / "records-warm"
    cold_records.mkdir()
    warm_records.mkdir()
    cold = run_child(traced_argv(workload, run.seed, cold_records), cwd, run.deadline)
    run.check("traced sweep", gate_sweep(cold, cwd / "out", workload, run.digest))
    warm = run_child(traced_argv(workload, run.seed, warm_records), cwd, run.deadline)
    run.check(
        "traced warm rerun",
        gate_sweep(warm, cwd / "out", workload, run.digest, warm=True),
    )

    records = _records(cold_records)
    metrics_path = cold_records / "metrics.json"
    if metrics_path.is_file():
        sweep = json.loads(metrics_path.read_text(encoding="utf-8"))["sweeps"][0]
    else:
        sweep = {"spans": {}, "caches": {}}
    spans, caches = sweep["spans"], sweep["caches"]

    runner_s, _ = _sum(records, "runner.run")
    session_s, session_runs = _sum(records, "session.run")
    import_s, _ = _sum(records, "cli.import")
    export_s, _ = _sum(records, "cli.export")
    # SweepRunner.run's self time: its interval minus the Session.run and
    # store calls it made in the same (parent) process.
    runner_calls = [r for r in records if r[0] == "runner.run" and r[1] == cold.pid]
    child_s = sum(
        end - start
        for name, pid, start, end, _ in records
        if pid == cold.pid
        and name in ("session.run", "store.get", "store.put")
        and any(r[2] <= start and end <= r[3] for r in runner_calls)
    )
    build_s, builds = _sum(records, "replay.engine_build")
    evaluate_s, evaluations = _span_total(spans, "replay_evaluate")
    train_s, trains = _span_total(spans, "gcn_train")
    load_s, loads = _sum(records, "datasets.load")
    put_s, puts = _sum(records, "store.put")
    warm_records_list = _records(warm_records)
    get_s, gets = _sum(warm_records_list, "store.get")
    hits = sum(1 for r in warm_records_list if r[0] == "store.get" and r[4])
    trace = caches.get("trace", {})
    shutil.rmtree(cwd)

    untraced_s = statistics.median(c.wall_s for c in untraced)
    metrics: Dict[str, Tuple[float, str]] = {
        "replay.engine_build_s": (build_s, "s"),
        "replay.engine_builds": (builds, "count"),
        "replay.evaluate_s": (evaluate_s, "s"),
        "replay.evaluations": (evaluations, "count"),
        "replay.memo_hit_ratio": (_hit_ratio(caches.get("replay_memo", {})), "ratio"),
    }
    for stage in ("build_context", "schedule", "replay", "timing", "energy"):
        metrics[f"pipeline.{stage}_s"] = (spans.get(stage, {}).get("total_s", 0.0), "s")
    metrics.update(
        {
            "runner.run_s": (runner_s, "s"),
            "runner.dispatch_self_s": (runner_s - child_s, "s"),
            "runner.worker_busy_s": (session_s, "s"),
            "runner.worker_idle_s": (workload.workers * runner_s - session_s, "s"),
            "session.run_s": (session_s, "s"),
            "session.runs": (session_runs, "count"),
            "session.trace_cache.hit_ratio": (_hit_ratio(trace), "ratio"),
            "session.trace_cache.evictions": (trace.get("evictions", 0), "count"),
            "session.trace_cache.bytes": (trace.get("bytes", 0), "bytes"),
            "datasets.load_s": (load_s, "s"),
            "datasets.loads": (loads, "count"),
            "gcn.train_s": (train_s, "s"),
            "gcn.trains": (trains, "count"),
            "gcn.measurement_cache.hit_ratio": (
                _hit_ratio(caches.get("measurement", {})),
                "ratio",
            ),
            "store.put_s": (put_s, "s"),
            "store.puts": (puts, "count"),
            "store.get_s": (get_s, "s"),
            "store.gets": (gets, "count"),
            "store.hits": (hits, "count"),
            "cli.import_s": (import_s, "s"),
            "cli.export_s": (export_s, "s"),
            "unattributed_s": (cold.wall_s - import_s - runner_s - export_s, "s"),
            "trace_overhead_s": (cold.wall_s - untraced_s, "s"),
        }
    )
    _sanity(metrics, session_s)
    return metrics


def _sanity(metrics: Dict[str, Tuple[float, str]], session_s: float) -> None:
    """Print how the trace compares with the profile facts it should match.

    Informational only: a later change may legitimately move these.
    """
    builds = metrics["replay.engine_builds"][0]
    train_share = metrics["gcn.train_s"][0] / session_s if session_s else 0.0
    print(
        f"sanity: replay.engine_builds={builds:.0f} "
        f"(paper-comparison@8192 serial: 46; 2 workers: more), "
        f"gcn.train_s share of session.run_s={train_share:.1%} "
        f"(measured-sparsity: over 90%)"
    )


# --------------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[*sorted(WORKLOADS), "all"],
        help="one workload, or 'all' to run each in turn (metrics prefixed by name)",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    seed = args.seed % DIGEST_SEEDS
    digests = json.loads(DIGESTS_PATH.read_text(encoding="utf-8"))
    entry = "python -m repro sweep" if seed == 0 else "perfbench/seeded_sweep.py"
    print("child env: " + " ".join(f"{k}={v}" for k, v in sorted(CHILD_ENV.items())))

    attempted = failed = 0
    metrics: Dict[str, Tuple[float, str]] = {}
    for name in names:
        workload = WORKLOADS[name]
        print(
            f"workload {name}: {workload.pack} --max-vertices "
            f"{workload.max_vertices} --workers {workload.workers}; --seed {args.seed} "
            f"-> workload seed {seed} via {entry}"
        )
        run = Run(workload, seed, digests[workload.digest_key][str(seed)])
        try:
            if args.trace:
                measured = per_layer(run, args.seconds)
            else:
                measured = end_to_end(run, args.seconds)
        finally:
            run.close()
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, (value, unit) in measured.items():
            print(f"  {prefix + metric:<34} {value:>14.6f} {unit}")
            metrics[prefix + metric] = (value, unit)
        print(
            f"correctness gate: {'pass' if run.failed == 0 else 'FAIL'} "
            f"({run.attempted} operations, {run.failed} failed)"
        )
        attempted += run.attempted
        failed += run.failed

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
