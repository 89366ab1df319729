"""Golden equivalence: the shared-cache session path vs uncached runs, and
the replay statistics of real traces vs the per-access oracles.

For every built-in dataset x accelerator x variant, results produced through
one :class:`Session` (traces, reordered graphs, replay engines, row tables
and replay memos shared across runs) must be byte-identical to a run that
shares nothing (``trace_cache=None``).  The per-trace replay statistics of
each design's real schedule — including EnGN's pinned partition — must match
the loop-based oracles of ``tests/oracles.py`` bit for bit.
"""

import json

import numpy as np
import pytest

from oracles import RowCache, pinned_partition_replay
from repro.accelerator.pipeline import build_context, schedule, simulate_design
from repro.accelerator.pipeline import GCN_VARIANTS
from repro.accelerator.registry import available_accelerators
from repro.core.config import SystemConfig
from repro.core.runspec import RunSpec
from repro.core.session import Session
from repro.graphs.datasets import FIGURE_ORDER
from repro.memory.replay import ReplayEngine

#: Scale cap keeping the full grid fast while still exercising tiling,
#: engine interleaving, pinned partitions, and every feature format.
GOLDEN_MAX_VERTICES = 96

ALL_ACCELERATORS = tuple(available_accelerators())


def stats_tuple(stats):
    return (stats.accesses, stats.hits, stats.misses, stats.hit_lines, stats.miss_lines)


@pytest.mark.parametrize("variant", GCN_VARIANTS)
@pytest.mark.parametrize("dataset_name", FIGURE_ORDER)
def test_simulation_results_byte_identical(dataset_name, variant):
    session = Session()
    for accelerator in ALL_ACCELERATORS:
        spec = RunSpec(
            dataset=dataset_name,
            accelerator=accelerator,
            variant=variant,
            max_vertices=GOLDEN_MAX_VERTICES,
        )
        shared = session.run(spec).to_dict()
        uncached = simulate_design(
            session.accelerator(accelerator),
            session.load_dataset(dataset_name, max_vertices=GOLDEN_MAX_VERTICES),
            variant=variant,
            trace_cache=None,
        ).to_dict()
        assert json.dumps(shared, sort_keys=True) == json.dumps(
            uncached, sort_keys=True
        ), (dataset_name, accelerator, variant)


@pytest.mark.parametrize("accelerator", ["gcnax", "hygcn", "engn", "igcn", "sgcn"])
def test_rowcache_stats_bit_identical_on_real_traces(accelerator):
    """The per-trace statistics themselves (not just the end results) agree.

    Designs with a pinned partition (EnGN) replay the pinned evaluation the
    pipeline uses, against the pinned-partition loop.
    """
    session = Session()
    dataset = session.load_dataset("pubmed", max_vertices=192)
    design = session.accelerator(accelerator)
    fmt = design.format_instance()
    config = SystemConfig()
    context = build_context(design, fmt, dataset, config)
    plan = schedule(design, fmt, dataset, context.graph, config.schedule)
    if plan.trace.size == 0:
        pytest.skip("column-product design replays no trace")
    pinned = plan.pinned_vertices
    assert bool(pinned.size) == (accelerator == "engn")
    rng = np.random.default_rng(0)
    engine = ReplayEngine(plan.trace)
    for _ in range(3):
        sizes = rng.integers(1, 9, size=dataset.graph.num_vertices).astype(np.int64)
        capacity = int(rng.integers(8, context.cache_lines + 1))
        ((got,),) = engine.evaluate([sizes], [capacity])
        want = RowCache(capacity).access_trace(plan.trace, sizes)
        assert stats_tuple(got) == stats_tuple(want)
        if pinned.size:
            ((got,),) = engine.evaluate([sizes], [capacity], pinned)
            want = pinned_partition_replay(plan.trace, sizes, capacity, pinned)
            assert stats_tuple(got) == stats_tuple(want)
