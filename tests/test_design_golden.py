"""Golden equivalence of the DesignPoint/phase-pipeline refactor.

``tests/golden_design_digests.json`` pins the SHA-256 of every built-in
accelerator's canonical ``SimulationResult`` JSON (all nine datasets x nine
accelerators x three variants) as produced *before* the monolithic
``AcceleratorModel`` was split into ``DesignPoint`` + the five-stage
pipeline.  The refactor is pure restructuring: every digest must still
match byte for byte.

A second check exercises the pipeline stages individually and pins their
composition to the one-call ``simulate()`` wrapper.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.accelerator.pipeline import (
    GCN_VARIANTS,
    build_context,
    build_workloads,
    energy,
    replay,
    schedule,
    simulate_design,
    timing,
)
from repro.accelerator.registry import DESIGN_POINTS, available_accelerators
from repro.core.config import SystemConfig
from repro.core.results import SimulationResult
from repro.core.runspec import RunSpec
from repro.core.session import Session
from repro.graphs.datasets import FIGURE_ORDER

GOLDEN_PATH = Path(__file__).parent / "golden_design_digests.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())


def canonical_digest(result: SimulationResult) -> str:
    doc = json.dumps(result.to_dict(), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("dataset_name", FIGURE_ORDER)
def test_results_byte_identical_to_pre_refactor(dataset_name):
    session = Session()
    mismatches = []
    for variant in GCN_VARIANTS:
        for accelerator in available_accelerators():
            spec = RunSpec(
                dataset=dataset_name,
                accelerator=accelerator,
                variant=variant,
                max_vertices=GOLDEN["max_vertices"],
            )
            digest = canonical_digest(session.run(spec))
            key = f"{dataset_name}/{accelerator}/{variant}"
            if digest != GOLDEN["digests"][key]:
                mismatches.append(key)
    assert not mismatches, f"result drift vs pre-refactor golden: {mismatches}"


def test_golden_covers_every_builtin():
    names = {key.split("/")[1] for key in GOLDEN["digests"]}
    assert names == set(DESIGN_POINTS)


@pytest.mark.parametrize("accelerator", ["gcnax", "awb_gcn", "engn", "igcn", "sgcn"])
def test_stagewise_pipeline_matches_simulate(accelerator):
    """Running the five stages by hand equals the one-call wrapper."""
    session = Session()
    dataset = session.load_dataset("pubmed", max_vertices=128)
    design = DESIGN_POINTS[accelerator]
    config = SystemConfig()

    fmt = design.format_instance()
    context = build_context(design, fmt, dataset, config)
    context.plan = schedule(design, fmt, dataset, context.graph, config.schedule)
    assert context.plan.tiling is not None
    replayed = replay(context, build_workloads(dataset), seed=0, max_sampled_layers=6)
    timed = timing(context, replayed)
    layers = energy(context, timed)

    whole = simulate_design(design, dataset, config=config)
    assert len(layers) == len(whole.layers)
    for staged, direct in zip(layers, whole.layers):
        assert json.dumps(staged.to_dict(), sort_keys=True) == json.dumps(
            direct.to_dict(), sort_keys=True
        )
