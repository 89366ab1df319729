"""Identities that are correct by construction, and the checks that keep them so.

* The schedule stage sees a :class:`~repro.core.config.ScheduleConfig`
  record and no other configuration (structural check).
* Two specs in one replay class schedule identically, for every supported
  override and every registered accelerator (property check), and the same
  check reports the overrides a class key that drops a record field would
  mis-group (negative control).
* ``RunSpec.key()`` covers every field but ``tag``; pinned scenario ids keep
  content-addressed caches hitting across refactors.
* A spec whose overrides do not build fails alone in a sweep.
"""

import dataclasses
import typing

import pytest

from repro.accelerator import pipeline
from repro.accelerator.pipeline import RunContext, schedule
from repro.accelerator.registry import available_accelerators
from repro.core.config import SystemConfig
from repro.core.runspec import SUPPORTED_OVERRIDES, RunSpec
from repro.core.session import Session, replay_class_key
from repro.experiments.runner import SweepRunner
from repro.experiments.spec import Scenario

KB = 1024

#: Two legal values per supported override key.
OVERRIDE_VALUES = {
    "cache_capacity_bytes": (256 * KB, 1024 * KB),
    "cache_ways": (8, 32),
    "num_engines": (4, 16),
    "num_aggregation_engines": (4, 16),
    "num_combination_engines": (4, 16),
    "frequency_ghz": (1.0, 1.5),
    "simd_width": (16, 32),
    "systolic_rows": (16, 32),
    "systolic_cols": (16, 32),
    "dram": ("hbm1", "hbm2"),
    "dram_bandwidth_gbps": (128.0, 512.0),
    "sac_strip_height": (8, 32),
    "pipeline_phases": (True, False),
}


# --------------------------------------------------------------------------- #
# Structural: the schedule stage receives no SystemConfig and no RunContext
# --------------------------------------------------------------------------- #
def test_schedule_receives_no_system_config_or_run_context():
    hints = typing.get_type_hints(schedule, vars(pipeline))
    hints.pop("return")
    forbidden = (SystemConfig, RunContext)
    for name, hint in hints.items():
        members = typing.get_args(hint) or (hint,)
        for member in members:
            assert not (
                isinstance(member, type) and issubclass(member, forbidden)
            ), f"schedule parameter {name!r} is a {member.__name__}"


# --------------------------------------------------------------------------- #
# Property: one replay class, one schedule
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def schedules():
    """Schedule of every (accelerator, override key, value) on cora@64.

    Each spec runs end to end through a session while the schedule stage
    is wrapped, so the plan recorded is the one the real run path built:
    tiling, trace bytes and pinned rows.
    """
    plans = []

    def recording(*args, **kwargs):
        plan = real_schedule(*args, **kwargs)
        plans.append(
            (plan.tiling, plan.trace.tobytes(), plan.pinned_vertices.tobytes())
        )
        return plan

    real_schedule = pipeline.schedule
    session = Session()
    table = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "schedule", recording)
        for accelerator in available_accelerators():
            for key, values in OVERRIDE_VALUES.items():
                for value in values:
                    spec = RunSpec(
                        dataset="cora",
                        accelerator=accelerator,
                        max_vertices=64,
                        num_layers=4,
                        max_sampled_layers=2,
                        overrides={key: value},
                    )
                    session.run(spec)
                    table[accelerator, key, value] = (spec, plans.pop())
    return table


def misgrouped_overrides(schedules, class_key):
    """Override keys whose two values share a class but not a schedule."""
    found = set()
    for accelerator in available_accelerators():
        for key, (first, second) in OVERRIDE_VALUES.items():
            spec_a, plan_a = schedules[accelerator, key, first]
            spec_b, plan_b = schedules[accelerator, key, second]
            if class_key(spec_a) == class_key(spec_b) and plan_a != plan_b:
                found.add(key)
    return found


def test_override_values_cover_every_supported_override():
    assert set(OVERRIDE_VALUES) == set(SUPPORTED_OVERRIDES)
    for first, second in OVERRIDE_VALUES.values():
        assert first != second


def test_one_replay_class_means_one_schedule(schedules):
    assert misgrouped_overrides(schedules, replay_class_key) == set()


def _key_without(field_name):
    def class_key(spec):
        identity, record = replay_class_key(spec)
        kept = dataclasses.asdict(record)
        del kept[field_name]
        return identity, tuple(sorted(kept.items()))

    return class_key


@pytest.mark.parametrize(
    "field_name, expected",
    [
        ("num_aggregation_engines", {"num_engines", "num_aggregation_engines"}),
        ("sac_strip_height", {"sac_strip_height"}),
    ],
)
def test_check_reports_a_key_that_drops_a_record_field(
    schedules, field_name, expected
):
    assert misgrouped_overrides(schedules, _key_without(field_name)) == expected


def test_replay_class_key_is_the_schedule_record():
    base = RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64)
    assert replay_class_key(base)[1] == SystemConfig().schedule
    # Two spellings of one aggregation-engine count share a class, and so
    # does an override equal to the base value.
    engines = [
        replay_class_key(dataclasses.replace(base, overrides=overrides))
        for overrides in ({"num_engines": 4}, {"num_aggregation_engines": 4})
    ]
    assert engines[0] == engines[1]
    default = dataclasses.replace(base, overrides={"sac_strip_height": 32})
    assert replay_class_key(default) == replay_class_key(base)


def test_replay_class_key_follows_the_base_config():
    spec = RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64)
    wide = SystemConfig().with_engines(16)
    assert replay_class_key(spec, wide)[1].num_aggregation_engines == 16
    assert replay_class_key(spec, wide) != replay_class_key(spec)


def test_unbuildable_overrides_key_on_their_raw_values():
    base = RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64)
    bad = dataclasses.replace(base, overrides={"dram": "hbm3"})
    identity, record = replay_class_key(bad)
    assert identity == replay_class_key(base)[0]
    assert record == repr([("dram", "hbm3")])


# --------------------------------------------------------------------------- #
# RunSpec identity
# --------------------------------------------------------------------------- #
FULL = RunSpec(
    dataset="citeseer",
    accelerator="gcnax",
    variant="gin",
    seed=3,
    max_vertices=96,
    max_sampled_layers=4,
    num_layers=8,
    overrides={"dram": "hbm1"},
    feature_format="csr",
    design={"pinned_cache_fraction": 0.1},
    sparsity="measured-traditional",
    tag="x",
)

#: A different value for every RunSpec field.
ALTERNATIVES = {
    "dataset": "cora",
    "accelerator": "hygcn",
    "variant": "gcn",
    "seed": 4,
    "max_vertices": 128,
    "max_sampled_layers": 3,
    "num_layers": 6,
    "overrides": {"num_engines": 4},
    "feature_format": "dense",
    "design": {"pinned_cache_fraction": 0.2},
    "sparsity": "measured",
    "tag": "y",
}


def test_every_field_but_tag_enters_the_identity():
    names = {spec_field.name for spec_field in dataclasses.fields(RunSpec)}
    assert set(ALTERNATIVES) == names
    for name, value in ALTERNATIVES.items():
        changed = dataclasses.replace(FULL, **{name: value})
        if name == "tag":
            assert changed.scenario_id == FULL.scenario_id
        else:
            assert changed.scenario_id != FULL.scenario_id, name


def _cora(**axes):
    return RunSpec(dataset="cora", accelerator="sgcn", max_vertices=64, **axes)


@pytest.mark.parametrize(
    "spec, scenario_id",
    [
        (_cora(), "b006a906198b"),
        (_cora(feature_format="dense"), "167473d0b27d"),
        (_cora(design={"slice_size": 32}), "9ba2c5e5dee4"),
        (_cora(sparsity="measured"), "9b086fa07bf4"),
        (
            _cora(overrides={"num_engines": 4, "cache_capacity_bytes": 256 * KB}),
            "82c1e4d70d71",
        ),
        (_cora(tag="label"), "b006a906198b"),
        (FULL, "b45e9c321ae8"),
    ],
)
def test_scenario_ids_are_pinned(spec, scenario_id):
    assert spec.scenario_id == scenario_id


# --------------------------------------------------------------------------- #
# Failure isolation
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("workers", [1, 2])
def test_unbuildable_overrides_fail_only_their_run(workers):
    tiny = dict(dataset="cora", accelerator="sgcn", max_vertices=64, num_layers=4)
    good = Scenario(**tiny)
    unknown_dram = Scenario(**tiny, overrides={"dram": "hbm3"})
    bad_capacity = Scenario(**tiny, overrides={"cache_capacity_bytes": "lots"})
    other = Scenario(**tiny, overrides={"cache_capacity_bytes": 256 * KB})
    report = SweepRunner(workers=workers).run(
        [good, unknown_dram, bad_capacity, other]
    )
    assert report.num_failed == 2
    assert report.num_simulated == 2
    failures = {outcome.scenario: outcome.error for outcome in report.failures}
    assert set(failures) == {unknown_dram, bad_capacity}
    assert "hbm3" in failures[unknown_dram]
    assert "lots" in failures[bad_capacity]
    assert [outcome.scenario for outcome in report.successes()] == [good, other]
