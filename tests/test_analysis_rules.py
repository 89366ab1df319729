"""Per-rule coverage: every rule flags its bad fixture and passes its twin."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import get_rules, run_lint

FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"

#: rule id -> (flag fixture, pass fixture, expected finding count on flag)
PAIRS = {
    "D1": ("d1_flag.py", "d1_pass.py", 3),
    "D2": ("d2_flag.py", "d2_pass.py", 2),
    "N1": ("n1_flag.py", "telemetry/n1_pass.py", 1),
    "N2": ("n2_flag.py", "n2_pass.py", 1),
    "W1": ("w1_flag.py", "w1_pass.py", 1),
    "S1": ("s1_flag.py", "s1_pass.py", 1),
    "S2": ("s2_flag.py", "s2_pass.py", 2),
    "S3": ("s3_flag.py", "s3_pass.py", 1),
    "R1": ("r1_flag.py", "r1_pass.py", 2),
    "F3": ("f3_flag.py", "f3_pass.py", 3),
}


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_rule_flags_bad_fixture(rule_id):
    flag, _, expected = PAIRS[rule_id]
    report = run_lint([FIXTURES / flag], get_rules([rule_id]))
    assert not report.ok
    assert len(report.findings) == expected
    assert {finding.rule for finding in report.findings} == {rule_id}
    for finding in report.findings:
        assert finding.line > 0 and finding.col > 0
        assert finding.message


@pytest.mark.parametrize("rule_id", sorted(PAIRS))
def test_pass_fixture_is_clean_under_full_battery(rule_id):
    _, passes, _ = PAIRS[rule_id]
    report = run_lint([FIXTURES / passes], get_rules())
    assert report.ok, [finding.location() for finding in report.findings]


def test_d1_names_the_unseeded_calls():
    report = run_lint([FIXTURES / "d1_flag.py"], get_rules(["D1"]))
    messages = " ".join(finding.message for finding in report.findings)
    assert "numpy.random.default_rng" in messages
    assert "numpy.random.rand" in messages
    assert "random.shuffle" in messages


def test_f3_reports_each_ambient_read_once():
    report = run_lint([FIXTURES / "f3_flag.py"], get_rules(["F3"]))
    messages = [finding.message for finding in report.findings]
    assert sum("'_active_mode'" in message for message in messages) == 1
    assert sum("'_KNOBS'" in message for message in messages) == 1
    assert sum("process environment" in message for message in messages) == 1


def test_noqa_fixture_suppresses_the_n1_finding():
    flagged = run_lint([FIXTURES / "n1_flag.py"], get_rules(["N1"]))
    silenced = run_lint([FIXTURES / "n1_noqa.py"], get_rules(["N1"]))
    assert len(flagged.findings) == 1
    assert silenced.ok


def test_noqa_on_decorator_line_covers_the_def_line():
    # The S1 finding lands on the ``def`` line; the noqa sits on the
    # decorator line above it — span normalisation must connect the two.
    report = run_lint([FIXTURES / "s1_noqa_decorator.py"], get_rules(["S1"]))
    assert report.ok, [finding.location() for finding in report.findings]


def test_whole_fixture_directory_is_noisy():
    # The flag fixtures dominate: a directory walk must find all of them
    # (and skip the explicit-only .txt parse-error fixture).
    report = run_lint([FIXTURES], get_rules())
    expected = sum(count for _, _, count in PAIRS.values())
    assert len(report.findings) == expected
    assert all(finding.rule != "E0" for finding in report.findings)
