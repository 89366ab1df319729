"""End-to-end tests of ``repro lint``: the shipped tree is clean, bad code
fails, and the JSON/quiet/list-rules surfaces behave like the other commands."""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis import LINT_DOCUMENT_KIND, LINT_SCHEMA_VERSION
from repro.analysis.rules import RULE_IDS
from repro.experiments.cli import main

REPO = Path(__file__).resolve().parents[1]
FIXTURES = REPO / "tests" / "analysis_fixtures"


def test_lint_src_ships_clean(capsys):
    assert main(["lint", str(REPO / "src")]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_lint_flags_bad_fixture_and_exits_nonzero(capsys):
    assert main(["lint", str(FIXTURES / "n2_flag.py")]) == 1
    out = capsys.readouterr().out
    assert "N2" in out
    assert "[print-outside-writer]" in out


def test_lint_json_document(capsys):
    assert main(["lint", "--json", str(FIXTURES / "s2_flag.py")]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["schema_version"] == LINT_SCHEMA_VERSION
    assert document["kind"] == LINT_DOCUMENT_KIND
    assert document["ok"] is False
    assert document["files_checked"] == 1
    assert [rule["id"] for rule in document["rules"]] == list(RULE_IDS)
    # Two findings: the bare except and the swallowed BaseException.
    assert document["counts"]["S2"] == 2
    assert len(document["findings"]) == 2
    for finding in document["findings"]:
        assert finding["rule"] == "S2"
        assert finding["path"].endswith("s2_flag.py")


def test_lint_rule_selection(capsys):
    # d1_flag violates only D1; selecting another rule finds nothing.
    assert main(["lint", "--rule", "N1", str(FIXTURES / "d1_flag.py")]) == 0
    assert main(["lint", "--rule", "D1", str(FIXTURES / "d1_flag.py")]) == 1
    capsys.readouterr()


def test_lint_unknown_rule_is_a_usage_error(capsys):
    assert main(["lint", "--rule", "bogus", str(FIXTURES)]) == 2
    assert "unknown lint rule" in capsys.readouterr().err


def test_lint_missing_target_is_a_usage_error(capsys):
    assert main(["lint", str(FIXTURES / "no_such_dir")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_lint_quiet_keeps_findings_drops_summary(capsys):
    assert main(["--quiet", "lint", str(FIXTURES / "n2_flag.py")]) == 1
    out = capsys.readouterr().out
    assert "print-outside-writer" in out
    assert "checked" not in out
    # A clean quiet run prints nothing at all.
    assert main(["--quiet", "lint", str(FIXTURES / "s1_pass.py")]) == 0
    assert capsys.readouterr().out == ""


def test_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULE_IDS:
        assert rule_id in out
    assert "unseeded-rng" in out
