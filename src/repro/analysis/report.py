"""Lint reporters: the stable JSON findings document and the text view.

The JSON document is a machine-readable artifact (uploaded by CI next to the
bench and metrics documents), so its shape is versioned and pinned by a
golden test the same way BENCH schema v2 and metrics schema v1 are:
downstream tooling may rely on the key set and the rule ids.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.engine import LintReport

#: Schema version of the ``repro lint --json`` findings document.
#: v2: rule battery gained R1 (ad-hoc-retry); S2 additionally flags
#: swallowed ``except BaseException`` handlers.
#: v3: rule battery gained the interprocedural F1/F2/F3 identity-flow
#: rules.
#: v4: F1 and F2 left the battery (cache keys are records by construction;
#: see INVARIANTS.md), leaving F3.
#: v5: the worker-payload contract rule left the battery (sweep payloads are
#: frozen records).  F3 later became a module-local check of the model
#: modules (same id and name, so no bump).
LINT_SCHEMA_VERSION = 5

#: ``kind`` value of the findings document.
LINT_DOCUMENT_KIND = "lint-findings"


def findings_document(report: LintReport) -> Dict[str, object]:
    """The versioned JSON document for one lint run.

    Keys, finding fields, and rule ids are pinned by
    ``tests/golden_lint_schema.json`` — bump :data:`LINT_SCHEMA_VERSION`
    when changing any of them.
    """
    return {
        "schema_version": LINT_SCHEMA_VERSION,
        "kind": LINT_DOCUMENT_KIND,
        "rules": [
            {"id": rule.rule_id, "name": rule.name, "summary": rule.summary}
            for rule in report.rules
        ],
        "files_checked": len(report.files),
        "findings": [finding.to_dict() for finding in report.findings],
        "counts": report.counts(),
        "ok": report.ok,
    }


def render_findings(report: LintReport) -> List[str]:
    """Human-readable finding lines, one per violation (no footer)."""
    width = max((len(finding.rule) for finding in report.findings), default=0)
    return [
        f"{finding.location()}: {finding.rule:<{width}} [{finding.name}] "
        f"{finding.message}"
        for finding in report.findings
    ]


def render_summary(report: LintReport) -> str:
    """One-line footer: files checked, rules run, findings found."""
    total = len(report.findings)
    noun = "finding" if total == 1 else "findings"
    return (
        f"checked {len(report.files)} file(s) against "
        f"{len(report.rules)} rule(s): {total} {noun}"
    )


__all__ = [
    "LINT_DOCUMENT_KIND",
    "LINT_SCHEMA_VERSION",
    "findings_document",
    "render_findings",
    "render_summary",
]
