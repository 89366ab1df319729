"""Static-analysis gate: the repo's invariants, enforced mechanically.

The repo's conventions — seeded RNG everywhere, sorted iteration in
identity paths, identity-neutral telemetry, a single CLI print funnel,
setter-only module globals, un-keyed state kept off memoized paths — are
promoted here from review lore to lint rules.  (The worker wire protocol
needs no rule: its payloads are frozen records, see
:mod:`repro.experiments.runner`.)  ``repro lint src`` runs the battery and exits
non-zero on findings; CI runs it next to a per-module mypy gate.

Layers:

* :mod:`repro.analysis.engine` — file loading, per-rule dispatch,
  :class:`Finding` records, ``# repro: noqa[RULE]`` suppression;
* :mod:`repro.analysis.rules` — the battery (D1/D2 determinism, N1/N2
  identity-neutrality, W1 worker safety, S1–S3 general safety, R1
  resilience, F3 memo-key purity);
* :mod:`repro.analysis.flow` — the interprocedural layer under F3: project
  call graph plus each function's ambient (global, environment,
  undeclared ``self``) reads;
* :mod:`repro.analysis.report` — the versioned ``lint-findings`` JSON
  document (schema pinned by a golden test) and the text renderer.

Quickstart::

    from repro.analysis import get_rules, run_lint, findings_document

    report = run_lint(["src"], rules=get_rules())
    assert report.ok, findings_document(report)
"""

from __future__ import annotations

from repro.analysis.engine import (
    Finding,
    LintModule,
    LintReport,
    Rule,
    run_lint,
)
from repro.analysis.report import (
    LINT_DOCUMENT_KIND,
    LINT_SCHEMA_VERSION,
    findings_document,
    render_findings,
    render_summary,
)
from repro.analysis.rules import ALL_RULES, RULE_IDS, get_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "LINT_DOCUMENT_KIND",
    "LINT_SCHEMA_VERSION",
    "LintModule",
    "LintReport",
    "RULE_IDS",
    "Rule",
    "findings_document",
    "get_rules",
    "render_findings",
    "render_summary",
    "run_lint",
]
