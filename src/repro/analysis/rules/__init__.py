"""The rule battery: every invariant the lint gate enforces.

Rules are instantiated once, in a stable order (determinism, neutrality,
worker safety, general safety, resilience, memo-key purity); ``repro lint``
runs all of them unless ``--rule`` narrows the set.  INVARIANTS.md
catalogues what each rule protects and how to suppress it.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import Rule
from repro.analysis.rules.determinism import (
    UnseededRngRule,
    UnsortedIdentityIterationRule,
)
from repro.analysis.rules.neutrality import (
    PrintOutsideWriterRule,
    TimingOutsideTelemetryRule,
)
from repro.analysis.rules.resilience import AdHocRetryRule
from repro.analysis.rules.safety import (
    BareExceptRule,
    FrozenSetattrRule,
    MutableDefaultArgRule,
)
from repro.analysis.rules.workers import MemoKeyPurityRule, WorkerGlobalWriteRule
from repro.errors import AnalysisError

#: Every active rule, in reporting order.
ALL_RULES: Tuple[Rule, ...] = (
    UnseededRngRule(),
    UnsortedIdentityIterationRule(),
    TimingOutsideTelemetryRule(),
    PrintOutsideWriterRule(),
    WorkerGlobalWriteRule(),
    MutableDefaultArgRule(),
    BareExceptRule(),
    FrozenSetattrRule(),
    AdHocRetryRule(),
    MemoKeyPurityRule(),
)

#: Short ids of the active battery, in order.
RULE_IDS: Tuple[str, ...] = tuple(rule.rule_id for rule in ALL_RULES)


def get_rules(selection: Optional[Sequence[str]] = None) -> List[Rule]:
    """The rule battery, optionally narrowed to ids/names in ``selection``.

    Selection entries match a rule's short id (``D1``) or long name
    (``unseeded-rng``), case-insensitively.  Unknown entries raise
    :class:`~repro.errors.AnalysisError` listing the battery.
    """
    if selection is None:
        return list(ALL_RULES)
    by_key: Dict[str, Rule] = {}
    for rule in ALL_RULES:
        by_key[rule.rule_id.casefold()] = rule
        by_key[rule.name.casefold()] = rule
    chosen: List[Rule] = []
    for entry in selection:
        rule = by_key.get(entry.strip().casefold())
        if rule is None:
            raise AnalysisError(
                f"unknown lint rule {entry!r}; active rules: "
                + ", ".join(f"{r.rule_id} ({r.name})" for r in ALL_RULES)
            )
        if rule not in chosen:
            chosen.append(rule)
    return chosen


__all__ = [
    "ALL_RULES",
    "RULE_IDS",
    "AdHocRetryRule",
    "BareExceptRule",
    "FrozenSetattrRule",
    "MemoKeyPurityRule",
    "MutableDefaultArgRule",
    "PrintOutsideWriterRule",
    "TimingOutsideTelemetryRule",
    "UnseededRngRule",
    "UnsortedIdentityIterationRule",
    "WorkerGlobalWriteRule",
    "get_rules",
]
