"""F3: memo-key purity, checked over the whole program's call graph.

The rule arms itself only when its endpoints are inside the linted module
set — linting a single file never produces whole-program noise.

* **F3 ``memo-key-purity``** — functions feeding a memoized/cached path
  (the five stages plus the ``ReplayEngine``/``TraceCache`` methods) must
  not read mutable module globals (an UPPER_CASE name its module mutates
  included), environment variables, or undeclared ``self`` state: such a
  read either joins a cache key or carries a ``# repro: noqa[F3] reason``
  comment explaining why it cannot change results.  The blessed setters
  themselves may read the state they set.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.analysis.engine import Finding, LintModule, Rule
from repro.analysis.flow import (
    PURITY_EXEMPT_MODULE_PREFIXES,
    GlobalRead,
    ProjectFlow,
)

#: Function-name prefixes blessed to touch module globals (the setter
#: surfaces W1 already polices).
BLESSED_PREFIXES = ("set_", "reset_", "register_")


class MemoKeyPurityRule(Rule):
    """F3: memo-path functions read no un-keyed ambient state."""

    rule_id = "F3"
    name = "memo-key-purity"
    summary = (
        "functions feeding a memoized/cached path must not read mutable "
        "module globals, environment variables, or undeclared self state"
    )

    def check_project(self, modules: Sequence[LintModule]) -> Iterator[Finding]:
        flow = ProjectFlow(modules)
        roots = flow.memo_roots()
        if not roots:
            return
        for qual in sorted(flow.reachable(roots)):
            info = flow.functions[qual]
            mod = qual.split(":", 1)[0]
            if any(
                mod == prefix or mod.startswith(prefix + ".")
                for prefix in PURITY_EXEMPT_MODULE_PREFIXES
            ):
                continue
            if info.name.startswith(BLESSED_PREFIXES):
                continue
            for read in info.global_reads:
                yield Finding(
                    path=info.module.display_path,
                    line=read.line,
                    col=read.col,
                    rule=self.rule_id,
                    name=self.name,
                    message=self._message(info.name, read),
                )

    @staticmethod
    def _message(function: str, read: GlobalRead) -> str:
        if read.kind == "env":
            what = "reads the process environment"
        elif read.kind == "self":
            what = f"reads undeclared self state {read.subject}"
        else:
            what = f"reads mutable module global {read.subject.split(':', 1)[1]!r}"
        return (
            f"{function} feeds a memoized path but {what}; key it or "
            "suppress it with '# repro: noqa[F3] reason'"
        )


__all__ = ["BLESSED_PREFIXES", "MemoKeyPurityRule"]
