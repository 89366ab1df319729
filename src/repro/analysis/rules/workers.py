"""Worker-safety rules: the SweepRunner pool protocol.

Pool workers are long-lived processes that execute many scenarios.  State
they mutate outside the session object leaks into every later scenario on
that worker — and *differs* from what a serial run of the same sweep sees.
The repo's convention is that module-level mutables (``_DEFAULT_SESSION``,
``_WORKER_SESSION``, registries) are written only through a small set of
explicit setter/reset functions, which callers use symmetrically
(set/restore) and tests patch knowingly.

**W1** flags the two write shapes that violate this:

* rebinding a module global (``global name`` + assignment) from a function
  that is not a blessed setter;
* assigning attributes on an *imported* name (``session._DEFAULT_SESSION =
  None``) — cross-module monkeypatching that bypasses the setter and its
  validation entirely.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Union

from repro.analysis.engine import ContextVisitor, Finding, LintModule, Rule

#: Function-name prefixes blessed to write module globals.
_SETTER_PREFIXES = ("set_", "reset_", "configure_", "register_", "unregister_")

#: Exact function names additionally blessed (memoizing process-wide getters).
_SETTER_NAMES = frozenset({"default_session", "_worker_session"})


def _is_blessed(name: str) -> bool:
    return name.startswith(_SETTER_PREFIXES) or name in _SETTER_NAMES


def _assigned_names(
    function: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> Set[str]:
    """Names assigned anywhere inside ``function`` (plain targets only)."""
    names: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if isinstance(node.target, ast.Name):
                names.add(node.target.id)
    return names


class _GlobalWriteVisitor(ContextVisitor):
    def __init__(self, rule: "WorkerGlobalWriteRule", module: LintModule):
        super().__init__()
        self.rule = rule
        self.module = module
        self.findings: List[Finding] = []

    # ------------------------------------------------------------------ #
    def visit_Global(self, node: ast.Global) -> None:
        function = self.current_function
        if function is not None and not _is_blessed(function.name):
            written = sorted(set(node.names) & _assigned_names(function))
            if written:
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        f"{function.name}() rebinds module global(s) "
                        f"{', '.join(written)}; pool workers inherit and "
                        "keep such state across scenarios — route the write "
                        "through an explicit set_*/reset_* setter",
                    )
                )
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    def _check_attribute_write(self, target: ast.expr, node: ast.AST) -> None:
        if not isinstance(target, ast.Attribute):
            return
        base = target.value
        if not isinstance(base, ast.Name):
            return
        if base.id not in self.module.imports():
            return
        function = self.current_function
        if function is not None and _is_blessed(function.name):
            return
        origin = self.module.imports()[base.id]
        self.findings.append(
            self.rule.finding(
                self.module,
                node,
                f"assignment to {base.id}.{target.attr} monkeypatches "
                f"imported state ({origin}); call its setter instead — "
                "direct writes skip validation and desynchronize pool "
                "workers from the parent process",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_attribute_write(target, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_attribute_write(node.target, node)
        self.generic_visit(node)


class WorkerGlobalWriteRule(Rule):
    """W1: module-global state is written only through blessed setters."""

    rule_id = "W1"
    name = "worker-global-write"
    summary = (
        "no module-global rebinding or imported-module attribute writes "
        "outside set_*/reset_*/configure_* setters (pool-worker safety)"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        visitor = _GlobalWriteVisitor(self, module)
        visitor.visit(module.tree)
        return iter(visitor.findings)


__all__ = ["WorkerGlobalWriteRule"]
