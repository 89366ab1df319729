"""Module-state rules: the SweepRunner pool protocol and the memo path.

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

**F3** ``memo-key-purity`` keeps the model modules — every module the five
stages and the memo classes (``TraceCache``, ``ReplayEngine``, the row
tables) are built from — free of un-keyed ambient state, module by module:
no import of a ``repro`` module outside them (or the identity-neutral
``repro.telemetry``/``repro.resilience``), no module-level state, and no
environment read.  A memoized result can then depend only on its arguments.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

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




#: The model modules: together they hold every module the pipeline stages
#: and the memo classes import.  F3 checks each of them on its own.
MODEL_MODULES: Tuple[str, ...] = (
    "repro.accelerator",
    "repro.memory",
    "repro.formats",
    "repro.graphs",
    "repro.gcn",
    "repro.core.config",
    "repro.core.results",
    "repro.errors",
)

#: Modules a model module may import besides the model modules: their state
#: is pinned identity-neutral by the N1/R1 contracts (spans, counters and
#: fault points never change results).
NEUTRAL_MODULES: Tuple[str, ...] = ("repro.telemetry", "repro.resilience")

#: The process-environment entry points of the stdlib ``os`` module.
_ENVIRONMENT = frozenset({"os.environ", "os.getenv"})

#: Methods that change a list, dict or set in place.
_MUTATORS = frozenset(
    ("add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
     "remove", "reverse", "setdefault", "sort", "update")
)


def _within(dotted: str, prefixes: Tuple[str, ...]) -> bool:
    return any(
        dotted == prefix or dotted.startswith(prefix + ".") for prefix in prefixes
    )


def module_dotted_name(module: LintModule) -> str:
    """Importable dotted name of ``module`` derived from its path.

    ``src/repro/core/session.py`` maps to ``repro.core.session`` (everything
    up to the last ``src`` component is stripped, matching the repo layout);
    paths without a ``src`` component keep all their parts, so they never
    collide with a ``repro`` module.
    """
    parts = list(module.path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    cleaned = [part for part in parts if part not in ("/", "\\", "..", ".")]
    return ".".join(cleaned) if cleaned else module.path.stem


def _imported_modules(module: LintModule, node: ast.AST) -> List[str]:
    """Dotted names an import statement may bind, relative imports resolved."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        package = module_dotted_name(module).split(".")
        if module.path.stem != "__init__":
            package = package[:-1]
        package = package[: len(package) - node.level + 1]
        base = ".".join(package + ([base] if base else []))
    # ``from pkg import name`` binds a submodule or an attribute of ``pkg``;
    # ``pkg.name`` is inside a scope exactly when either of them is.
    return [f"{base}.{alias.name}" for alias in node.names]


def _mutated_names(module: LintModule) -> Set[str]:
    """Names the module rebinds (``global``), stores into, or mutates in place."""
    mutated: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Global):
            mutated.update(node.names)
        elif isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
            node.value, ast.Name
        ):
            if not isinstance(node.ctx, ast.Load) or (
                isinstance(node, ast.Attribute) and node.attr in _MUTATORS
            ):
                mutated.add(node.value.id)
    return mutated


def _module_bindings(module: LintModule) -> Dict[str, ast.Name]:
    """First binding of each name assigned at module level, in source order."""
    bindings: Dict[str, ast.Name] = {}
    for node in module.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        for target in targets:
            for name in ast.walk(target):
                if isinstance(name, ast.Name):
                    bindings.setdefault(name.id, name)
    return bindings


def _is_state(
    module: LintModule, name: str, value: Optional[ast.expr], mutated: Set[str]
) -> bool:
    """Whether a module-level binding is state rather than a fixed value.

    Fixed values are UPPER_CASE constants the module never mutates, loggers,
    ``TypeVar``/``ContextVar``/``ParamSpec`` objects and dunders such as
    ``__all__``.
    """
    if name.startswith("__") and name.endswith("__"):
        return False
    if name == name.upper():
        return name in mutated
    if isinstance(value, ast.Call):
        dotted = module.resolve(value.func)
        if dotted is not None and (
            dotted == "logging.getLogger"
            or dotted.rsplit(".", 1)[-1] in ("TypeVar", "ContextVar", "ParamSpec")
        ):
            return False
    return True


class MemoKeyPurityRule(Rule):
    """F3: model modules hold no un-keyed ambient state and import no caller."""

    rule_id = "F3"
    name = "memo-key-purity"
    summary = (
        "model modules (the packages the memoized simulation path lives in) "
        "import no repro module above them, hold no module-level state, and "
        "read no environment variables"
    )

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        if not _within(module_dotted_name(module), MODEL_MODULES):
            return iter(())
        findings: List[Finding] = []
        allowed = MODEL_MODULES + NEUTRAL_MODULES
        for node in ast.walk(module.tree):
            for target in _imported_modules(module, node):
                if _within(target, ("repro",)) and not _within(target, allowed):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"imports {target}, which is outside the model "
                            "modules; a memoized path must not reach the "
                            "session, the sweep layer or the CLI",
                        )
                    )
                    break
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Load
            ):
                resolved = module.resolve(node)
                if resolved in _ENVIRONMENT:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"reads the process environment ({resolved}); "
                            "key it or suppress it with "
                            "'# repro: noqa[F3] reason'",
                        )
                    )
        mutated = _mutated_names(module)
        imported = module.imports()
        for name, target in _module_bindings(module).items():
            parent = module.parent(target)
            value = getattr(parent, "value", None)
            if name in imported or not _is_state(module, name, value, mutated):
                continue
            kind = "table this module mutates" if name == name.upper() else "state"
            findings.append(
                self.finding(
                    module,
                    target,
                    f"module-level {kind} {name!r} in a model module; "
                    "key it or suppress it with '# repro: noqa[F3] reason'",
                )
            )
        return iter(findings)


__all__ = ["MODEL_MODULES", "MemoKeyPurityRule", "WorkerGlobalWriteRule"]
