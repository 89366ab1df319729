"""Interprocedural call-graph layer under the F3 memo-key purity rule.

It builds a project call graph from the parsed
:class:`~repro.analysis.engine.LintModule` records (import-alias aware,
with method calls resolved through the known class inventory and the
annotated types of parameters and fields) and records, per function, the
ambient reads F3 reasons about: mutable module globals, the process
environment, and ``self`` attributes the class never declares.  F3 then
walks everything reachable from the pipeline stages and the memo-owning
classes.

Cache keys themselves need no whole-program proof: the schedule stage
receives only a :class:`~repro.core.config.ScheduleConfig` record, and
the replay-class key is that record plus the run's identity fields (see
INVARIANTS.md, "Identity coverage").
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from repro.analysis.engine import LintModule, dotted_name

#: The five pipeline stages, by module-level function name.
PIPELINE_STAGES: Tuple[str, ...] = (
    "build_context",
    "schedule",
    "replay",
    "timing",
    "energy",
)

#: Classes whose methods feed a memoized path (extra F3 roots).
MEMO_CLASS_NAMES: Tuple[str, ...] = ("ReplayEngine", "TraceCache")

#: Module prefixes excluded from F3 purity analysis: their global state is
#: pinned identity-neutral by the N1/R1 contracts (spans, counters, fault
#: points never change results).
PURITY_EXEMPT_MODULE_PREFIXES: Tuple[str, ...] = (
    "repro.telemetry",
    "repro.resilience",
)

#: (module dotted name, class name) — the project-unique key of a class.
ClassKey = Tuple[str, str]

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


# --------------------------------------------------------------------------- #
# Inventory records
# --------------------------------------------------------------------------- #
@dataclass
class ClassInfo:
    """One class definition and the attribute surfaces rules reason about."""

    key: ClassKey
    module: LintModule
    node: ast.ClassDef
    fields: Dict[str, Optional[ast.expr]] = field(default_factory=dict)
    field_types: Dict[str, Optional[ClassKey]] = field(default_factory=dict)
    properties: Set[str] = field(default_factory=set)
    methods: Set[str] = field(default_factory=set)
    base_dotted: List[str] = field(default_factory=list)
    self_assigned: Set[str] = field(default_factory=set)
    class_assigned: Set[str] = field(default_factory=set)

    def declared_attrs(self) -> Set[str]:
        """Every attribute name the class declares through any surface."""
        return (
            set(self.fields)
            | self.properties
            | self.methods
            | self.self_assigned
            | self.class_assigned
        )


@dataclass
class GlobalRead:
    """One F3-relevant impure read inside a function body."""

    kind: str  # "global" | "env" | "self"
    subject: str  # "global:_DEFAULT_SESSION" | "env:os.environ" | "Cls.attr"
    line: int
    col: int


@dataclass
class FunctionInfo:
    """One function/method plus its direct summary."""

    qual: str
    name: str
    module: LintModule
    node: _FunctionNode
    class_key: Optional[ClassKey] = None
    calls: Set[str] = field(default_factory=set)
    global_reads: List[GlobalRead] = field(default_factory=list)
    return_class: Optional[ClassKey] = None


def module_dotted_name(module: LintModule) -> str:
    """Importable dotted name of ``module`` derived from its display path.

    ``src/repro/core/session.py`` maps to ``repro.core.session`` (everything
    up to the last ``src`` component is stripped, matching the repo layout);
    paths without a ``src`` component keep all their parts, so fixture files
    still get project-unique names.
    """
    parts = list(module.path.with_suffix("").parts)
    if "src" in parts:
        parts = parts[len(parts) - parts[::-1].index("src"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    cleaned = [part for part in parts if part not in ("/", "\\", "..", ".")]
    return ".".join(cleaned) if cleaned else module.path.stem


# --------------------------------------------------------------------------- #
# The project graph
# --------------------------------------------------------------------------- #
class ProjectFlow:
    """Call graph + per-function ambient-read summaries for one module set."""

    def __init__(self, modules: Sequence[LintModule]) -> None:
        self.modules: List[LintModule] = list(modules)
        self.module_names: Dict[str, str] = {}
        self.classes: Dict[ClassKey, ClassInfo] = {}
        self.classes_by_bare: Dict[str, List[ClassKey]] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self.module_bindings: Dict[str, Dict[str, str]] = {}
        self._build()

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def _build(self) -> None:
        for module in self.modules:
            name = module_dotted_name(module)
            self.module_names[module.display_path] = name
            self.module_bindings[name] = _module_bindings(module)
            self._collect_classes(module, name)
        for info in self.classes.values():
            for attr, annotation in info.fields.items():
                info.field_types[attr] = self._annotation_class(info.module, annotation)
        for module in self.modules:
            self._collect_functions(module, self.module_names[module.display_path])
        for info in self.functions.values():
            info.return_class = self._annotation_class(info.module, info.node.returns)
        for info in self.functions.values():
            _FunctionSummarizer(self, info).run()

    def _collect_classes(self, module: LintModule, mod_name: str) -> None:
        for node in module.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            key = (mod_name, node.name)
            info = ClassInfo(key=key, module=module, node=node)
            for base in node.bases:
                resolved = module.resolve(base)
                if resolved is not None:
                    info.base_dotted.append(resolved)
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    info.fields[stmt.target.id] = stmt.annotation
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            info.class_assigned.add(target.id)
                elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if _is_property(stmt):
                        info.properties.add(stmt.name)
                    else:
                        info.methods.add(stmt.name)
                    info.self_assigned |= _self_assignments(stmt)
            self.classes[key] = info
            self.classes_by_bare.setdefault(node.name, []).append(key)

    def _collect_functions(self, module: LintModule, mod_name: str) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{mod_name}:{node.name}"
                self.functions[qual] = FunctionInfo(
                    qual=qual, name=node.name, module=module, node=node
                )
            elif isinstance(node, ast.ClassDef):
                class_key = (mod_name, node.name)
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{mod_name}:{node.name}.{stmt.name}"
                        self.functions[qual] = FunctionInfo(
                            qual=qual,
                            name=stmt.name,
                            module=module,
                            node=stmt,
                            class_key=class_key,
                        )

    # ------------------------------------------------------------------ #
    # Name/type resolution
    # ------------------------------------------------------------------ #
    def class_for_dotted(self, dotted: Optional[str], module: LintModule) -> Optional[ClassKey]:
        """Class key for a resolved dotted name, if it names a known class."""
        if dotted is None:
            return None
        mod_part, _, last = dotted.rpartition(".")
        if mod_part:
            key = (mod_part, last)
            if key in self.classes:
                return key
        else:
            local = (self.module_names[module.display_path], last)
            if local in self.classes:
                return local
        candidates = self.classes_by_bare.get(last, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _annotation_class(
        self, module: LintModule, annotation: Optional[ast.expr]
    ) -> Optional[ClassKey]:
        """Class key named by an annotation (unwraps Optional/Union/strings)."""
        if annotation is None:
            return None
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            for ident in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", annotation.value):
                found = self.class_for_dotted(
                    module.imports().get(ident, ident), module
                )
                if found is not None:
                    return found
            return None
        if isinstance(annotation, ast.Subscript):
            base = module.resolve(annotation.value)
            if base is not None and base.rsplit(".", 1)[-1] in ("Optional", "Union"):
                inner = annotation.slice
                elements = (
                    list(inner.elts) if isinstance(inner, ast.Tuple) else [inner]
                )
                for element in elements:
                    found = self._annotation_class(module, element)
                    if found is not None:
                        return found
            return None
        return self.class_for_dotted(module.resolve(annotation), module)

    def class_attr_type(self, key: ClassKey, attr: str) -> Optional[ClassKey]:
        """Declared type of ``key.attr``, searching the known base chain."""
        info = self.classes.get(key)
        seen: Set[ClassKey] = set()
        while info is not None and info.key not in seen:
            seen.add(info.key)
            if attr in info.field_types:
                return info.field_types[attr]
            info = self._first_known_base(info)
        return None

    def _first_known_base(self, info: ClassInfo) -> Optional[ClassInfo]:
        for dotted in info.base_dotted:
            base_key = self.class_for_dotted(dotted, info.module)
            if base_key is not None:
                return self.classes.get(base_key)
        return None

    def class_declares(self, key: ClassKey, attr: str) -> Optional[bool]:
        """Whether ``attr`` is declared anywhere on ``key`` or a known base.

        Returns ``None`` when the class inherits from something outside the
        module set — the inventory is incomplete, so no judgement is made.
        """
        info = self.classes.get(key)
        seen: Set[ClassKey] = set()
        while info is not None and info.key not in seen:
            seen.add(info.key)
            if attr in info.declared_attrs():
                return True
            unknown_base = any(
                self.class_for_dotted(dotted, info.module) is None
                for dotted in info.base_dotted
            ) or len(info.base_dotted) < len(info.node.bases)
            if unknown_base:
                return None
            if not info.base_dotted:
                return False
            info = self._first_known_base(info)
        return False

    def attr_kind(self, key: ClassKey, attr: str) -> str:
        """``"field"``, ``"property"``, ``"method"`` or ``"unknown"``."""
        info = self.classes.get(key)
        seen: Set[ClassKey] = set()
        while info is not None and info.key not in seen:
            seen.add(info.key)
            if attr in info.fields:
                return "field"
            if attr in info.properties:
                return "property"
            if attr in info.methods:
                return "method"
            info = self._first_known_base(info)
        return "unknown"

    def method_qual(self, key: ClassKey, attr: str) -> Optional[str]:
        """Qualified name of method/property ``attr`` on ``key`` or a base."""
        info = self.classes.get(key)
        seen: Set[ClassKey] = set()
        while info is not None and info.key not in seen:
            seen.add(info.key)
            qual = f"{info.key[0]}:{info.key[1]}.{attr}"
            if qual in self.functions:
                return qual
            info = self._first_known_base(info)
        return None

    def unique_method(self, attr: str) -> Optional[str]:
        """Qualified name of ``attr`` when exactly one known class defines it."""
        found: List[str] = []
        for info in self.classes.values():
            qual = f"{info.key[0]}:{info.key[1]}.{attr}"
            if qual in self.functions:
                found.append(qual)
                if len(found) > 1:
                    return None
        return found[0] if len(found) == 1 else None

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def memo_roots(self) -> List[str]:
        """The five stages plus every method of the memo-owning classes."""
        roots = {
            qual
            for qual, info in self.functions.items()
            if info.class_key is None and info.name in PIPELINE_STAGES
        }
        for bare in MEMO_CLASS_NAMES:
            for key in self.classes_by_bare.get(bare, []):
                prefix = f"{key[0]}:{key[1]}."
                roots.update(
                    qual for qual in self.functions if qual.startswith(prefix)
                )
        return sorted(roots)

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Functions reachable from ``roots`` over the call graph."""
        seen: Set[str] = set()
        stack = [qual for qual in roots if qual in self.functions]
        while stack:
            qual = stack.pop()
            if qual in seen:
                continue
            seen.add(qual)
            stack.extend(
                callee
                for callee in self.functions[qual].calls
                if callee not in seen and callee in self.functions
            )
        return seen


# --------------------------------------------------------------------------- #
# Module-level binding classification (F3)
# --------------------------------------------------------------------------- #
#: Methods that change a list, dict or set in place.
_MUTATORS = frozenset(
    ("add", "append", "clear", "discard", "extend", "insert", "pop", "popitem",
     "remove", "reverse", "setdefault", "sort", "update")
)


def _module_bindings(module: LintModule) -> Dict[str, str]:
    """Top-level name -> kind: ``constant``/``logger``/``def``/``other``.

    ``other`` is the interesting kind — a module-level binding that is
    neither an UPPER_CASE constant, a logger, a TypeVar/ContextVar, nor a
    def/class: i.e. plausible mutable module state.  An UPPER_CASE name the
    module rebinds (``global``), stores into, or mutates in place is not a
    constant either.
    """
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
    table: Dict[str, str] = {}
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            table[node.name] = "def"
            continue
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            table[target.id] = _binding_kind(module, target.id, value, mutated)
    return table


def _binding_kind(
    module: LintModule, name: str, value: Optional[ast.expr], mutated: Set[str]
) -> str:
    if name == name.upper():
        return "other" if name in mutated else "constant"
    if isinstance(value, ast.Call):
        dotted = module.resolve(value.func)
        if dotted is not None:
            last = dotted.rsplit(".", 1)[-1]
            if dotted == "logging.getLogger":
                return "logger"
            if last in ("TypeVar", "ContextVar", "ParamSpec"):
                return "constant"
    return "other"


def _is_property(node: _FunctionNode) -> bool:
    for decorator in node.decorator_list:
        dotted = dotted_name(decorator)
        if dotted is None:
            continue
        last = dotted.rsplit(".", 1)[-1]
        if last in ("property", "cached_property") or dotted.endswith(".getter"):
            return True
    return False


def _self_assignments(node: _FunctionNode) -> Set[str]:
    """Attributes assigned on ``self`` anywhere in ``node`` (incl. setattr)."""
    assigned: Set[str] = set()
    for inner in ast.walk(node):
        if isinstance(inner, ast.Attribute) and not isinstance(inner.ctx, ast.Load):
            if isinstance(inner.value, ast.Name) and inner.value.id == "self":
                assigned.add(inner.attr)
        elif isinstance(inner, ast.Call):
            dotted = dotted_name(inner.func)
            if dotted in ("object.__setattr__", "setattr") and len(inner.args) >= 2:
                target, attr_node = inner.args[0], inner.args[1]
                if (
                    isinstance(target, ast.Name)
                    and target.id == "self"
                    and isinstance(attr_node, ast.Constant)
                    and isinstance(attr_node.value, str)
                ):
                    assigned.add(attr_node.value)
    return assigned


# --------------------------------------------------------------------------- #
# Per-function summarisation
# --------------------------------------------------------------------------- #
class _FunctionSummarizer(ast.NodeVisitor):
    """Builds one function's direct summary: calls and impure reads.

    Nested functions and lambdas are folded into the enclosing summary —
    closures handed to cache getters execute on the memoized path, so their
    reads belong to the function that built them.
    """

    def __init__(self, flow: ProjectFlow, info: FunctionInfo) -> None:
        self.flow = flow
        self.info = info
        self.module = info.module
        self.env: Dict[str, ClassKey] = {}
        self.assigned_names: Set[str] = _assigned_names(info.node)
        self._seed_parameters()

    # ------------------------------------------------------------------ #
    def run(self) -> None:
        for stmt in self.info.node.body:
            self.visit(stmt)

    def _seed_parameters(self) -> None:
        node = self.info.node
        args = list(node.args.posonlyargs) + list(node.args.args) + list(
            node.args.kwonlyargs
        )
        for arg in args:
            found = self.flow._annotation_class(self.module, arg.annotation)
            if found is not None:
                self.env[arg.arg] = found
        if self.info.class_key is not None and args:
            first = args[0].arg
            if first in ("self", "cls"):
                self.env[first] = self.info.class_key

    # ------------------------------------------------------------------ #
    def expr_class(self, node: ast.expr) -> Optional[ClassKey]:
        """Static class of an expression under the current environment."""
        if isinstance(node, ast.Name):
            return self.env.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.expr_class(node.value)
            if base is not None:
                return self.flow.class_attr_type(base, node.attr)
            return None
        if isinstance(node, ast.Call):
            return self._call_class(node)
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                found = self.expr_class(value)
                if found is not None:
                    return found
            return None
        if isinstance(node, ast.IfExp):
            return self.expr_class(node.body) or self.expr_class(node.orelse)
        if isinstance(node, ast.NamedExpr):
            return self.expr_class(node.value)
        return None

    def _call_class(self, node: ast.Call) -> Optional[ClassKey]:
        dotted = self.module.resolve(node.func)
        if dotted is not None:
            if dotted.rsplit(".", 1)[-1] == "replace" and node.args:
                # dataclasses.replace is type-preserving.
                return self.expr_class(node.args[0])
            as_class = self.flow.class_for_dotted(dotted, self.module)
            if as_class is not None:
                return as_class
            callee = self._function_for_dotted(dotted)
            if callee is not None:
                return callee.return_class
        if isinstance(node.func, ast.Attribute):
            base = self.expr_class(node.func.value)
            if base is not None:
                qual = self.flow.method_qual(base, node.func.attr)
                if qual is not None:
                    return self.flow.functions[qual].return_class
        return None

    def _function_for_dotted(self, dotted: str) -> Optional[FunctionInfo]:
        mod_part, _, last = dotted.rpartition(".")
        if mod_part:
            qual = f"{mod_part}:{last}"
            if qual in self.flow.functions:
                return self.flow.functions[qual]
            return None
        local = f"{self.flow.module_names[self.module.display_path]}:{last}"
        return self.flow.functions.get(local)

    # ------------------------------------------------------------------ #
    # Assignment tracking
    # ------------------------------------------------------------------ #
    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        inferred = self.expr_class(node.value)
        for target in node.targets:
            self._bind_target(target, inferred, node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
        if isinstance(node.target, ast.Name):
            declared = self.flow._annotation_class(self.module, node.annotation)
            inferred = (
                self.expr_class(node.value) if node.value is not None else None
            )
            found = declared or inferred
            if found is not None:
                self.env[node.target.id] = found
            else:
                self.env.pop(node.target.id, None)
        elif node.value is not None:
            self.visit(node.target)

    def _bind_target(
        self,
        target: ast.expr,
        inferred: Optional[ClassKey],
        value: ast.expr,
    ) -> None:
        if isinstance(target, ast.Name):
            if inferred is not None:
                self.env[target.id] = inferred
            else:
                self.env.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None, value)
        else:
            self.visit(target)

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def visit_Attribute(self, node: ast.Attribute) -> None:
        self.visit(node.value)
        if not isinstance(node.ctx, ast.Load):
            return
        base = self.expr_class(node.value)
        if base is not None:
            self._record_member_access(base, node)
            return
        dotted = self.module.resolve(node)
        if dotted is not None and (
            dotted == "os.environ" or dotted.startswith("os.environ.")
        ):
            self._record("env", "env:os.environ", node)

    def _record(self, kind: str, subject: str, node: ast.expr) -> None:
        # ``os.environ.get(...)`` is seen as two attributes and a call, all
        # at one position: report it once.
        read = GlobalRead(kind, subject, node.lineno, node.col_offset + 1)
        if read not in self.info.global_reads:
            self.info.global_reads.append(read)

    def _record_member_access(self, base: ClassKey, node: ast.Attribute) -> None:
        attr = node.attr
        kind = self.flow.attr_kind(base, attr)
        if kind in ("property", "method"):
            qual = self.flow.method_qual(base, attr)
            if qual is not None:
                self.info.calls.add(qual)
            return
        if attr.startswith("__") and attr.endswith("__"):
            return
        if kind == "unknown" and self._is_self_read(node, base):
            if self.flow.class_declares(base, attr) is False:
                self._record("self", f"{base[1]}.{attr}", node)

    def _is_self_read(self, node: ast.Attribute, base: ClassKey) -> bool:
        return (
            isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and self.info.class_key == base
        )

    # ------------------------------------------------------------------ #
    # Calls
    # ------------------------------------------------------------------ #
    def visit_Call(self, node: ast.Call) -> None:
        self.generic_visit(node)
        func = node.func
        if isinstance(func, ast.Name):
            dotted = self.module.resolve(func)
            if dotted == "os.getenv":
                self._record("env", "env:os.environ", node)
                return
            if dotted is not None:
                self._link_dotted(dotted)
            return
        if isinstance(func, ast.Attribute):
            resolved = self.module.resolve(func)
            if resolved in ("os.getenv", "os.environ.get"):
                self._record("env", "env:os.environ", node)
                return
            base = self.expr_class(func.value)
            if base is not None:
                qual = self.flow.method_qual(base, func.attr)
                if qual is not None:
                    self.info.calls.add(qual)
                return
            if resolved is not None and self._link_dotted(resolved):
                return
            # Method-name fallback through the class inventory: link only
            # when the name is unambiguous project-wide.
            unique = self.flow.unique_method(func.attr)
            if unique is not None:
                self.info.calls.add(unique)

    def _link_dotted(self, dotted: str) -> bool:
        callee = self._function_for_dotted(dotted)
        if callee is not None:
            self.info.calls.add(callee.qual)
            return True
        as_class = self.flow.class_for_dotted(dotted, self.module)
        if as_class is not None:
            init = self.flow.method_qual(as_class, "__init__")
            if init is not None:
                self.info.calls.add(init)
            post = self.flow.method_qual(as_class, "__post_init__")
            if post is not None:
                self.info.calls.add(post)
            return True
        return False

    # ------------------------------------------------------------------ #
    # Module-global reads (F3)
    # ------------------------------------------------------------------ #
    def visit_Name(self, node: ast.Name) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        if node.id in self.assigned_names or node.id in ("self", "cls"):
            return
        bindings = self.flow.module_bindings.get(
            self.flow.module_names[self.module.display_path], {}
        )
        if bindings.get(node.id) == "other" and node.id not in self.module.imports():
            self._record("global", f"global:{node.id}", node)

    # ------------------------------------------------------------------ #
    # Scoping
    # ------------------------------------------------------------------ #
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_nested(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_nested(node)

    def _visit_nested(self, node: _FunctionNode) -> None:
        if node is self.info.node:
            self.generic_visit(node)
            return
        # Fold the closure into this summary; its params shadow globals.
        self.assigned_names |= _assigned_names(node)
        for arg in (
            list(node.args.posonlyargs)
            + list(node.args.args)
            + list(node.args.kwonlyargs)
        ):
            found = self.flow._annotation_class(self.module, arg.annotation)
            if found is not None:
                self.env[arg.arg] = found
        for stmt in node.body:
            self.visit(stmt)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self.assigned_names |= {arg.arg for arg in node.args.args}
        self.visit(node.body)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Classes defined inside functions are rare and out of scope.
        return


def _assigned_names(node: _FunctionNode) -> Set[str]:
    """Every name bound anywhere inside ``node`` (shadows module globals)."""
    names: Set[str] = set()
    args = node.args
    for arg in (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        names.add(arg.arg)
    for inner in ast.walk(node):
        if isinstance(inner, ast.Name) and not isinstance(inner.ctx, ast.Load):
            names.add(inner.id)
        elif isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(inner.name)
            inner_args = inner.args
            for arg in (
                list(inner_args.posonlyargs)
                + list(inner_args.args)
                + list(inner_args.kwonlyargs)
                + ([inner_args.vararg] if inner_args.vararg else [])
                + ([inner_args.kwarg] if inner_args.kwarg else [])
            ):
                names.add(arg.arg)
        elif isinstance(inner, ast.Lambda):
            for arg in inner.args.args:
                names.add(arg.arg)
        elif isinstance(inner, ast.ExceptHandler) and inner.name:
            names.add(inner.name)
        elif isinstance(inner, (ast.Global, ast.Nonlocal)):
            names.update(inner.names)
    return names


__all__ = [
    "ClassInfo",
    "FunctionInfo",
    "GlobalRead",
    "MEMO_CLASS_NAMES",
    "PIPELINE_STAGES",
    "ProjectFlow",
    "PURITY_EXEMPT_MODULE_PREFIXES",
    "module_dotted_name",
]
