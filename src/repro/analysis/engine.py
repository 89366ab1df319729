"""AST lint engine: file loading, rule dispatch, findings, suppression.

The engine is deliberately small: it knows how to turn paths into parsed
:class:`LintModule` records, run a battery of :class:`Rule` objects over
them, and filter findings through ``# repro: noqa[RULE]`` suppression
comments.  Everything repo-specific lives in the rules
(:mod:`repro.analysis.rules`); everything schema-facing lives in the
reporters (:mod:`repro.analysis.report`).

Every rule is module-local: :meth:`Rule.check_module` runs once per parsed
file (unseeded RNG, stray prints, bare excepts, model-module purity, ...).

Suppression: a finding is dropped when a ``# repro: noqa[RULE]`` comment
naming the rule's id or name (comma separated for several rules) appears in
the *suppression span* of the statement that owns the reported line,
conventionally followed by a reason::

    started = time.perf_counter()  # repro: noqa[N1] progress ETA only

For simple statements the span is the statement's own lines (so a trailing
comment on any line of a multi-line expression counts); for compound
statements — ``def``/``class`` (including decorators) and block headers —
the span covers decorators through the header line only, never the body.
That normalisation is what lets a noqa on a decorator line silence a
finding reported on the ``def`` line below it.

Comments are read with :mod:`tokenize`, so a ``noqa`` inside a string
literal never suppresses anything.  The noqa table is computed lazily, once
per file, the first time a suppression query touches the module — a clean
file is never tokenized twice.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.errors import AnalysisError

#: Directory names never descended into when expanding lint targets.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".hg", ".mypy_cache", ".pytest_cache", "build", "dist"}
)

#: Rule id attached to findings for files that do not parse.
PARSE_ERROR_RULE = "E0"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([^\]]+)\]", re.IGNORECASE)


# --------------------------------------------------------------------------- #
# Findings
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: Display path of the offending file (as given on the command
            line, so output is stable regardless of the process cwd).
        line: 1-based line of the violation.
        col: 1-based column of the violation.
        rule: Short rule id (``"D1"``, ``"W1"``, ...).
        name: The rule's long kebab-case name (``"unseeded-rng"``).
        message: Human explanation of this specific violation.
    """

    path: str
    line: int
    col: int
    rule: str
    name: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        """JSON form; field names are pinned by the lint schema golden test."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "name": self.name,
            "message": self.message,
        }

    def location(self) -> str:
        """``path:line:col`` rendering (clickable in most terminals)."""
        return f"{self.path}:{self.line}:{self.col}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


# --------------------------------------------------------------------------- #
# Parsed modules
# --------------------------------------------------------------------------- #
@dataclass
class LintModule:
    """One parsed source file plus the derived lookup structures rules need."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    _noqa: Optional[Dict[int, FrozenSet[str]]] = field(default=None, repr=False)
    _parents: Optional[Dict[int, ast.AST]] = field(default=None, repr=False)
    _imports: Optional[Dict[str, str]] = field(default=None, repr=False)
    _spans: Optional[Dict[int, Tuple[int, int]]] = field(default=None, repr=False)

    # ------------------------------------------------------------------ #
    @property
    def noqa(self) -> Dict[int, FrozenSet[str]]:
        """Line -> suppressed rule ids, tokenized once per file on demand."""
        if self._noqa is None:
            self._noqa = parse_noqa(self.source)
        return self._noqa

    # ------------------------------------------------------------------ #
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The AST parent of ``node`` (``None`` for the module itself)."""
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[id(child)] = outer
            self._parents = parents
        return self._parents.get(id(node))

    def imports(self) -> Dict[str, str]:
        """Local-name -> dotted-origin map of this module's imports.

        ``import numpy as np`` maps ``np -> numpy``; ``from random import
        shuffle`` maps ``shuffle -> random.shuffle``.  Only module-level and
        nested imports are recorded — the map answers "what does this name
        most plausibly refer to", which is all a lint heuristic needs.
        """
        if self._imports is None:
            table: Dict[str, str] = {}
            for node in ast.walk(self.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        origin = alias.name if alias.asname else bound
                        table[bound] = origin
                elif isinstance(node, ast.ImportFrom) and node.module:
                    for alias in node.names:
                        if alias.name == "*":
                            continue
                        bound = alias.asname or alias.name
                        table[bound] = f"{node.module}.{alias.name}"
            self._imports = table
        return self._imports

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted name of an expression with the import table applied.

        ``np.random.randint`` resolves to ``numpy.random.randint`` when the
        module imported ``numpy as np``; unknown roots pass through
        unchanged.  Returns ``None`` for expressions that are not plain
        dotted names (subscripts, calls, ...).
        """
        dotted = dotted_name(node)
        if dotted is None:
            return None
        first, _, rest = dotted.partition(".")
        origin = self.imports().get(first)
        if origin is None:
            return dotted
        return f"{origin}.{rest}" if rest else origin

    def suppression_span(self, line: int) -> Tuple[int, int]:
        """Inclusive line span a suppression comment for ``line`` may sit on.

        The span of the innermost statement owning ``line``: a simple
        statement spans all its own lines; a compound statement (``def``,
        ``class``, ``if``, ...) spans its decorators and header only, so a
        comment deep inside a block never suppresses findings on the header
        of that block (or vice versa).
        """
        if self._spans is None:
            spans: List[Tuple[int, int]] = []
            for node in ast.walk(self.tree):
                if not isinstance(node, ast.stmt):
                    continue
                start = node.lineno
                decorators = getattr(node, "decorator_list", [])
                if decorators:
                    start = min(start, *(d.lineno for d in decorators))
                body = getattr(node, "body", None)
                if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
                    end = max(node.lineno, body[0].lineno - 1)
                else:
                    end = int(getattr(node, "end_lineno", node.lineno) or node.lineno)
                spans.append((start, end))
            # Larger spans first so innermost statements win the lookup.
            table: Dict[int, Tuple[int, int]] = {}
            for start, end in sorted(spans, key=lambda span: span[0] - span[1]):
                for covered in range(start, end + 1):
                    table[covered] = (start, end)
            self._spans = table
        return self._spans.get(line, (line, line))

    def suppressed(self, finding: Finding) -> bool:
        """Whether a ``# repro: noqa[...]`` in the finding's span names it."""
        table = self.noqa
        if not table:
            return False
        start, end = self.suppression_span(finding.line)
        wanted = {finding.rule.casefold(), finding.name.casefold()}
        for noqa_line, ids in table.items():
            if start <= noqa_line <= end and ids & wanted:
                return True
        return False


def dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; ``None`` for anything else."""
    parts: List[str] = []
    current: ast.expr = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def parse_noqa(source: str) -> Dict[int, FrozenSet[str]]:
    """Line -> suppressed rule ids/names, from ``# repro: noqa[...]`` comments."""
    found: Dict[int, Set[str]] = {}
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type != tokenize.COMMENT:
                continue
            match = _NOQA_RE.search(token.string)
            if match is None:
                continue
            ids = {
                part.strip().casefold()
                for part in match.group(1).split(",")
                if part.strip()
            }
            if ids:
                found.setdefault(token.start[0], set()).update(ids)
    except (tokenize.TokenError, IndentationError):
        # An untokenizable file will already surface as a parse-error
        # finding; suppression info is best-effort on top.
        pass
    return {line: frozenset(ids) for line, ids in found.items()}


# --------------------------------------------------------------------------- #
# Rules
# --------------------------------------------------------------------------- #
class Rule:
    """Base class of every lint rule.

    Subclasses set the three identity strings and override the check hook.
    It yields :class:`Finding` records; the engine owns ordering and
    suppression.
    """

    rule_id: str = ""
    name: str = ""
    summary: str = ""

    def check_module(self, module: LintModule) -> Iterator[Finding]:
        """Per-file findings (default: none)."""
        return iter(())

    # ------------------------------------------------------------------ #
    def finding(self, module: LintModule, node: ast.AST, message: str) -> Finding:
        """Build a finding for ``node`` in ``module`` under this rule."""
        return Finding(
            path=module.display_path,
            line=int(getattr(node, "lineno", 1)),
            col=int(getattr(node, "col_offset", 0)) + 1,
            rule=self.rule_id,
            name=self.name,
            message=message,
        )


class ContextVisitor(ast.NodeVisitor):
    """Node visitor that tracks the enclosing function/class stacks."""

    def __init__(self) -> None:
        self.function_stack: List[Union[ast.FunctionDef, ast.AsyncFunctionDef]] = []
        self.class_stack: List[ast.ClassDef] = []

    # ------------------------------------------------------------------ #
    @property
    def current_function(
        self,
    ) -> Optional[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        return self.function_stack[-1] if self.function_stack else None

    @property
    def current_class(self) -> Optional[ast.ClassDef]:
        return self.class_stack[-1] if self.class_stack else None

    # ------------------------------------------------------------------ #
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self.function_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self.function_stack.pop()

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.class_stack.append(node)
        try:
            self.generic_visit(node)
        finally:
            self.class_stack.pop()


# --------------------------------------------------------------------------- #
# Loading and running
# --------------------------------------------------------------------------- #
def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Expand lint targets into a sorted, de-duplicated list of ``.py`` files.

    Directories are walked recursively (skipping :data:`EXCLUDED_DIRS` and
    hidden directories); explicit file arguments are taken as-is.  A target
    that does not exist raises :class:`~repro.errors.AnalysisError` — a typo
    must not silently lint nothing.
    """
    seen: Set[Path] = set()
    files: List[Path] = []

    def add(candidate: Path) -> None:
        resolved = candidate.resolve()
        if resolved not in seen:
            seen.add(resolved)
            files.append(candidate)

    for raw in paths:
        target = Path(raw)
        if target.is_dir():
            for candidate in sorted(target.rglob("*.py")):
                relative = candidate.relative_to(target)
                if any(
                    part in EXCLUDED_DIRS or part.startswith(".")
                    for part in relative.parts[:-1]
                ):
                    continue
                add(candidate)
        elif target.is_file():
            add(target)
        else:
            raise AnalysisError(f"lint target {target} does not exist")
    files.sort(key=lambda path: str(path))
    return files


def load_module(path: Path) -> LintModule:
    """Parse one file into a :class:`LintModule` (raises ``SyntaxError``)."""
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise AnalysisError(f"cannot read {path}: {exc}") from exc
    tree = ast.parse(source, filename=str(path))
    return LintModule(
        path=path,
        display_path=_display_path(path),
        source=source,
        tree=tree,
    )


def _display_path(path: Path) -> str:
    """Path as printed in findings: cwd-relative when possible, POSIX style."""
    try:
        relative = path.resolve().relative_to(Path.cwd())
        return relative.as_posix()
    except ValueError:
        return path.as_posix()


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` call."""

    findings: List[Finding]
    files: List[str]
    rules: List[Rule]

    @property
    def ok(self) -> bool:
        """Whether the linted tree is clean."""
        return not self.findings

    def counts(self) -> Dict[str, int]:
        """Findings per active rule id (every active rule present, 0 ok)."""
        table: Dict[str, int] = {rule.rule_id: 0 for rule in self.rules}
        for finding in self.findings:
            table[finding.rule] = table.get(finding.rule, 0) + 1
        return table


def load_project(
    paths: Sequence[Union[str, Path]],
) -> Tuple[List[LintModule], List[Finding]]:
    """Expand and parse lint targets once.

    Returns the parsed modules plus one :data:`PARSE_ERROR_RULE` finding per
    file that does not parse.
    """
    modules: List[LintModule] = []
    findings: List[Finding] = []
    for path in iter_python_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=_display_path(path),
                    line=int(exc.lineno or 1),
                    col=int(exc.offset or 0) + 1 if exc.offset else 1,
                    rule=PARSE_ERROR_RULE,
                    name="parse-error",
                    message=f"file does not parse: {exc.msg}",
                )
            )
    return modules, findings


def run_lint(
    paths: Sequence[Union[str, Path]],
    rules: Sequence[Rule],
) -> LintReport:
    """Lint ``paths`` under ``rules`` and return the suppressed-and-sorted report."""
    files = iter_python_files(paths)
    modules, findings = load_project(paths)
    by_display = {module.display_path: module for module in modules}
    for rule in rules:
        for module in modules:
            findings.extend(rule.check_module(module))
    kept: List[Finding] = []
    for finding in findings:
        module = by_display.get(finding.path)
        if module is not None and module.suppressed(finding):
            continue
        kept.append(finding)
    kept.sort(key=Finding.sort_key)
    return LintReport(
        findings=kept,
        files=[_display_path(path) for path in files],
        rules=list(rules),
    )


__all__ = [
    "ContextVisitor",
    "EXCLUDED_DIRS",
    "Finding",
    "LintModule",
    "LintReport",
    "PARSE_ERROR_RULE",
    "Rule",
    "dotted_name",
    "iter_python_files",
    "load_module",
    "load_project",
    "parse_noqa",
    "run_lint",
]
