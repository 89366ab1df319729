"""Every module under ``src/repro`` is reached by an import from real code,
and every name a module imports at module level is used.

A module that only its own package ``__init__`` imports is an orphan: it
is re-exported, but nothing in the simulator, the sweep stack or the CLI
runs it, so it can drift from the model the results use without any test
noticing.  An imported name nothing reads is the same waste one level
down.  Parsing is purely static (``ast``), so the checks cost no imports
and see lazy imports inside function bodies too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List, Set

SRC = Path(__file__).resolve().parent.parent / "src"

#: Entry modules that are loaded through their package rather than imported
#: by a sibling, each with the reason it is allowed to be.
ENTRY_MODULES = {
    "repro.__main__": "`python -m repro` runs it",
    "repro.core.api": "the one-shot simulate()/compare helpers, re-exported by `repro`",
}

#: Packages whose modules are entry points as a whole.
ENTRY_PACKAGES = {
    "repro.analysis": "`repro lint` loads the rule engine lazily through the package",
    "repro.bench": "`repro bench` loads the harness lazily through the package",
}


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC).with_suffix("").parts
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _modules() -> Dict[str, Path]:
    return {_module_name(path): path for path in sorted(SRC.joinpath("repro").rglob("*.py"))}


def _imported_modules(path: Path, known: Set[str]) -> Set[str]:
    """Modules of ``known`` that ``path`` imports anywhere in its body."""
    found: Set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                found.add(alias.name)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            found.add(node.module)
            # `from repro.pkg import module` names a submodule.
            found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found & known


def _is_entry(module: str) -> bool:
    return module in ENTRY_MODULES or any(
        module.startswith(package + ".") for package in ENTRY_PACKAGES
    )


def orphan_modules() -> Set[str]:
    """Modules no live non-``__init__`` module imports.

    Iterated to a fixpoint: a module imported only by orphans is itself an
    orphan, so a chain of dead modules is caught whole.
    """
    modules = _modules()
    known = set(modules)
    imports = {
        name: _imported_modules(path, known) - {name}
        for name, path in modules.items()
        if path.name != "__init__.py"
    }
    orphans: Set[str] = set()
    while True:
        reached = set().union(
            *(targets for name, targets in imports.items() if name not in orphans)
        )
        found = {
            name for name in imports if name not in reached and not _is_entry(name)
        }
        if found == orphans:
            return orphans
        orphans = found


def test_every_module_is_imported_by_non_package_code():
    assert sorted(orphan_modules()) == []


def test_allowlist_names_real_modules():
    modules = _modules()
    for module in ENTRY_MODULES:
        assert module in modules, module
    for package in ENTRY_PACKAGES:
        assert modules[package].name == "__init__.py", package


def _module_level_imports(tree: ast.Module) -> Iterator[ast.stmt]:
    """Import statements of the module body, including under ``if``/``try``."""
    pending: List[ast.stmt] = list(tree.body)
    while pending:
        node = pending.pop(0)
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.If, ast.Try)):
            for block in ("body", "orelse", "finalbody", "handlers"):
                pending.extend(getattr(node, block, []))
        elif isinstance(node, ast.ExceptHandler):
            pending.extend(node.body)


def _quoted_name_holders(tree: ast.Module) -> Iterator[ast.AST]:
    """Subtrees whose string constants name what they use: annotations
    (``"OrderedDict[str, int]"``) and the ``__all__`` list."""
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            yield node.value


def _used_names(tree: ast.Module) -> Set[str]:
    """Names read anywhere: identifiers, quoted annotations and ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for holder in _quoted_name_holders(tree):
        for node in ast.walk(holder):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                expression = ast.parse(node.value, mode="eval")
                used.update(
                    name.id for name in ast.walk(expression) if isinstance(name, ast.Name)
                )
    return used


def _reexported_names(trees: Dict[str, ast.Module]) -> Set[str]:
    """``module.name`` for every name some module imports from ``module``.

    A name that other code imports from a module is that module's API, so
    importing it there re-exports it rather than wasting it.
    """
    found: Set[str] = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module and not node.level:
                found.update(f"{node.module}.{alias.name}" for alias in node.names)
    return found


def unused_imports() -> List[str]:
    """``module: name`` for every module-level import nothing uses.

    Exempt: package ``__init__`` modules (they import to re-export), names
    other modules import from the module, ``from __future__`` imports and
    statements marked ``noqa: F401``.
    """
    sources = {
        module: path.read_text(encoding="utf-8") for module, path in _modules().items()
    }
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reexported = _reexported_names(trees)
    unused: List[str] = []
    for module, path in _modules().items():
        if path.name == "__init__.py":
            continue
        lines = sources[module].splitlines()
        tree = trees[module]
        used = _used_names(tree) | {
            name.rpartition(".")[2]
            for name in reexported
            if name.rpartition(".")[0] == module
        }
        for node in _module_level_imports(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            statement = lines[node.lineno - 1 : node.end_lineno]
            if any("noqa: F401" in line for line in statement):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append(f"{module}: {bound}")
    return sorted(unused)


def test_every_module_level_import_is_used():
    assert unused_imports() == []
