"""Every module under ``src/repro`` is reached by an import from real code.

A module that only its own package ``__init__`` imports is an orphan: it
is re-exported, but nothing in the simulator, the sweep stack or the CLI
runs it, so it can drift from the model the results use without any test
noticing.  Parsing is purely static (``ast``), so the check costs no
imports and sees lazy imports inside function bodies too.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

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
