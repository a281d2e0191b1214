"""Every module under ``src/repro`` is reached from something that runs.

The roots are the CLI (``repro.cli``, ``repro.__main__``) and every
benchmark and script file.  The walk follows ``import`` statements
(lazy ones inside functions too) read with :mod:`ast`; importing a
module also runs its parent packages, so they are reached with it.
``repro/__init__.py``'s re-exports are not followed: a module that only
the top-level export list imports is library surface nothing runs.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterator, List

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_MODULES = ("repro.cli", "repro.__main__")


def _module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _modules() -> Dict[str, Path]:
    return {_module_name(path): path for path in (SRC / "repro").rglob("*.py")}


def _entry_scripts() -> List[Path]:
    return sorted(
        path
        for folder in ("benchmarks", "scripts")
        for path in (ROOT / folder).rglob("*.py")
        if "tests" not in path.relative_to(ROOT).parts
    )


def _imports(path: Path, module: str) -> Iterator[str]:
    """Dotted names ``path`` imports: modules, and ``module.attr`` for
    ``from module import attr`` (which may name a submodule)."""
    package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[: len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


def _with_parents(name: str) -> Iterator[str]:
    parts = name.split(".")
    for end in range(1, len(parts) + 1):
        yield ".".join(parts[:end])


def unreached() -> List[str]:
    modules = _modules()
    pending = list(ENTRY_MODULES)
    for script in _entry_scripts():
        pending.extend(_imports(script, ""))
    reached = set()
    while pending:
        for name in _with_parents(pending.pop()):
            if name in modules and name not in reached:
                reached.add(name)
                if name != "repro":  # the export list is not a user
                    pending.extend(_imports(modules[name], name))
    return sorted(set(modules) - reached)


def test_every_module_is_reached():
    missing = unreached()
    assert not missing, f"modules nothing runs: {', '.join(missing)}"
