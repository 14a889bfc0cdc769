"""Every module under ``src/repro`` must be reachable from an entry point.

The paper hardens Kubernetes by fencing off the API surface no workload
uses; this test applies the same rule to our own code.  It parses
``import`` / ``from ... import`` statements with :mod:`ast` (lazy
imports inside functions included) and computes the module closure from
the entry points:

- ``repro.cli`` (the ``kubefence-repro`` console script) and
  ``repro.__main__`` (``python -m repro``);
- every ``repro.*`` module named by an import in ``benchmarks/**/*.py``.

Tests and examples are not roots: a module only they import is dead
weight that merely looks alive.  Importing a module also runs its
parent packages' ``__init__``, so those are reached too.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
ENTRY_POINTS = ("repro.cli", "repro.__main__")


def _module_files() -> dict[str, Path]:
    modules = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = list(path.relative_to(SRC).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        modules[".".join(parts)] = path
    return modules


def _imported_names(path: Path, module: str | None) -> set[str]:
    """Dotted names an import statement in *path* may resolve to: the
    module itself and, for ``from X import y``, the submodule ``X.y``."""
    package = None
    if module is not None:
        package = module if path.name == "__init__.py" else module.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                if package is None:
                    continue
                anchor = package.rsplit(".", node.level - 1)[0]
                base = f"{anchor}.{base}" if base else anchor
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _with_parents(name: str) -> list[str]:
    parts = name.split(".")
    return [".".join(parts[:i]) for i in range(1, len(parts) + 1)]


def reachable_modules(modules: dict[str, Path]) -> set[str]:
    roots = set(ENTRY_POINTS)
    for path in (ROOT / "benchmarks").rglob("*.py"):
        roots |= _imported_names(path, None)
    seen: set[str] = set()
    todo = [n for root in roots for n in _with_parents(root) if n in modules]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for imported in _imported_names(modules[name], name):
            todo.extend(n for n in _with_parents(imported)
                        if n in modules and n not in seen)
    return seen


def test_entry_points_reach_the_request_path():
    reached = reachable_modules(_module_files())
    for name in ("repro.core.proxy", "repro.k8s.apiserver", "repro.k8s.wal",
                 "repro.k8s.http", "repro.obs.metrics"):
        assert name in reached, name


def test_every_src_module_is_reachable():
    modules = _module_files()
    unreachable = sorted(set(modules) - reachable_modules(modules))
    assert not unreachable, (
        "modules no entry point imports (delete them, or import them from "
        "repro.cli or a benchmark): " + ", ".join(unreachable)
    )
