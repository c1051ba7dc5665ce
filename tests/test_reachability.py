"""Every module under ``src/repro`` is reached from the command line.

The closure follows every ``import`` statement of each module, those
inside functions included, so a subsystem a command imports lazily is
reached; imports made only for type checkers do not count.  A package
that resolves its public names from an ``_EXPORTS`` table reaches every
submodule the table names, as its first use of a name imports it.  A
package that only its own tests import fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro

PACKAGE_DIR = Path(repro.__file__).parent
ENTRY_POINTS = ("repro.cli", "repro.__main__")


def module_files() -> dict[str, Path]:
    """Dotted name -> source file of every module under ``repro``."""
    modules = {}
    for path in PACKAGE_DIR.rglob("*.py"):
        parts = path.relative_to(PACKAGE_DIR.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        modules[".".join(parts)] = path
    return modules


def _runtime_imports(tree: ast.AST):
    """The import nodes of ``tree`` outside ``if TYPE_CHECKING:`` blocks."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not (isinstance(node, ast.If)
                  and isinstance(node.test, ast.Name)
                  and node.test.id == "TYPE_CHECKING"):
            yield from _runtime_imports(node)


def _exported_submodules(name: str, tree: ast.Module) -> list[str]:
    """The submodules named by a package's ``_EXPORTS`` table, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "_EXPORTS"
                for target in node.targets):
            return [f"{name}.{sub}" for sub in ast.literal_eval(node.value)]
    return []


def imported_modules(name: str, path: Path, modules) -> set[str]:
    """The ``repro`` modules that importing ``name`` can run."""
    package = name if path.name == "__init__.py" else name.rpartition(".")[0]
    tree = ast.parse(path.read_text())
    targets = _exported_submodules(name, tree)
    for node in _runtime_imports(tree):
        if isinstance(node, ast.Import):
            targets += [alias.name for alias in node.names]
            continue
        base = node.module or ""
        if node.level:
            parts = package.split(".")
            parts = parts[:len(parts) - node.level + 1]
            base = ".".join(parts + ([node.module] if node.module else []))
        # ``from pkg import name`` imports the submodule when there is one
        targets += [base] + [f"{base}.{alias.name}" for alias in node.names]
    found = set()
    for target in targets:
        parts = target.split(".")
        # importing a.b.c runs the __init__ of a and of a.b first
        found |= {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    return found & set(modules)


def test_every_module_is_reached_from_the_entry_points():
    modules = module_files()
    reached: set[str] = set()
    pending = list(ENTRY_POINTS)
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending += imported_modules(name, modules[name], modules)
    assert sorted(set(modules) - reached) == []
