"""Package surfaces that import a submodule on first use of one of its names.

A package's ``__init__`` lists its public names in one table,
``{"submodule": ("Name", ...)}``, and takes its ``__getattr__`` and
``__dir__`` (PEP 562) from :func:`lazy_exports`, so importing the
package runs none of its submodules.
"""

from __future__ import annotations

import importlib
import sys
from types import ModuleType


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` of ``package``, resolving ``table``.

    The first access of a name imports the submodule that defines it and
    binds the value in the package namespace, so later accesses are
    plain lookups.  A name the table exports keeps its value when a
    submodule of the same name is imported.
    """
    owners = {name: sub for sub, names in table.items() for name in names}
    module = sys.modules[package]
    namespace = vars(module)

    def __getattr__(name: str):
        if name not in owners:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(
            importlib.import_module(f"{package}.{owners[name]}"), name
        )
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owners.keys())

    shadowed = owners.keys() & table.keys()
    if shadowed:
        # The import system binds each submodule it loads on its package;
        # for a submodule named like an export, the export stays.
        class Package(ModuleType):
            def __setattr__(self, name, value):
                if not (name in shadowed and isinstance(value, ModuleType)):
                    super().__setattr__(name, value)

        module.__class__ = Package
    return __getattr__, __dir__
