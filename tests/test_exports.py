"""The package surfaces resolve their public names on first use.

``repro.core``, ``repro.experiments``, ``repro.metrics``, ``repro.obs``,
``repro.simgrid`` and ``repro.workloads`` list their names in one
``_EXPORTS`` table and import a submodule when one of its names is first
used (:func:`repro._exports.lazy_exports`).  So the advise server, and
every pool worker forked from it, holds only the modules a query runs.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = ("core", "experiments", "metrics", "obs", "simgrid", "workloads")


def run_fresh(code: str) -> str:
    """The stdout of ``code`` run by a fresh interpreter on this tree."""
    src = str(Path(repro.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_importing_the_server_loads_only_what_a_query_runs():
    """No simulator, experiment driver, report, timeline or XML I/O."""
    loaded = set(json.loads(run_fresh(
        "import json, sys, repro.serve; print(json.dumps(list(sys.modules)))"
    )))
    unwanted = {
        name for name in loaded
        if name.split(".")[:2] in (["repro", "simgrid"], ["repro", "directsim"],
                                   ["repro", "figures"], ["repro", "scenarios"])
        or (name.startswith("repro.experiments.")
            and name != "repro.experiments.runner")
    }
    unwanted |= loaded & {
        "repro.obs.timeline", "repro.obs.report", "repro.core.prediction",
        "repro.core.schedule", "repro.metrics.convergence",
        "repro.metrics.discrepancy", "repro.metrics.speedup",
        "repro.metrics.stats", "repro.workloads.traces",
        "csv", "xml.etree.ElementTree",
    }
    assert sorted(unwanted) == []


@pytest.mark.parametrize("name", PACKAGES)
class TestSurface:
    def test_every_name_is_its_submodules_object(self, name):
        package = importlib.import_module(f"repro.{name}")
        owners = {attr: sub for sub, attrs in package._EXPORTS.items()
                  for attr in attrs}
        assert sorted(owners) == sorted(package.__all__)
        for attr in package.__all__:
            module = importlib.import_module(f"repro.{name}.{owners[attr]}")
            assert getattr(package, attr) is getattr(module, attr), attr

    def test_star_import_binds_every_name(self, name):
        package = importlib.import_module(f"repro.{name}")
        namespace: dict = {}
        exec(f"from repro.{name} import *", namespace)
        for attr in package.__all__:
            assert namespace[attr] is getattr(package, attr), attr

    def test_dir_lists_every_name(self, name):
        package = importlib.import_module(f"repro.{name}")
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, name):
        package = importlib.import_module(f"repro.{name}")
        with pytest.raises(AttributeError, match=f"'repro.{name}'"):
            package.no_such_name
        assert not hasattr(package, "no_such_name")


@pytest.mark.parametrize("first", ["import repro.metrics.discrepancy",
                                   "from repro.metrics import discrepancy"])
def test_discrepancy_stays_the_function(first):
    """``repro.metrics`` exports a function named like its submodule;
    importing the submodule, before or after, does not replace it."""
    assert run_fresh(
        f"{first}\n"
        "import sys\n"
        "import repro.metrics.discrepancy\n"
        "from repro.metrics import discrepancy\n"
        "function = sys.modules['repro.metrics.discrepancy'].discrepancy\n"
        "print(discrepancy is repro.metrics.discrepancy is function)"
    ) == "True"


def test_first_use_imports_only_the_defining_submodule(tmp_path,
                                                       monkeypatch):
    package = tmp_path / "lazypkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from repro._exports import lazy_exports\n"
        "_EXPORTS = {'a': ('one',), 'b': ('b', 'two')}\n"
        "__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)\n"
    )
    (package / "a.py").write_text("one = 1\n")
    (package / "b.py").write_text("def b():\n    return 'b'\ntwo = 2\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    try:
        lazypkg = importlib.import_module("lazypkg")
        assert "lazypkg.a" not in sys.modules
        assert lazypkg.one == 1
        assert "lazypkg.a" in sys.modules and "lazypkg.b" not in sys.modules
        assert vars(lazypkg)["one"] == 1  # bound: a plain lookup from now on
        submodule = importlib.import_module("lazypkg.b")
        assert lazypkg.b is submodule.b
        monkeypatch.setattr(lazypkg, "b", len)  # a patch still applies
        assert lazypkg.b is len
    finally:
        for name in ("lazypkg", "lazypkg.a", "lazypkg.b"):
            sys.modules.pop(name, None)
