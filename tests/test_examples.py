"""Smoke tests: every example script runs to completion.

Examples are user-facing documentation; a broken example is a broken
deliverable.  Each is executed in-process with a patched ``sys.argv``
(and, where useful, shrunk parameters via monkeypatching) so the suite
stays fast.
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None):
    path = EXAMPLES / name
    assert path.exists(), path
    old_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        return runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "Direct (Hagerup-style) simulator" in out
    assert "BOLD" in out


def test_heterogeneous_cluster(capsys):
    run_example("heterogeneous_cluster.py")
    out = capsys.readouterr().out
    assert "WF (a-priori weights)" in out
    assert "ideal speedup" in out


def test_timestepping_nbody(capsys):
    run_example("timestepping_nbody.py")
    out = capsys.readouterr().out
    assert "final AWF weights" in out
    # AWF must end up favouring the PE that became fast (index 3).
    assert "oracle" in out


def test_workload_distributions(capsys):
    run_example("workload_distributions.py")
    out = capsys.readouterr().out
    assert "constant" in out and "exponential" in out
    assert "best:" in out


def test_reproduce_bold_cell(capsys):
    run_example("reproduce_bold_cell.py", argv=["1024", "8", "5"])
    out = capsys.readouterr().out
    assert "BOLD experiment cell" in out
    assert "FAC2" in out


def test_reproduce_bold_cell_rejects_bad_p():
    with pytest.raises(SystemExit):
        run_example("reproduce_bold_cell.py", argv=["1024", "7"])


def test_fault_tolerance(capsys):
    run_example("fault_tolerance.py")
    out = capsys.readouterr().out
    assert "tasks lost and re-executed" in out
    assert "STAT" in out and "FAC2" in out


def test_platform_and_traces(capsys):
    run_example("platform_and_traces.py")
    out = capsys.readouterr().out
    assert "platform.xml" in out
    assert "identical" in out
